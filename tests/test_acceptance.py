"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import time

import numpy as np

from quatflow import (
    BlockDim,
    HamiltonianSystem,
    Trajectory,
    energy_drift,
    gradient,
    integrate,
    parse,
    symplectic_form,
    symplecticity_residual,
    verify_quaternion_relations,
)
from quatflow.cli import main
from quatflow.expressions import DEMO_HAMILTONIANS
from quatflow.structures import structure_triple
from oracles import (
    expected_symplectic_matrix,
    expm_taylor,
    fd_gradient,
    quadratic_energy_text,
    omega_matrix,
    reference_field_formula,
    rk4_on_field,
)

LABELS = ("F", "G", "H")


def _report(number: int, description: str, ok: bool, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({description}): {status} [{elapsed:.3f}s budget {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_quaternion_algebra_is_exact():
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 4, 8):
        for space in ("tangent", "cotangent"):
            report = verify_quaternion_relations(*structure_triple(space, BlockDim(n)))
            ok = ok and not any(report.values())
    _report(1, "quaternion algebra residuals exactly zero", ok, started, 1.0)


def test_criterion_2_symplectic_forms_match_displayed_expansions():
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 4):
        for label in LABELS:
            derived = symplectic_form(label, BlockDim(n)).matrix
            ok = ok and np.array_equal(derived, expected_symplectic_matrix(label, n))
    _report(2, "derived forms equal displayed wedge expansions", ok, started, 1.0)


def test_criterion_3_generic_solve_equals_transcribed_fields():
    started = time.perf_counter()
    ok = True
    rng = np.random.default_rng(42)
    for n in (1, 2, 4):
        dim = BlockDim(n)
        quadratic = parse(quadratic_energy_text(dim), dim)
        for label in LABELS:
            omega = omega_matrix(HamiltonianSystem.build(label, quadratic))
            for _ in range(50):
                components = rng.standard_normal(4 * n)
                generic = omega @ components
                transcribed = reference_field_formula(label, components)
                ok = ok and np.array_equal(generic, transcribed)
    _report(3, "omega-solve matches transcribed field formulas", ok, started, 1.0)


def test_criterion_4_energy_gradient_orthogonal_to_field():
    started = time.perf_counter()
    ok = True
    rng = np.random.default_rng(4242)
    dim = BlockDim(1)
    for text in DEMO_HAMILTONIANS.values():
        field = parse(text, dim)
        for label in LABELS:
            omega = omega_matrix(HamiltonianSystem.build(label, field))
            for _ in range(100):
                point = rng.uniform(-2.0, 2.0, 4)
                grad = gradient(field, point)
                flow = omega @ grad
                ok = ok and abs(float(np.dot(grad, flow))) <= 1e-12
    _report(4, "grad H orthogonal to the Hamiltonian field", ok, started, 1.0)


def test_criterion_5_flow_matches_matrix_exponential_oracle():
    started = time.perf_counter()
    ok = True
    dim = BlockDim(1)
    quadratic = parse(quadratic_energy_text(dim), dim)
    start = np.array([1.0, 0.0, 0.0, 0.0])
    for label in LABELS:
        system = HamiltonianSystem.build(label, quadratic)
        trajectory = integrate(system, start, 0.01, 628, "rk4")
        oracle = expm_taylor(6.28 * omega_matrix(system)) @ start
        ok = ok and np.abs(trajectory.states[-1] - oracle).max() <= 1e-5
        _, drift = energy_drift(trajectory)
        ok = ok and drift <= 1e-8
    _report(5, "rk4 flow within 1e-5 of the exponential oracle", ok, started, 1.0)


def test_criterion_6_implicit_midpoint_is_symplectic():
    started = time.perf_counter()
    ok = True
    dim = BlockDim(1)
    probe = np.array([0.4, 0.3, -0.2, 0.5])
    for text in DEMO_HAMILTONIANS.values():
        field = parse(text, dim)
        for label in LABELS:
            system = HamiltonianSystem.build(label, field)
            residual = symplecticity_residual(system, probe, 0.01, "implicit_midpoint")
            ok = ok and residual <= 1e-6
    _report(6, "midpoint step Jacobian preserves omega", ok, started, 1.0)


def test_criterion_7_dual_gradients_match_finite_differences():
    started = time.perf_counter()
    ok = True
    dim = BlockDim(1)
    rng = np.random.default_rng(7)
    for text in DEMO_HAMILTONIANS.values():
        field = parse(text, dim)
        for _ in range(20):
            point = rng.uniform(-2.0, 2.0, 4)
            dual = gradient(field, point)
            numeric = fd_gradient(field, point, 1e-6)
            ok = ok and np.abs(dual - numeric).max() <= 1e-5
    _report(7, "compiled vs central-difference gradients", ok, started, 1.0)


def test_criterion_8_gradient_flow_negative_control():
    started = time.perf_counter()
    dim = BlockDim(1)
    quadratic = parse(quadratic_energy_text(dim), dim)
    system = HamiltonianSystem.build("F", quadratic)
    descent = lambda x: -np.array(gradient(quadratic, x))
    states = rk4_on_field(descent, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 100)
    trajectory = Trajectory(system, states, 0.01)
    _, drift = energy_drift(trajectory)
    ok = drift > 0.1
    _report(8, "non-Hamiltonian flow trips the energy check", ok, started, 1.0)


def test_criterion_9_cli_end_to_end(tmp_path):
    started = time.perf_counter()
    prefix = tmp_path / "out" / "run1"
    config = {
        "n": 1,
        "structure": "F",
        "hamiltonian": "0.5*(x1^2+x2^2+x3^2+x4^2)",
        "initial": [1, 0, 0, 0],
        "dt": 0.01,
        "steps": 628,
        "method": "rk4",
        "output_prefix": str(prefix),
        "emit_plot": False,
    }
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    code_first = main(["run", str(config_path)])
    csv_first = open(f"{prefix}.trajectory.csv", "rb").read()
    json_first = open(f"{prefix}.diagnostics.json", "rb").read()
    code_second = main(["run", str(config_path)])
    csv_second = open(f"{prefix}.trajectory.csv", "rb").read()
    json_second = open(f"{prefix}.diagnostics.json", "rb").read()

    rows = csv_first.decode("utf-8").splitlines()
    document = json.loads(json_first.decode("utf-8"))
    ok = (
        code_first == 0
        and code_second == 0
        and len(rows) == 1 + 629
        and document["passed"] is True
        and csv_first == csv_second
        and json_first == json_second
    )
    _report(9, "CLI demo run: 629 rows, passing, byte-identical", ok, started, 2.0)
