import json
import math

import numpy as np
import pytest

from quatflow import (
    BlockDim,
    EvaluationError,
    HamiltonianSystem,
    StructureTensor,
    Trajectory,
    energy_drift,
    eom_residual,
    gradient,
    integrate,
    parse,
    symplecticity_residual,
)
from quatflow import diagnostics, dynamics
from quatflow.cli import main
from quatflow.diagnostics import (
    JACOBIAN_PROBE_STEP,
    SYMPLECTICITY_LIMIT,
    algebra_residuals,
    default_thresholds,
    step_jacobian,
)
from oracles import cold_step_jacobian, rk4_on_field

QUAD = "0.5*(x1^2 + x2^2 + x3^2 + x4^2)"


def _system(label="F", text=QUAD):
    return HamiltonianSystem.build(label, parse(text, BlockDim(1)))


def _probes(trajectory, system):
    """(energy drift max, EOM residual, symplecticity residual) of an rk4 run."""
    _, drift = energy_drift(trajectory)
    eom = eom_residual(trajectory)
    symplectic = symplecticity_residual(system, trajectory.states[0], trajectory.step, "rk4")
    return drift, eom, symplectic


def _within(probes, thresholds):
    keys = ("energy_drift_max", "eom_residual_max", "symplecticity_residual")
    return all(value <= thresholds[key] for value, key in zip(probes, keys))


def _run_cli(tmp_path, *flags, **config):
    """Run one config through `quatflow run` with flags: (exit code, diagnostics document)."""
    prefix = tmp_path / "out" / "run"
    payload = dict(
        n=1, structure="F", hamiltonian=QUAD, initial=[1, 0, 0, 0], dt=0.01, steps=100,
        method="rk4", output_prefix=str(prefix), emit_plot=False,
    )
    payload.update(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["run", *flags, str(path)])
    return code, json.loads(prefix.with_name("run.diagnostics.json").read_text(encoding="utf-8"))


def test_energy_drift_is_zero_for_constant_energy():
    system = _system(text="5")
    trajectory = integrate(system, np.ones(4), 0.1, 20, "rk4")
    series, worst = energy_drift(trajectory)
    assert worst == 0.0
    assert series == [0.0] * 21


def test_energy_drift_of_rk4_on_the_rotation():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 1000, "rk4")
    _, worst = energy_drift(trajectory)
    assert worst <= 1e-9


def test_gradient_descent_flow_fails_the_energy_check():
    # negative control: x' = -grad H decays the energy as e^{-2t}, which
    # the drift check must flag
    system = _system()
    field = lambda x: -np.array(gradient(system.hamiltonian, x))
    states = rk4_on_field(field, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 100)
    trajectory = Trajectory(system, states, 0.01)
    series, worst = energy_drift(trajectory)
    assert worst > 0.1
    expected_final_drift = 0.5 * (1.0 - math.exp(-2.0))
    assert worst == pytest.approx(expected_final_drift, abs=1e-4)
    assert (np.diff(series) >= 0).all()  # decay is monotone


def test_energy_drift_reports_failing_point_index():
    system = _system(text="1/x1")
    trajectory = Trajectory(system, [[1.0, 0, 0, 0], [0.0, 0, 0, 0]], 0.5)
    with pytest.raises(EvaluationError) as excinfo:
        energy_drift(trajectory)
    assert "'1.0/x1'" in str(excinfo.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_energy_that_overflows_at_finite_states_drifts_nan_without_a_warning():
    # the gradient 4e240 stays finite, but H = 1e320 reads inf at every point
    system = _system(text="x1*x1*x1*x1")
    trajectory = integrate(system, np.array([1e80, 0.0, 0.0, 0.0]), 0.01, 10, "rk4")
    series, worst = energy_drift(trajectory)
    assert len(series) == 11
    assert np.isnan(series).all()
    assert math.isnan(worst)


# each probe's maximum is NaN once one of its entries is, wherever that entry
# sits, as np.max read it; Python's max would skip a NaN that is not first
NAN_AT = {"first": 0, "middle": 2, "last": -1}


@pytest.mark.parametrize("where", NAN_AT)
def test_energy_drift_is_nan_when_one_energy_is(where):
    states = [[1.0, 0.0, 0.0, 0.0] for _ in range(5)]
    trajectory = Trajectory(_system(text="x1"), states, 0.1)
    assert energy_drift(trajectory) == ([0.0] * 5, 0.0)
    states[NAN_AT[where]][0] = math.nan
    series, worst = energy_drift(Trajectory(_system(text="x1"), states, 0.1))
    assert math.isnan(series[NAN_AT[where]])
    assert math.isnan(worst)


@pytest.mark.parametrize("where", NAN_AT)
def test_eom_residual_is_nan_when_one_entry_is(where, monkeypatch):
    # five interior points at rest; the gradient, so the field, is NaN in one
    # component of one of them, injected where the probe looks gradient up
    system = _system(text="0")
    trajectory = Trajectory(system, [[1.0, 2.0, 3.0, 4.0]] * 7, 0.1)
    assert eom_residual(trajectory) == 0.0
    points = []

    def nan_gradient(field, point):
        points.append(point)
        grad = [0.0] * 4
        if len(points) - 1 == range(5)[NAN_AT[where]]:
            grad[NAN_AT[where]] = math.nan
        return grad

    monkeypatch.setattr(dynamics, "gradient", nan_gradient)
    assert math.isnan(eom_residual(trajectory))
    assert len(points) == 5


@pytest.mark.parametrize("product_size", [160, 0], ids=["python", "numpy"])
@pytest.mark.parametrize("where", NAN_AT)
def test_symplecticity_residual_is_nan_when_one_jacobian_entry_is(where, product_size, monkeypatch):
    # the identity is the Jacobian of a symplectic map: every entry of J^T Omega J - Omega is 0
    monkeypatch.setattr(diagnostics, "NUMPY_PRODUCT_SIZE", product_size)
    jacobian = np.eye(4)
    monkeypatch.setattr(diagnostics, "step_jacobian", lambda *args: [list(column) for column in jacobian.T])
    assert symplecticity_residual(_system(), np.ones(4), 0.01, "rk4") == 0.0
    jacobian[NAN_AT[where], NAN_AT[where]] = math.nan
    assert math.isnan(symplecticity_residual(_system(), np.ones(4), 0.01, "rk4"))


def test_eom_residual_on_the_exact_rotation():
    system = _system()
    dt = 0.001
    states = [
        np.array([math.cos(k * dt), math.sin(k * dt), 0.0, 0.0]) for k in range(200)
    ]
    trajectory = Trajectory(system, states, dt)
    assert eom_residual(trajectory) <= 1e-6


def test_eom_residual_zero_for_a_constant_flow():
    system = _system(text="0")
    trajectory = integrate(system, np.ones(4), 0.05, 10, "rk4")
    assert eom_residual(trajectory) == 0.0


def test_an_unknown_method_raises_integrates_value_error_everywhere():
    system, point = _system(), [0.1, 0.2, 0.3, 0.4]
    calls = [lambda: integrate(system, point, 0.1, 1, "euler"), lambda: step_jacobian(system, point, 0.1, "euler"),
             lambda: symplecticity_residual(system, point, 0.1, "euler"), lambda: default_thresholds("euler", 0.1)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"method must be one of {dynamics.METHODS}, got 'euler'"


def test_eom_residual_needs_three_points():
    system = _system()
    trajectory = integrate(system, np.ones(4), 0.1, 1, "rk4")
    with pytest.raises(ValueError):
        eom_residual(trajectory)


def test_full_report_on_a_healthy_midpoint_run(tmp_path):
    code, document = _run_cli(tmp_path, method="implicit_midpoint")
    assert code == 0
    assert document["passed"] is True
    assert document["energy_drift_max"] <= 1e-10
    assert document["eom_residual_max"] <= 0.01 ** 2
    assert document["symplecticity_residual"] <= 1e-6
    assert document["algebra_residual_triple_product"] == 0
    assert len(document["energy_drift_series"]) == 101


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_fine_step_rk4_run_meets_all_documented_bounds(label):
    system = _system(label)
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.001, 1000, "rk4")
    drift, eom, symplectic = _probes(trajectory, system)
    assert eom <= 1e-6
    assert drift <= 1e-9
    assert symplectic <= 1e-6


def test_full_report_zero_hamiltonian_edge(tmp_path):
    code, document = _run_cli(tmp_path, hamiltonian="0", initial=[1, 1, 1, 1], steps=5)
    assert code == 0
    assert document["energy_drift_max"] == 0.0
    assert document["eom_residual_max"] == 0.0
    assert document["symplecticity_residual"] <= 1e-12
    assert all(v == 0 for k, v in document.items() if k.startswith("algebra_residual_"))


def test_full_report_is_deterministic():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 20, "rk4")
    first_series, _ = energy_drift(trajectory)
    second_series, _ = energy_drift(trajectory)
    assert np.array_equal(first_series, second_series)
    assert _probes(trajectory, system) == _probes(trajectory, system)
    assert algebra_residuals(system) == algebra_residuals(system)


def test_diagnostics_do_not_mutate_inputs():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 10, "rk4")
    before = np.array(trajectory.states)
    _probes(trajectory, system)
    algebra_residuals(system)
    assert np.array(trajectory.states).tobytes() == before.tobytes()


def test_report_passes_respects_tolerance_scale():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.5, 10, "rk4")
    probes = _probes(trajectory, system)
    strict = default_thresholds("rk4", 0.5)
    assert probes[0] > strict["energy_drift_max"]  # coarse dt violates the drift ceiling
    assert not _within(probes, strict)
    relaxed = default_thresholds("rk4", 0.5, tolerance_scale=1e9)
    assert _within(probes, relaxed)


def test_a_check_equal_to_its_threshold_passes(tmp_path):
    # a coarse run's drift fails the default gate; scaled so that its ceiling is exactly that drift, it passes
    code, document = _run_cli(tmp_path, dt=0.2, steps=10)
    drift = document["energy_drift_max"]
    scale = drift / diagnostics.ENERGY_DRIFT_LIMITS["rk4"]
    assert code == 2 and default_thresholds("rk4", 0.2, scale)["energy_drift_max"] == drift
    code, document = _run_cli(tmp_path, "--tolerance-scale", repr(scale), dt=0.2, steps=10)
    assert document["energy_drift_max"] == document["threshold_energy_drift_max"] == drift
    assert code == 0 and document["passed"] is True


def test_report_as_dict_is_flat(tmp_path):
    code, document = _run_cli(tmp_path, steps=5)
    assert code == 0
    assert document["algebra_residual_triple_product"] == 0
    assert isinstance(document["energy_drift_series"], list)
    assert set(map(type, document.values())) <= {float, int, bool, str, list}


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_cli_and_library_report_the_same_diagnostics(tmp_path, method):
    config = dict(
        structure="G", hamiltonian="x1*x2 + x3^4 + 0.5*x4^2", initial=[0.3, 0.2, 0.5, 0.1],
        dt=0.05, steps=40, method=method,
    )
    _, document = _run_cli(tmp_path, **config)
    system = _system("G", config["hamiltonian"])
    trajectory = integrate(system, np.array(config["initial"]), config["dt"], config["steps"], method)
    series, drift = energy_drift(trajectory)
    assert document["energy_drift_max"] == drift
    assert document["energy_drift_series"] == series
    assert document["eom_residual_max"] == eom_residual(trajectory)
    assert document["symplecticity_residual"] == symplecticity_residual(
        system, trajectory.states[0], config["dt"], method
    )


# --- the step-map probe ------------------------------------------------------

def _layer_system(label: str, n: int) -> HamiltonianSystem:
    squares = " + ".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    return HamiltonianSystem.build(label, parse(f"0.5*({squares}) + 0.1*x1^4 + 0.05*sin(x2)", BlockDim(n)))


def _point(n: int, seed: int, radius: float = 0.8) -> np.ndarray:
    direction = np.random.default_rng(seed).standard_normal(4 * n)
    return radius * direction / np.linalg.norm(direction)


class _ProbeSteps:
    """Wraps a stepper inside step_jacobian: each step's point, start and gradient calls."""

    def __init__(self, monkeypatch, method: str):
        self.points, self.starts, self.gradient_calls = [], [], []
        self.total_calls = 0
        stepper = dynamics._STEPPERS[method]

        def counted_gradient(field, point):
            self.total_calls += 1
            return gradient(field, point)

        def recorded_step(system, x, dt, **options):
            before = self.total_calls
            result = stepper(system, x, dt, **options)
            self.points.append(np.array(x))
            self.starts.append(options.get("start"))
            self.gradient_calls.append(self.total_calls - before)
            return result

        monkeypatch.setattr(dynamics, "gradient", counted_gradient)
        monkeypatch.setitem(dynamics._STEPPERS, method, recorded_step)


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_probe_jacobian_agrees_with_cold_started_steps(method, label, n):
    system = _layer_system(label, n)
    point = _point(n, seed=n)
    warm = np.array(step_jacobian(system, point, 0.05, method)).T  # columns, as the oracle's rows
    cold = cold_step_jacobian(system, point, 0.05, method, JACOBIAN_PROBE_STEP)
    if method == "rk4":
        assert np.array_equal(warm, cold)  # RK4 steps take no start
    else:
        assert np.abs(warm - cold).max() <= 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_the_numpy_product_reads_the_python_products_residual(method, n, monkeypatch):
    # past NUMPY_PRODUCT_SIZE coordinates J^T Omega J runs on numpy: the same
    # Jacobian, summed in another order, so only the last bits may move
    system, point = _layer_system("H", n), _point(n, seed=20 + n)
    python = symplecticity_residual(system, point, 0.05, method)
    monkeypatch.setattr(diagnostics, "NUMPY_PRODUCT_SIZE", 4 * n - 1)
    assert abs(symplecticity_residual(system, point, 0.05, method) - python) <= 1e-14
    assert python <= SYMPLECTICITY_LIMIT


@pytest.mark.parametrize("n", [1, 2, 4])
def test_probe_midpoint_steps_do_whole_newton_iterations(n, monkeypatch):
    # the first step in each direction starts cold, the rest from their neighbour
    steps = _ProbeSteps(monkeypatch, "implicit_midpoint")
    step_jacobian(_layer_system("G", n), _point(n, seed=10 + n), 0.05, "implicit_midpoint")
    assert len(steps.gradient_calls) == 8 * n
    assert all(calls > 0 and calls % (4 * n + 1) == 0 for calls in steps.gradient_calls)
    assert [start is None for start in steps.starts] == [True, True] + [False] * (8 * n - 2)


def test_warm_started_probe_takes_at_most_two_newton_iterations_a_warm_step(monkeypatch):
    # the midpoint benchmark's system, where a cold step takes 3 Newton
    # iterations and a warm one 2, each 4n + 1 = 17 gradient calls: the
    # probe's 2 cold and 30 warm steps take 66 iterations, 32 cold steps 96
    squares = "+".join(f"x{a}^2" for a in range(1, 17))
    system = HamiltonianSystem.build("G", parse(f"exp(0.5*({squares}))", BlockDim(4)))
    point = _point(4, seed=4)
    steps = _ProbeSteps(monkeypatch, "implicit_midpoint")
    step_jacobian(system, point, 0.05, "implicit_midpoint")
    warm = sum(steps.gradient_calls)
    before = steps.total_calls
    cold_step_jacobian(system, point, 0.05, "implicit_midpoint", JACOBIAN_PROBE_STEP)
    cold = steps.total_calls - before
    assert warm <= (2 * 3 + 30 * 2) * 17
    assert warm <= (2 * 3 + 30 * 2) / (32 * 3) * cold


@pytest.mark.parametrize(
    "radius, h",
    [(0.5, 2.0**-17), (1.0, 2.0**-17), (1.5, 2.0**-16), (2.0, 2.0**-16), (2.0 + 1e-15, 2.0**-15), (1e3, 2.0**-7)],
)
def test_probe_step_is_the_smallest_power_of_two_scaling(radius, h, monkeypatch):
    steps = _ProbeSteps(monkeypatch, "rk4")
    base = np.array([radius, 0.0, 0.0, 0.0])
    step_jacobian(_system("G"), base, 0.01, "rk4")
    assert steps.points[0][0] - base[0] == h
    assert steps.points[1][0] - base[0] == -h


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e7])
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_probe_passes_a_symplectic_flow_far_from_the_origin(method, scale):
    # a fixed step of 2^-17 is below the rounding of states of size 1e7,
    # where it read 5e-5 on this exactly symplectic linear flow
    point = np.array([scale, 0.0, 0.0, 0.0])
    assert symplecticity_residual(_system("G"), point, 0.01, method) <= SYMPLECTICITY_LIMIT


@pytest.mark.parametrize("point", [[1e155, 3e154, 0.0, 0.0], [1e200, 3e199, 0.0, 0.0]])
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_probe_passes_a_translation_past_the_overflow_of_a_squared_norm(method, point):
    # |x|^2 overflows past |x| ~ 1.34e154: read through it, the probe step
    # stayed 2^-17, vanished in the rounding of x and gave J = 0, residual 1
    system = _system("F", text="x1 + 2*x2 - x3 + 0.5*x4")
    assert symplecticity_residual(system, np.array(point), 0.01, method) <= SYMPLECTICITY_LIMIT


def test_cli_probe_at_huge_scale_prints_nothing_to_stderr(tmp_path, capsys):
    code, document = _run_cli(
        tmp_path, hamiltonian="x1 + 2*x2 - x3 + 0.5*x4", initial=[1e155, 3e154, 0, 0], steps=3
    )
    # only the absolute dt^2 gate fails: central differences of states of
    # size 1e155 carry their rounding
    assert code == 2
    assert document["eom_residual_max"] > document["threshold_eom_residual_max"]
    assert document["energy_drift_max"] <= document["threshold_energy_drift_max"]
    assert document["symplecticity_residual"] <= SYMPLECTICITY_LIMIT
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_residual_that_overflows_reads_infinity_without_a_warning():
    # the perturbed steps stay finite, but J^T Omega J overflows
    system = _system("F", text="1e75*x1*x2")
    residual = symplecticity_residual(system, np.array([1e-290, 1e-290, 0.0, 0.0]), 1e-5, "rk4")
    assert math.isinf(residual)
    assert not residual <= SYMPLECTICITY_LIMIT


@pytest.mark.parametrize("space", ["tangent", "cotangent"])
def test_run_with_a_corrupted_triple_fails_on_the_algebra_alone(tmp_path, monkeypatch, capsys, space):
    real_triple = diagnostics.structure_triple

    def corrupted_triple(which, dim):
        f, g, h = real_triple(which, dim)
        if which == space:
            h = StructureTensor(h.kind, dim, f.order, f.signs)  # F relabelled as H
        return f, g, h

    monkeypatch.setattr(diagnostics, "structure_triple", corrupted_triple)
    code, document = _run_cli(tmp_path)
    # F G F = G, so only FGH + I is off, by 2, on one space: the worst case over both
    assert code == 2
    assert document["passed"] is False
    assert document["algebra_residual_triple_product"] == 2
    assert document["algebra_residual_f_squared"] == 0
    assert document["algebra_residual_g_squared"] == 0
    assert document["algebra_residual_h_squared"] == 0
    for key in ("energy_drift_max", "eom_residual_max", "symplecticity_residual"):
        assert document[key] <= document[f"threshold_{key}"]
    assert capsys.readouterr().err == ""
