import json
import math

import numpy as np
import pytest

from quatflow import (
    BlockDim,
    HamiltonianSystem,
    Trajectory,
    energy_drift,
    eom_residual,
    gradient,
    integrate,
    parse,
    symplecticity_residual,
)
from quatflow.cli import main
from quatflow.diagnostics import DiagnosticsError, algebra_residuals, default_thresholds
from oracles import rk4_on_field

QUAD = "0.5*(x1^2 + x2^2 + x3^2 + x4^2)"


def _system(label="F", text=QUAD):
    return HamiltonianSystem.build(label, parse(text, BlockDim(1)))


def _probes(trajectory, system):
    """(energy drift max, EOM residual, symplecticity residual) of a run."""
    _, drift = energy_drift(trajectory, system.hamiltonian)
    eom = eom_residual(trajectory, system)
    symplectic = symplecticity_residual(system, trajectory.states[0], trajectory.step, trajectory.method)
    return drift, eom, symplectic


def _within(probes, thresholds):
    keys = ("energy_drift_max", "eom_residual_max", "symplecticity_residual")
    return all(value <= thresholds[key] for value, key in zip(probes, keys))


def _run_cli(tmp_path, **config):
    """Run one config through `quatflow run`: (exit code, diagnostics document)."""
    prefix = tmp_path / "out" / "run"
    payload = dict(
        n=1, structure="F", hamiltonian=QUAD, initial=[1, 0, 0, 0], dt=0.01, steps=100,
        method="rk4", output_prefix=str(prefix), emit_plot=False,
    )
    payload.update(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["run", str(path)])
    return code, json.loads(prefix.with_name("run.diagnostics.json").read_text(encoding="utf-8"))


def test_energy_drift_is_zero_for_constant_energy():
    system = _system(text="5")
    trajectory = integrate(system, np.ones(4), 0.1, 20, "rk4")
    series, worst = energy_drift(trajectory, system.hamiltonian)
    assert worst == 0.0
    assert not series.any()
    assert len(series) == 21


def test_energy_drift_of_rk4_on_the_rotation():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 1000, "rk4")
    _, worst = energy_drift(trajectory, system.hamiltonian)
    assert worst <= 1e-9


def test_gradient_descent_flow_fails_the_energy_check():
    # negative control: x' = -grad H decays the energy as e^{-2t}, which
    # the drift check must flag
    system = _system()
    field = lambda x: -gradient(system.hamiltonian, x).components
    states = rk4_on_field(field, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 100)
    trajectory = Trajectory(system, states, 0.01, "rk4")
    series, worst = energy_drift(trajectory, system.hamiltonian)
    assert worst > 0.1
    expected_final_drift = 0.5 * (1.0 - math.exp(-2.0))
    assert worst == pytest.approx(expected_final_drift, abs=1e-4)
    assert (np.diff(series) >= 0).all()  # decay is monotone


def test_energy_drift_reports_failing_point_index():
    system = _system(text="1/x1")
    trajectory = Trajectory(system, [[1.0, 0, 0, 0], [0.0, 0, 0, 0]], 0.5, "rk4")
    with pytest.raises(DiagnosticsError) as excinfo:
        energy_drift(trajectory, system.hamiltonian)
    assert "point 1" in str(excinfo.value)


def test_eom_residual_on_the_exact_rotation():
    system = _system()
    dt = 0.001
    states = [
        np.array([math.cos(k * dt), math.sin(k * dt), 0.0, 0.0]) for k in range(200)
    ]
    trajectory = Trajectory(system, states, dt, "rk4")
    assert eom_residual(trajectory, system) <= 1e-6


def test_eom_residual_zero_for_a_constant_flow():
    system = _system(text="0")
    trajectory = integrate(system, np.ones(4), 0.05, 10, "rk4")
    assert eom_residual(trajectory, system) == 0.0


def test_eom_residual_needs_three_points():
    system = _system()
    trajectory = integrate(system, np.ones(4), 0.1, 1, "rk4")
    with pytest.raises(ValueError):
        eom_residual(trajectory, system)


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
    first_series, _ = energy_drift(trajectory, system.hamiltonian)
    second_series, _ = energy_drift(trajectory, system.hamiltonian)
    assert np.array_equal(first_series, second_series)
    assert _probes(trajectory, system) == _probes(trajectory, system)
    assert algebra_residuals(system) == algebra_residuals(system)


def test_diagnostics_do_not_mutate_inputs():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 10, "rk4")
    before = trajectory.states.copy()
    _probes(trajectory, system)
    algebra_residuals(system)
    assert np.array_equal(trajectory.states, before)


def test_report_passes_respects_tolerance_scale():
    system = _system()
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.5, 10, "rk4")
    probes = _probes(trajectory, system)
    strict = default_thresholds("rk4", 0.5)
    assert probes[0] > strict["energy_drift_max"]  # coarse dt violates the drift ceiling
    assert not _within(probes, strict)
    relaxed = default_thresholds("rk4", 0.5, tolerance_scale=1e9)
    assert _within(probes, relaxed)


def test_report_as_dict_is_flat(tmp_path):
    code, document = _run_cli(tmp_path, steps=5)
    assert code == 0
    assert document["algebra_residual_triple_product"] == 0
    assert isinstance(document["energy_drift_series"], list)
    assert set(map(type, document.values())) <= {float, int, bool, str, list}
