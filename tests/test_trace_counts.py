"""The call counts the benchmark's tracer checks, from the program itself.

bench/layers.py::expected_counts derives, from a run's shape alone, how
often the layers are called; a traced benchmark run fails when a count
moves.  These tests keep that contract in tier 1 without importing bench/:
counters wrap the names the program's callers look up, and cli.run_config
runs a small config under each method.
"""

import json
from collections import Counter

import pytest

from quatflow import cli, diagnostics, dynamics
from quatflow.config import load_config


def _config(tmp_path, n: int, method: str, steps: int):
    squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    payload = {
        "n": n,
        "structure": "G",
        "hamiltonian": f"0.5*({squares})",
        "initial": [0.4 / n] * (4 * n),
        "dt": 0.01,
        "steps": steps,
        "method": method,
        "output_prefix": str(tmp_path / "out" / "run"),
        "emit_plot": False,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_config(path)


@pytest.fixture
def counted(monkeypatch):
    """Counts of gradient and evaluate calls, and the gradient calls of each step."""
    counts = Counter()
    step_gradients = {"rk4": [], "implicit_midpoint": []}

    def counter(function, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dynamics, "gradient", counter(dynamics.gradient, "gradient"))
    monkeypatch.setattr(diagnostics, "evaluate", counter(diagnostics.evaluate, "evaluate"))
    monkeypatch.setattr(cli, "evaluate", counter(cli.evaluate, "evaluate"))
    for method, stepper in list(dynamics._STEPPERS.items()):

        def step(*args, stepper=stepper, method=method, **kwargs):
            before = counts["gradient"]
            try:
                return stepper(*args, **kwargs)
            finally:
                step_gradients[method].append(counts["gradient"] - before)

        monkeypatch.setitem(dynamics._STEPPERS, method, step)
    return counts, step_gradients


@pytest.mark.parametrize("n", [1, 2, 8])
def test_rk4_run_makes_the_analytic_number_of_calls(tmp_path, counted, n):
    counts, step_gradients = counted
    steps = 20
    assert cli.run_config(_config(tmp_path, n, "rk4", steps)) == 0
    probe = 8 * n  # the symplecticity probe steps 2 * 4n perturbed points
    # four per step, four per probe step, one per interior point for the EOM
    assert counts["gradient"] == 4 * steps + 4 * probe + (steps - 1)
    # once per CSV row and once per point for the drift
    assert counts["evaluate"] == 2 * (steps + 1)
    assert step_gradients["rk4"] == [4] * (steps + probe)
    assert step_gradients["implicit_midpoint"] == []


@pytest.mark.parametrize("n", [1, 2])
def test_midpoint_run_makes_whole_newton_iterations(tmp_path, counted, n):
    counts, step_gradients = counted
    steps = 5
    assert cli.run_config(_config(tmp_path, n, "implicit_midpoint", steps)) == 0
    per_step = step_gradients["implicit_midpoint"]
    assert len(per_step) == steps + 8 * n
    # a Newton iteration evaluates the field at the midpoint and at 4n bumped points;
    # a run's path, as bench/layers.py counts it, so through the public step
    assert all(count > 0 and count % (4 * n + 1) == 0 for count in per_step)
    assert counts["gradient"] == sum(per_step) + (steps - 1)
    assert counts["evaluate"] == 2 * (steps + 1)
    assert step_gradients["rk4"] == []
