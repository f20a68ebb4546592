"""Start-up imports: numpy only for the implicit midpoint solve past
4n = NUMPY_SOLVE_SIZE = 8, and never `dataclasses`, `inspect` or `typing`.

Each case runs in a fresh interpreter on the package under src/ and reports
which of those modules are in sys.modules when it is done: an RK4 run at
n = 1 or n = 32, a midpoint run at n = 1 or n = 2, a batch of both,
`verify`, `dump` and a bare `import quatflow` must leave out numpy,
`dataclasses` and `inspect`, and a midpoint run at n = 3 must bring numpy
in, which shows the import sits where it is claimed.  `typing` is checked
under `python -S` only, since a site-packages `.pth` file may import it
first.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# runs the CLI on argv[1:], or only imports the package when there is none
PROBE = """
import json, sys
import quatflow
code = None
if len(sys.argv) > 1:
    from quatflow.cli import main
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted({"numpy", "dataclasses", "inspect", "typing"} & set(sys.modules))}))
"""
HEAVY = {"numpy", "dataclasses", "inspect"}
# (n, form, energy of S = x1^2 + ... + x{4n}^2, method, dt, steps): the runs of the mixed batch benchmark
MIXED_BATCH = (
    (1, "F", "0.5*{S}", "rk4", 0.01, 200),
    (1, "G", "sqrt(1+{S})", "implicit_midpoint", 0.05, 20),
    (2, "H", "0.25*(1+{S})^2", "rk4", 0.01, 100),
    (2, "F", "exp(0.5*{S})", "implicit_midpoint", 0.05, 4),
    (8, "G", "exp(0.5*{S})", "rk4", 0.02, 8),
    (2, "G", "sqrt(1+{S})", "rk4", 0.02, 60),
)


def _probe(cwd: Path, *argv: str, flags: tuple[str, ...] = ()) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _config(tmp_path: Path, method: str, n: int = 1, label: str = "F", steps: int = 100) -> str:
    """The README demo config at block size n: a quadratic from [1, 0, ..., 0]."""
    squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    payload = {
        "n": n, "structure": label, "hamiltonian": f"0.5*({squares})", "initial": [1] + [0] * (4 * n - 1),
        "dt": 0.01, "steps": steps, "method": method, "output_prefix": f"out/{method}", "emit_plot": True,
    }
    path = tmp_path / f"{method}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path.name


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "rk4"],
        ["run", "implicit_midpoint", "1"],
        ["run", "implicit_midpoint", "2"],
        ["verify", "--n", "2"],
        ["dump", "--what", "omega", "--label", "G", "--n", "2"],
        ["dump", "--what", "structure", "--label", "H", "--n", "2", "--space", "cotangent"],
        [],
    ],
    ids=["rk4_run", "midpoint_n1_run", "midpoint_n2_run", "verify", "dump_omega", "dump_structure", "import"],
)
def test_numpy_stays_unloaded(tmp_path, argv):
    method = None
    if argv[:1] == ["run"]:
        method = argv[1]
        argv = ["run", _config(tmp_path, method, *map(int, argv[2:]))]
    result = _probe(tmp_path, *argv)
    assert result["code"] == (0 if argv else None)
    assert HEAVY.isdisjoint(result["loaded"])
    if method:
        assert (tmp_path / "out" / f"{method}.diagnostics.json").exists()


def test_a_mixed_batch_leaves_numpy_unloaded(tmp_path):
    # RK4 at n = 1, 2 and 8 and the midpoint rule at n = 1 and 2, from |x0| = 0.8
    batch = tmp_path / "batch"
    batch.mkdir()
    for k, (n, label, energy, method, dt, steps) in enumerate(MIXED_BATCH, start=1):
        squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
        payload = {
            "n": n, "structure": label, "hamiltonian": energy.format(S=f"({squares})"),
            "initial": [(-1) ** a * 0.8 / math.sqrt(4 * n) for a in range(4 * n)], "dt": dt, "steps": steps,
            "method": method, "output_prefix": f"out/b{k}", "emit_plot": False,
        }
        (batch / f"b{k}.json").write_text(json.dumps(payload), encoding="utf-8")
    result = _probe(tmp_path, "run", "--batch", "batch")
    assert result["code"] == 0
    assert HEAVY.isdisjoint(result["loaded"])
    assert sorted(path.name for path in (tmp_path / "out").glob("*.diagnostics.json")) == [
        f"b{k}.diagnostics.json" for k in range(1, len(MIXED_BATCH) + 1)
    ]


def test_an_rk4_run_at_n32_leaves_numpy_unloaded(tmp_path):
    # Omega's generated functions run at size, and 4n = 128 keeps the probe's
    # product below NUMPY_PRODUCT_SIZE = 160, on floats
    result = _probe(tmp_path, "run", _config(tmp_path, "rk4", 32, label="G", steps=10))
    assert result["code"] == 0
    assert HEAVY.isdisjoint(result["loaded"])
    assert (tmp_path / "out" / "rk4.diagnostics.json").exists()


def test_a_midpoint_run_loads_numpy_for_its_solve(tmp_path):
    # n = 3: the 12x12 Newton system is past NUMPY_SOLVE_SIZE
    result = _probe(tmp_path, "run", _config(tmp_path, "implicit_midpoint", 3))
    assert result["code"] == 0
    # numpy itself imports inspect, so only dataclasses is checked here
    assert "numpy" in result["loaded"] and "dataclasses" not in result["loaded"]


def test_a_bare_import_without_site_loads_none_of_them(tmp_path):
    assert _probe(tmp_path, flags=("-S",)) == {"code": None, "loaded": []}
