"""Start-up imports: numpy only for the implicit midpoint solve past
4n = NUMPY_SOLVE_SIZE = 8, and never `dataclasses`, `inspect` or `typing`.

Each case runs in a fresh interpreter on the package under src/ and reports
which of those modules are in sys.modules when it is done: an RK4 run, a
midpoint run at n = 1 or n = 2, `verify`, `dump` and a bare
`import quatflow` must leave out numpy, `dataclasses` and `inspect`, and a
midpoint run at n = 3 must bring numpy in, which shows the import sits
where it is claimed.  `typing` is checked under `python -S` only, since a
site-packages `.pth` file may import it first.
"""

import json
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


def _probe(cwd: Path, *argv: str, flags: tuple[str, ...] = ()) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _config(tmp_path: Path, method: str, n: int = 1) -> str:
    """The README demo config at block size n: a quadratic from [1, 0, ..., 0]."""
    squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    payload = {
        "n": n, "structure": "F", "hamiltonian": f"0.5*({squares})", "initial": [1] + [0] * (4 * n - 1),
        "dt": 0.01, "steps": 100, "method": method, "output_prefix": f"out/{method}", "emit_plot": True,
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


def test_a_midpoint_run_loads_numpy_for_its_solve(tmp_path):
    # n = 3: the 12x12 Newton system is past NUMPY_SOLVE_SIZE
    result = _probe(tmp_path, "run", _config(tmp_path, "implicit_midpoint", 3))
    assert result["code"] == 0
    # numpy itself imports inspect, so only dataclasses is checked here
    assert "numpy" in result["loaded"] and "dataclasses" not in result["loaded"]


def test_a_bare_import_without_site_loads_none_of_them(tmp_path):
    assert _probe(tmp_path, flags=("-S",)) == {"code": None, "loaded": []}
