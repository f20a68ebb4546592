"""Start-up imports: numpy only for the implicit midpoint solve past
4n = NUMPY_SOLVE_SIZE = 16, and never `dataclasses`, `inspect`, `typing`,
`argparse`, `gettext` or `locale`.

Each case runs in a fresh interpreter on the package the suite imports and
reports which of those modules are in sys.modules when it is done: an RK4
run at n = 1 or n = 32, a midpoint run at n = 1, 2 or 4, a batch of both,
`verify`, `dump`, `import quatflow.cli` and a bare `import quatflow` must
leave out numpy, `dataclasses`, `inspect`, `argparse`, `gettext` and
`locale`, and a midpoint run at n = 5 must bring numpy in, which shows the
import sits where it is claimed.  `typing` is checked under `python -S`
only, since a site-packages `.pth` file may import it first.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatflow

# the directory that holds the package this suite imports
SRC = Path(quatflow.__file__).resolve().parents[1]
# runs the CLI on argv[1:], only imports the CLI on the one argument "cli",
# or only imports the package when there is none
PROBE = """
import json, sys
import quatflow
code = None
if sys.argv[1:] == ["cli"]:
    import quatflow.cli
elif len(sys.argv) > 1:
    from quatflow.cli import main
    code = main(sys.argv[1:])
watched = {"numpy", "dataclasses", "inspect", "typing", "argparse", "gettext", "locale"}
print(json.dumps({"code": code, "loaded": sorted(watched & set(sys.modules))}))
"""
# argparse would bring gettext, and its first message lookup locale, into
# every process; quatflow.cli parses argv from one table of its own
HEAVY = {"numpy", "dataclasses", "inspect", "argparse", "gettext", "locale"}
# (n, form, energy of S = x1^2 + ... + x{4n}^2, method, dt, steps): the runs of the mixed batch benchmark
MIXED_BATCH = (
    (1, "F", "0.5*{S}", "rk4", 0.01, 200),
    (1, "G", "sqrt(1+{S})", "implicit_midpoint", 0.05, 20),
    (2, "H", "0.25*(1+{S})^2", "rk4", 0.01, 100),
    (2, "F", "exp(0.5*{S})", "implicit_midpoint", 0.05, 4),
    (8, "G", "exp(0.5*{S})", "rk4", 0.02, 8),
    (2, "G", "sqrt(1+{S})", "rk4", 0.02, 60),
)
# the midpoint benchmark's run, in the same form
MIDPOINT_N4 = (4, "G", "exp(0.5*{S})", "implicit_midpoint", 0.05, 12)


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


def _radial_config(n, label, energy, method, dt, steps, prefix) -> dict:
    """A benchmark-shaped config: alternating signs at |x0| = 0.8."""
    squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    return {
        "n": n, "structure": label, "hamiltonian": energy.format(S=f"({squares})"),
        "initial": [(-1) ** a * 0.8 / math.sqrt(4 * n) for a in range(4 * n)], "dt": dt, "steps": steps,
        "method": method, "output_prefix": prefix, "emit_plot": False,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "rk4"],
        ["run", "implicit_midpoint", "1"],
        ["run", "implicit_midpoint", "2"],
        ["verify", "--n", "2"],
        ["dump", "--what", "omega", "--label", "G", "--n", "2"],
        ["dump", "--what", "structure", "--label", "H", "--n", "2", "--space", "cotangent"],
        ["cli"],
        [],
    ],
    ids=["rk4_run", "midpoint_n1_run", "midpoint_n2_run", "verify", "dump_omega", "dump_structure", "cli_import",
         "import"],
)
def test_numpy_stays_unloaded(tmp_path, argv):
    method = None
    if argv[:1] == ["run"]:
        method = argv[1]
        argv = ["run", _config(tmp_path, method, *map(int, argv[2:]))]
    result = _probe(tmp_path, *argv)
    assert result["code"] == (None if argv in ([], ["cli"]) else 0)
    assert HEAVY.isdisjoint(result["loaded"])
    if method:
        assert (tmp_path / "out" / f"{method}.diagnostics.json").exists()


def test_a_mixed_batch_leaves_numpy_unloaded(tmp_path):
    # RK4 at n = 1, 2 and 8 and the midpoint rule at n = 1 and 2, from |x0| = 0.8
    batch = tmp_path / "batch"
    batch.mkdir()
    for k, spec in enumerate(MIXED_BATCH, start=1):
        (batch / f"b{k}.json").write_text(json.dumps(_radial_config(*spec, f"out/b{k}")), encoding="utf-8")
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


def test_a_midpoint_run_at_n4_leaves_numpy_unloaded(tmp_path):
    # its 16x16 Newton systems, the probe's 32 solves included, are solved
    # on floats up to NUMPY_SOLVE_SIZE
    (tmp_path / "mid.json").write_text(json.dumps(_radial_config(*MIDPOINT_N4, "out/mid")), encoding="utf-8")
    result = _probe(tmp_path, "run", "mid.json")
    assert result["code"] == 0
    assert HEAVY.isdisjoint(result["loaded"])
    assert (tmp_path / "out" / "mid.diagnostics.json").exists()


def test_a_midpoint_run_loads_numpy_for_its_solve(tmp_path):
    # n = 5: the 20x20 Newton system is past NUMPY_SOLVE_SIZE
    result = _probe(tmp_path, "run", _config(tmp_path, "implicit_midpoint", 5))
    assert result["code"] == 0
    # numpy itself imports inspect, so only dataclasses is checked here
    assert "numpy" in result["loaded"] and "dataclasses" not in result["loaded"]


def test_a_bare_import_without_site_loads_none_of_them(tmp_path):
    assert _probe(tmp_path, flags=("-S",)) == {"code": None, "loaded": []}
