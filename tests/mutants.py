"""Mutation check: each named one-line mutant of src/ must fail the tier-1 tests it targets.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only those named

Each mutant replaces one text of one module under src/quatflow/ with
another.  The original text must occur exactly once in that module, so a
refactor that moves or rewrites it makes the mutant an error instead of
letting it go quiet.  For each mutant, src/ is copied to a temporary
directory, the mutation is applied to the copy, and the mutant's test
files run on it under pytest, in a fresh interpreter whose PYTHONPATH puts
the copy first; the working directory is that temporary directory, so
neither pytest nor Hypothesis writes into the repository.  A mutant is
killed when some test fails.  Tests that start their own interpreter
(test_cli's memory-cap and `python -m quatflow` runs, test_lazy_numpy) put
the directory of the package they imported on its PYTHONPATH, so they run
the mutant too.

First the unmutated copy runs every targeted file, which must pass, and
the copy must be the package those runs import.  The check then fails
(exit 1) on a mutant that survives, unless it is listed as equivalent with
the reason it behaves as the original does; on an equivalent mutant that
is killed, since its reason is then wrong; and on a mutation that no
longer matches.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


class Mutant(NamedTuple):
    """In src/quatflow/<module>, before becomes after; tests are the tier-1 files that must catch it."""

    name: str
    module: str
    before: str
    after: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why the mutant behaves as the original does; empty if it must be killed


MUTANTS = [
    Mutant("omega-apply-sign", "structures.py",
           """f"{'-' if s < 0 else ''}v[{o}]\"""", """f"{'-' if (s < 0) != (o == 0) else ''}v[{o}]\"""",
           ("test_structures.py", "test_dynamics.py")),
    Mutant("rk4-operator-sign", "dynamics.py",
           '("+" if s > 0 else "-", o)', '("+" if (s > 0) != (o == 0) else "-", o)',
           ("test_dynamics.py",)),
    Mutant("rk4-weight", "dynamics.py", "2.0*b{o} + 2.0*c{o}", "2.0*b{o} + c{o}", ("test_dynamics.py",)),
    Mutant("rk4-stage-index", "dynamics.py",
           "{names('c')}, = gradient(hamiltonian, {point('b')})", "{names('c')}, = gradient(hamiltonian, {point('a')})",
           ("test_dynamics.py",)),
    Mutant("rk4-last-step", "dynamics.py", '"    h = dt / 6.0",', '"    h = dt / 6.0 * 1.0000001",', ("test_dynamics.py",)),
    Mutant("midpoint-half-step", "dynamics.py",
           "mid = [0.5 * (a + b) for a, b in zip(x, y)]", "mid = [0.5 * (b + b) for a, b in zip(x, y)]",
           ("test_dynamics.py",)),
    Mutant("newton-matrix-half-step", "dynamics.py", "half = 0.5 * dt", "half = dt", ("test_bit_identity.py",)),
    Mutant("newton-update-sign", "dynamics.py",
           "y = [b + d for b, d in zip(y, delta)]", "y = [b - d for b, d in zip(y, delta)]", ("test_dynamics.py",)),
    Mutant("newton-stop-rounding", "dynamics.py", "<= 2.0 ** -52 * size", "<= 2.0 ** -30 * size",
           ("test_dynamics.py",)),
    Mutant("newton-stop-contraction", "dynamics.py",
           "(theta < 1.0 and theta / (1.0 - theta) * norm", "(theta / (1.0 - theta) * norm", ("test_dynamics.py",)),
    Mutant("probe-step", "diagnostics.py",
           "h = math.ldexp(JACOBIAN_PROBE_STEP, exponent - (mantissa == 0.5))", "h = JACOBIAN_PROBE_STEP",
           ("test_diagnostics.py",)),
    Mutant("probe-difference", "diagnostics.py", "(f - b) / (2.0 * h)", "(f - b) / h", ("test_diagnostics.py",)),
    Mutant("eom-row-sign", "diagnostics.py", "{'+' if s < 0 else '-'} g[{o}]", "{'-' if s < 0 else '+'} g[{o}]",
           ("test_diagnostics.py",)),
    Mutant("drift-reference-row", "diagnostics.py", "abs(energy - energies[0])", "abs(energy - energies[1])",
           ("test_diagnostics.py",)),
    Mutant("gate-boundary", "cli.py", "checks[key] <= thresholds[key]", "checks[key] < thresholds[key]",
           ("test_cli.py", "test_diagnostics.py")),
    Mutant("option-dash-value", "cli.py", "if text is None:", 'if text is None or text.startswith("-"):',
           ("test_cli.py",)),
    Mutant("cli-imports-argparse", "cli.py", "import json\n", "import argparse\nimport json\n",
           ("test_lazy_numpy.py",)),
    Mutant("back-product-factor", "expressions.py",
           "stack.append((right, _times(adjoint, left.expr), negated))",
           "stack.append((right, _times(adjoint, right.expr), negated))",
           ("test_gradient_kernel.py",)),
    Mutant("back-cos-sign", "expressions.py",
           'negated != (node.name == "cos")', 'negated != (node.name == "sin")', ("test_gradient_kernel.py",)),
    Mutant("back-quotient-sign", "expressions.py",
           "value.expr)} / {right.expr}\", not negated)", "value.expr)} / {right.expr}\", negated)",
           ("test_gradient_kernel.py",)),
    Mutant("kernel-square-pow", "expressions.py", '2.0: f"{u} * {u}"', '2.0: f"{u} ** 2.0"', ("test_gradient_kernel.py",)),
    Mutant("to-floats-bytes", "structures.py",
           "_NOT_POINTS = (str, bytes, bytearray, Mapping, Set)", "_NOT_POINTS = (str, bytearray, Mapping, Set)",
           ("test_dynamics.py",)),
    Mutant("to-floats-text", "structures.py",
           "_NOT_POINTS = (str, bytes, bytearray, Mapping, Set)", "_NOT_POINTS = (bytes, bytearray, Mapping, Set)",
           ("test_dynamics.py",),
           equivalent="a text reaches copysign, which refuses each of its characters as it refuses the whole text,"
                      " so to_floats raises the same ValueError"),
]


def _copy_src(scratch: Path) -> Path:
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
            "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(src: Path, cwd: Path, tests, *flags: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *flags,
            *(str(TESTS / name) for name in tests)]
    return subprocess.run(argv, cwd=cwd, env=_env(src), capture_output=True, text=True)


def mutate(src: Path, mutant: Mutant) -> None:
    """Apply mutant to the copy under src; ValueError unless its text occurs exactly once."""
    path = src / "quatflow" / mutant.module
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.before)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.before!r} occurs {count} times in {mutant.module}, not once")
    path.write_text(text.replace(mutant.before, mutant.after), encoding="utf-8")


def baseline(mutants: list[Mutant]) -> str | None:
    """None if the unmutated copy is the imported package and passes every targeted file, else why not."""
    with tempfile.TemporaryDirectory() as scratch:
        src = _copy_src(Path(scratch))
        imported = subprocess.run([sys.executable, "-c", "import quatflow; print(quatflow.__file__)"],
                                  cwd=scratch, env=_env(src), capture_output=True, text=True)
        if not imported.stdout.strip().startswith(str(src)):
            return f"the runs import {imported.stdout.strip() or imported.stderr.strip()}, not the copy under {src}"
        tests = sorted({name for mutant in mutants for name in mutant.tests})
        completed = _pytest(src, Path(scratch), tests)
        if completed.returncode != 0:
            return f"the unmutated copy fails {' '.join(tests)}:\n{completed.stdout[-2000:]}"
    return None


def run(mutant: Mutant) -> str:
    """'killed' or 'survived'; any other pytest outcome raises RuntimeError."""
    with tempfile.TemporaryDirectory() as scratch:
        src = _copy_src(Path(scratch))
        mutate(src, mutant)
        completed = _pytest(src, Path(scratch), mutant.tests, "-x")
    if completed.returncode not in (0, 1):  # 1: some test failed; anything else: the run itself went wrong
        raise RuntimeError(f"{mutant.name}: pytest exited {completed.returncode}:\n{completed.stdout[-2000:]}")
    return "killed" if completed.returncode else "survived"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [known[name] for name in args.names] or MUTANTS
    problem = baseline(mutants)
    if problem:
        print(f"error: {problem}")
        return 1
    failures = 0
    for mutant in mutants:
        try:
            outcome = run(mutant)
        except (ValueError, RuntimeError) as error:
            print(f"error     {error}")
            failures += 1
            continue
        expected = "survived" if mutant.equivalent else "killed"
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        mark = "" if outcome == expected else f"  UNEXPECTED, expected {expected}"
        failures += bool(mark)
        print(f"{outcome:<9} {mutant.name}{mark}{note}")
    print(f"{len(mutants) - failures} of {len(mutants)} mutants as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
