"""Run the committed scenario corpus, or diff it against another revision.

    python tests/scenarios.py                  # exit code, stderr, artifact digests
    python tests/scenarios.py --against REV    # every difference from REV's code

tests/scenarios/manifest.json lists each scenario: the argv of one
`quatflow` command, the exit code it must return and a note.  Paths in the
argv are relative to tests/scenarios/.  Each scenario runs in-process in a
fresh temporary directory holding a copy of the corpus; every file the run
leaves there is an artifact.  A warning the run emits is written to its
stderr, as the command line would print it.

With --against REV, the corpus of the working tree runs once on the
package under src/ and once on REV's src/, extracted with `git archive`,
each in its own interpreter.  Every difference in exit code, stdout,
stderr and artifacts is reported; for a CSV or JSON artifact, the cells
whose numbers moved, with the largest |delta| and the largest relative
delta.  A stdout or stderr line whose words match and whose numbers moved,
such as the last residual a diverging Newton iteration quotes, is a figure
move, reported with its old and new numbers; any other change of a stream
is a message change, reported with both texts.  The contract is the two
revisions on one machine: midpoint runs past 4n = 16 go through
np.linalg.solve, whose last bits may depend on the CPU; up to 4n = 16 the
Newton system is solved on Python floats, whose bits do not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "scenarios"
MANIFEST = CORPUS / "manifest.json"
# a decimal number that is not part of a word such as x1
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


def load_manifest() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def run_scenario(scenario: dict) -> dict:
    """Run one scenario: its exit code, stdout, stderr and artifact bytes."""
    with tempfile.TemporaryDirectory() as temporary:
        work = Path(temporary) / "corpus"
        shutil.copytree(CORPUS, work, ignore=shutil.ignore_patterns(MANIFEST.name))
        return run_in(work, scenario["argv"])


def run_in(work: Path, argv) -> dict:
    """Run `quatflow argv` in-process in work, as a scenario runs: the files it adds are its artifacts."""
    from quatflow.cli import main  # imported late: main() picks the package to run

    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(f"{Path(filename).name}:{lineno}: {category.__name__}: {message}\n")

    inputs = set(work.rglob("*"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("default")
            warnings.showwarning = show
            code = main(list(argv))
    except Exception as exc:  # reported like an exit code, so one crash stops no comparison
        code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    artifacts = {
        path.relative_to(work).as_posix(): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path not in inputs and path.is_file()
    }
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "artifacts": artifacts}


def _encode(result: dict) -> dict:
    # latin-1 maps each byte to one code point, so artifact bytes survive JSON
    return {**result, "artifacts": {name: data.decode("latin-1") for name, data in result["artifacts"].items()}}


def _decode(result: dict) -> dict:
    return {**result, "artifacts": {name: text.encode("latin-1") for name, text in result["artifacts"].items()}}


def print_report(results: dict[str, dict], scenarios: list[dict]) -> int:
    """Print each scenario's exit code, stderr and artifact digests; 1 if an exit code is off."""
    wrong = 0
    for scenario in scenarios:
        result = results[scenario["name"]]
        mark = "" if result["exit"] == scenario["exit"] else f"  (expected {scenario['exit']})"
        wrong += bool(mark)
        print(f"{scenario['name']}: exit {result['exit']}{mark}")
        for line in result["stderr"].splitlines():
            print(f"  stderr: {line}")
        for name, data in result["artifacts"].items():
            print(f"  {hashlib.sha256(data).hexdigest()[:16]}  {name}")
    print(f"{len(scenarios) - wrong} of {len(scenarios)} scenarios exit as declared")
    return 1 if wrong else 0


def _cells(name: str, text: str) -> dict[str, str] | None:
    """Cell name -> text for a CSV or JSON artifact; None for any other file."""
    if name.endswith((".csv", ".csv.partial")):
        rows = [line.split(",") for line in text.splitlines()]
        header = rows[0] if rows else []
        return {
            f"row {index} {header[column] if column < len(header) else column}": cell
            for index, row in enumerate(rows[1:], start=1)
            for column, cell in enumerate(row)
        }
    if name.endswith(".json"):
        cells = {}

        def walk(value, key):
            if isinstance(value, dict):
                for child, item in value.items():
                    walk(item, f"{key}.{child}" if key else child)
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    walk(item, f"{key}[{index}]")
            else:
                cells[key] = json.dumps(value)

        walk(json.loads(text), "")
        return cells
    return None


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def diff_cells(name: str, old: str, new: str) -> list[str]:
    """Describe how the cells of one CSV or JSON artifact moved from old to new."""
    before, after = _cells(name, old), _cells(name, new)
    if before is None:
        return ["bytes differ"]
    lines = []
    if before.keys() != after.keys():
        lines.append(f"cells only in REV: {len(before.keys() - after.keys())}, only in change: {len(after.keys() - before.keys())}")
    moved = [key for key in before if key in after and before[key] != after[key]]
    numeric = []
    for key in moved:
        a, b = _number(before[key]), _number(after[key])
        if a is None or b is None:
            lines.append(f"{key}: {before[key]} -> {after[key]}")
        else:
            delta = abs(b - a)
            if not math.isfinite(delta):  # a non-finite value on either side
                delta = relative = math.inf
            else:
                relative = delta / max(abs(a), abs(b)) if delta else 0.0
            numeric.append((key, delta, relative))
    if numeric:
        key, delta, _ = max(numeric, key=lambda item: item[1])
        lines.append(f"{len(numeric)} numbers moved; largest |delta| {delta:.3g} at {key} ({before[key]} -> {after[key]})")
        key, _, relative = max(numeric, key=lambda item: item[2])
        lines.append(f"largest relative delta {relative:.3g} at {key} ({before[key]} -> {after[key]})")
    return lines or ["bytes differ, cells equal"]


def diff_stream(stream: str, old: str, new: str) -> list[str]:
    """Describe how one output stream moved: figure moves line by line, else a message change.

    When both texts have as many lines, each changed line whose words (the
    text between its numbers) match is a figure move and each other one a
    message change; otherwise the whole stream is one message change.
    """
    if old == new:
        return []
    before, after = old.splitlines(), new.splitlines()
    if len(before) != len(after):
        return [f"{stream}: {old!r} -> {new!r}"]
    lines = []
    for index, (a, b) in enumerate(zip(before, after), start=1):
        if a == b:
            continue
        if NUMBER.split(a) != NUMBER.split(b):
            lines.append(f"{stream} line {index}: {a!r} -> {b!r}")
            continue
        moved = [f"{x} -> {y}" for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)) if x != y]
        lines.append(f"{stream} line {index}: figures moved: {', '.join(moved)}")
    return lines


def diff_results(name: str, old: dict, new: dict) -> list[str]:
    """Every difference between REV's result (old) and the change's (new) for one scenario."""
    lines = []
    if old["exit"] != new["exit"]:
        lines.append(f"exit {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        lines.extend(diff_stream(stream, old[stream], new[stream]))
    for artifact in sorted(old["artifacts"].keys() | new["artifacts"].keys()):
        if artifact not in new["artifacts"]:
            lines.append(f"{artifact}: only in REV")
        elif artifact not in old["artifacts"]:
            lines.append(f"{artifact}: only in change")
        elif old["artifacts"][artifact] != new["artifacts"][artifact]:
            texts = (old["artifacts"][artifact].decode(errors="replace"), new["artifacts"][artifact].decode(errors="replace"))
            lines.extend(f"{artifact}: {line}" for line in diff_cells(artifact, *texts))
    return [f"{name}: {line}" for line in lines]


def _results_from(src: Path) -> dict[str, dict]:
    """Run the corpus in a fresh interpreter on the package under src."""
    completed = subprocess.run(
        [sys.executable, __file__, "--json", str(src)], capture_output=True, text=True, check=True
    )
    return {name: _decode(result) for name, result in json.loads(completed.stdout).items()}


def against(revision: str, scenarios: list[dict]) -> int:
    """Report every difference between REV's results and the working tree's; 1 if any."""
    with tempfile.TemporaryDirectory() as scratch:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(scratch, filter="data")
        old = _results_from(Path(scratch) / "src")
    new = _results_from(ROOT / "src")
    differences = [line for s in scenarios for line in diff_results(s["name"], old[s["name"]], new[s["name"]])]
    for line in differences:
        print(line)
    moved = len({line.split(":", 1)[0] for line in differences})
    print(f"{len(scenarios) - moved} of {len(scenarios)} scenarios identical to {revision}")
    return 1 if differences else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="report every difference from REV's src/")
    parser.add_argument("--json", metavar="SRC", help="print the raw results of the package under SRC as JSON")
    args = parser.parse_args(argv)
    scenarios = load_manifest()
    if args.against:
        return against(args.against, scenarios)
    sys.path.insert(0, args.json or str(ROOT / "src"))
    results = {scenario["name"]: run_scenario(scenario) for scenario in scenarios}
    if args.json:
        print(json.dumps({name: _encode(result) for name, result in results.items()}))
        return 0
    return print_report(results, scenarios)


if __name__ == "__main__":
    sys.exit(main())
