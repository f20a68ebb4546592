"""Batch command-line front end.

Subcommands:

* ``run <config.json>`` - integrate one configured trajectory, write a CSV
  trajectory, a flat JSON diagnostics report, and optionally a gnuplot
  phase-portrait script.  ``--batch <dir>`` runs every ``*.json`` config in
  a directory instead, one after another in file-name order.
* ``verify --n <int>`` - print the quaternion-relation and
  metric-compatibility residual table for all six structures, one
  relation row per ``structures.RELATIONS`` entry; exit 2 on any nonzero
  residual.
* ``dump --what structure|omega --label F|G|H --n <int>`` - print the
  requested matrix as integer CSV.

Exit codes: 0 on success with passing diagnostics, 1 on operational
failure (including usage errors), 2 when a diagnostic exceeds its
threshold; ``_render_outputs`` is the one place a run's pass/fail is
decided, from one table of checks and their thresholds, and ``_fail`` the
one place a run that fails once its config has loaded is reported: an
``error:`` line on stderr and the same message in ``<prefix>.error.log``.
A config that cannot be read or is invalid fails alone, so a batch runs on
past it; the batch's clash check reads configs through ``read_config``
and resolves prefixes with ``os.path.realpath``, so two under one symlink
loop clash.  No other codes are ever returned.  Output files carry no
timestamps, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, SimulationConfig, is_output_prefix, load_config, read_config
from .diagnostics import (
    algebra_residuals,
    default_thresholds,
    energy_drift,
    eom_residual,
    symplecticity_residual,
)
from .dynamics import HamiltonianSystem, IntegrationError, Trajectory, integrate
from .expressions import ExpressionError, evaluate, parse
from .forms import symplectic_form
from .structures import (
    LABELS,
    RELATIONS,
    BlockDim,
    EuclideanMetric,
    SPACES,
    StructureKind,
    build_structure,
    structure_triple,
    verify_metric_compatibility,
    verify_quaternion_relations,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def trajectory_csv(trajectory: Trajectory) -> str:
    """Render a trajectory as CSV with full double precision.

    Every cell is %.17g, the same text as format(v, ".17g"): 17 significant
    digits round-trip any IEEE double exactly.
    """
    hamiltonian = trajectory.system.hamiltonian
    size = trajectory.system.omega.dim.total
    header = "t," + ",".join(f"x{a}" for a in range(1, size + 1)) + ",energy"
    row = ",".join(["%.17g"] * (size + 2))
    lines = [header]
    for time, cells in zip(trajectory.times, trajectory.states):
        lines.append(row % (time, *cells, evaluate(hamiltonian, cells)))
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_name: str, n: int) -> str:
    return "\n".join(
        [
            f"# phase portrait of {csv_name}: x1 against x{n + 1}",
            'set datafile separator ","',
            "set key off",
            'set xlabel "x1"',
            f'set ylabel "x{n + 1}"',
            f'plot "{csv_name}" using 2:{n + 2} with lines',
        ]
    ) + "\n"


def _fail(prefix: Path, message: str) -> int:
    """Report a failed run on stderr and in <prefix>.error.log; return 1."""
    print(f"error: {message}", file=sys.stderr)
    try:
        Path(f"{prefix}.error.log").write_text(message + "\n", encoding="utf-8")
    except OSError:
        pass  # best effort; the message already went to stderr
    return 1


def run_config(config: SimulationConfig, tolerance_scale: float = 1.0) -> int:
    """Execute one simulation run and write its artifacts."""
    prefix = Path(config.output_prefix)
    try:
        if str(prefix.parent) not in ("", "."):
            prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # the log would go in the directory that could not be made
        return _fail(prefix, f"cannot create output directory for {prefix}: {exc}")

    dim = BlockDim(config.n)
    field = parse(config.hamiltonian, dim)
    system = HamiltonianSystem.build(config.structure, field)

    # a steps count too large to hold is a ValueError before the first step
    try:
        trajectory = integrate(system, config.initial, config.dt, config.steps, config.method)
    except (IntegrationError, ValueError) as exc:
        message = f"integration aborted: {exc}"
        if isinstance(exc, IntegrationError) and exc.partial is not None:
            try:
                Path(f"{prefix}.trajectory.csv.partial").write_text(
                    trajectory_csv(exc.partial), encoding="utf-8"
                )
            except (OSError, ExpressionError) as unwritten:
                message += f"; partial trajectory not written: {unwritten}"
        return _fail(prefix, message)

    # the symplecticity probe takes fresh steps, which can fail like any step
    try:
        contents, passed = _render_outputs(config, trajectory, tolerance_scale)
    except (IntegrationError, ValueError) as exc:
        return _fail(prefix, f"diagnostics failed: {exc}")

    written: list[Path] = []
    try:
        for path, text in contents.items():
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        return _fail(prefix, f"cannot write outputs for {prefix}: {exc}")
    return 0 if passed else 2


def _render_outputs(
    config: SimulationConfig, trajectory: Trajectory, tolerance_scale: float
) -> tuple[dict[Path, str], bool]:
    prefix = Path(config.output_prefix)
    csv_text = trajectory_csv(trajectory)

    series, drift_max = energy_drift(trajectory)
    symplectic = symplecticity_residual(trajectory.system, trajectory.states[0], config.dt, config.method)
    checks = {"energy_drift_max": drift_max, "symplecticity_residual": symplectic}
    # the central-difference residual needs an interior point
    if len(trajectory.states) >= 3:
        checks["eom_residual_max"] = eom_residual(trajectory)
    algebra = algebra_residuals(trajectory.system)
    thresholds = default_thresholds(config.method, config.dt, tolerance_scale)
    passed = all(checks[key] <= thresholds[key] for key in checks) and not any(algebra.values())

    document = {
        "n": config.n,
        "structure": config.structure,
        "method": config.method,
        "dt": config.dt,
        "steps": config.steps,
        "tolerance_scale": tolerance_scale,
        "energy_drift_series": series,
        "passed": passed,
        **checks,
        **{f"threshold_{key}": value for key, value in thresholds.items()},
        **{f"algebra_residual_{key}": value for key, value in algebra.items()},
    }
    contents = {
        Path(f"{prefix}.trajectory.csv"): csv_text,
        Path(f"{prefix}.diagnostics.json"): json.dumps(document, sort_keys=True, indent=2) + "\n",
    }
    if config.emit_plot:
        csv_name = f"{prefix.name}.trajectory.csv"
        contents[Path(f"{prefix}.phase.gnuplot")] = gnuplot_script(csv_name, config.n)
    return contents, passed


def run_config_file(path: str | Path, tolerance_scale: float = 1.0) -> int:
    try:
        config = load_config(path)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory named *.json, say
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: invalid config {path}: {exc}", file=sys.stderr)
        return 1
    return run_config(config, tolerance_scale)


def _shared_output_prefixes(paths: list[Path]) -> list[tuple[Path, Path, Path]]:
    """(earlier config, later config, resolved prefix) for each reused output prefix.

    Only the raw output_prefix field is read; a config without a valid one
    cannot clash and reports its own error when it runs.  os.path.realpath
    stops at a symlink loop instead of raising, on every Python version, so
    two prefixes under the same loop resolve alike and clash.
    """
    owners: dict[Path, Path] = {}
    clashes = []
    for path in paths:
        try:
            prefix = read_config(path).get("output_prefix")
            if not is_output_prefix(prefix):
                continue
            resolved = Path(os.path.realpath(prefix))
        except (OSError, ConfigError):
            continue
        if resolved in owners:
            clashes.append((owners[resolved], path, resolved))
        else:
            owners[resolved] = path
    return clashes


def run_batch(directory: str | Path, tolerance_scale: float = 1.0) -> int:
    """Run every *.json config in a directory, in sorted order.

    Configs that would write to the same output prefix are refused before
    any of them runs, since the later run would overwrite the earlier's
    files.  The batch returns 1 if any run returned 1, else 2 if any run
    returned 2, else 0.
    """
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        print(f"error: no *.json configs in {directory}", file=sys.stderr)
        return 1
    clashes = _shared_output_prefixes(paths)
    for first, second, prefix in clashes:
        print(f"error: configs {first} and {second} share output_prefix {prefix}", file=sys.stderr)
    if clashes:
        return 1
    codes = [run_config_file(path, tolerance_scale) for path in paths]
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


def verify_command(n: int) -> int:
    """Print the residual table for all six structures at block size n."""
    dim = BlockDim(n)
    metric = EuclideanMetric(dim)
    tangent = structure_triple("tangent", dim)
    cotangent = structure_triple("cotangent", dim)

    tangent_report = verify_quaternion_relations(*tangent)
    cotangent_report = verify_quaternion_relations(*cotangent)

    print(f"quaternion relations, n = {n} (residual = max abs row sum)")
    print(f"  {'relation':<12}{'tangent':>10}{'cotangent':>12}")
    for key, name in RELATIONS.items():
        print(f"  {name:<12}{tangent_report[key]:>10}{cotangent_report[key]:>12}")

    print("metric compatibility (max |g(Tu,v) + g(u,Tv)| over basis pairs)")
    residuals = [*tangent_report.values(), *cotangent_report.values()]
    for tensor in tangent + cotangent:
        residual = verify_metric_compatibility(tensor, metric)
        residuals.append(residual)
        print(f"  {tensor.kind.label:<2}{tensor.kind.space:<10}{residual:>10}")

    # clean: no nonzero residual on either space and no metric violation
    return 2 if any(residuals) else 0


def dump_command(what: str, label: str, n: int, space: str = "tangent") -> int:
    """Print the requested 4n x 4n matrix as integer CSV on stdout."""
    dim = BlockDim(n)
    if what == "structure":
        rows = build_structure(StructureKind(label, space), dim).rows
    else:
        rows = symplectic_form(label, dim).rows
    columns = range(dim.total)
    for row in rows:
        print(",".join(str(int(row.get(b, 0))) for b in columns))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="quatflow", description="quaternionic Hamiltonian flow simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="integrate a configured trajectory")
    run_parser.add_argument("config", nargs="?", help="path to a simulation config JSON")
    run_parser.add_argument("--batch", metavar="DIR", help="run every *.json config in DIR")
    run_parser.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiplier applied to every diagnostic threshold (default 1.0)",
    )

    verify_parser = sub.add_parser("verify", help="check the quaternion algebra")
    verify_parser.add_argument("--n", type=int, required=True, help="block size")

    dump_parser = sub.add_parser("dump", help="print a matrix as integer CSV")
    dump_parser.add_argument("--what", choices=("structure", "omega"), required=True)
    dump_parser.add_argument("--label", choices=LABELS, required=True)
    dump_parser.add_argument("--n", type=int, required=True)
    dump_parser.add_argument("--space", choices=SPACES, default="tangent")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "run":
            if (args.config is None) == (args.batch is None):
                print("usage error: provide exactly one of <config.json> or --batch DIR", file=sys.stderr)
                return 1
            if not 0.0 < args.tolerance_scale < math.inf:
                print("usage error: --tolerance-scale must be a positive finite number", file=sys.stderr)
                return 1
            if args.batch is not None:
                return run_batch(args.batch, args.tolerance_scale)
            return run_config_file(args.config, args.tolerance_scale)
        if args.n < 1:
            print("usage error: --n must be >= 1", file=sys.stderr)
            return 1
        if args.command == "verify":
            return verify_command(args.n)
        return dump_command(args.what, args.label, args.n, args.space)
    except (ValueError, OSError, MemoryError) as exc:  # ValueError: a --n past MAX_BLOCK_SIZE, say
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
