"""Per-layer metrics from one traced run (see traced_cli.py for the spans).

Self time is a span's duration minus the durations of its children in the
same thread; `mean_us.n<k>` metrics are mean wall time per call, children
included, over the configs with block size n = k (0 when no config has it).
In batch_mixed the pool threads interleave under the GIL, so span times
there include waits for the lock and self times sum to more than the run.
Spans belong to a config through their enclosing cli.run_config_file span,
whose path attribute names the config file.

Each per-layer metric should move one end-to-end metric:

    config.load_config.*, expressions.parse.*          -> setup_s
    forms.symplectic_form, dynamics.build,
    structures.verify_quaternion_relations             -> setup_s
    expressions.gradient.*, dynamics.newton_iters.*,
    dynamics.step_implicit_midpoint.*,
    diagnostics.symplecticity_residual.*               -> run_s (midpoint_n4 most)
    expressions.evaluate.*, dynamics.step_rk4.*,
    dynamics.integrate, diagnostics.energy_drift,
    diagnostics.eom_residual, cli.trajectory_csv,
    cli.artifact_bytes                                 -> run_s, peak_rss_mb (long_rk4_n1)
    cli.run_config.self_s, cli.run_batch.cpu_per_wall  -> run_s (batch_mixed)
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

N_VALUES = (1, 2, 4, 8)
STEPPERS = {"rk4": "dynamics.step_rk4", "implicit_midpoint": "dynamics.step_implicit_midpoint"}

CALLS = ("config.load_config", "expressions.parse", "expressions.gradient", "expressions.evaluate",
         "dynamics.step_rk4", "dynamics.step_implicit_midpoint")
SELF = ("config.load_config", "expressions.parse", "expressions.gradient", "expressions.evaluate",
        "forms.symplectic_form", "dynamics.build", "structures.verify_quaternion_relations",
        "dynamics.integrate", "dynamics.step_rk4", "dynamics.step_implicit_midpoint",
        "diagnostics.symplecticity_residual", "diagnostics.energy_drift", "diagnostics.eom_residual",
        "cli.trajectory_csv", "cli.run_config")
MEAN_BY_N = ("expressions.gradient", "dynamics.step_rk4", "dynamics.step_implicit_midpoint")


@dataclass
class TraceSummary:
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    per_config: dict = field(default_factory=lambda: defaultdict(Counter))  # path -> span counts
    time_by_n: dict = field(default_factory=lambda: defaultdict(list))  # (name, n) -> durations
    step_gradients: dict = field(default_factory=dict)  # midpoint step span -> (path, gradient calls)
    cpu_s: float = 0.0  # under cli.run_batch spans
    batch_wall_s: float = 0.0


def expected_counts(spec) -> dict[str, int]:
    """Span counts per config that follow from the run's shape alone.

    The symplecticity probe takes one step from each of 2 * 4n perturbed
    points; the EOM check evaluates the field at the steps-1 interior points;
    the energy is evaluated once per CSV row and once more for the drift.
    A midpoint step's gradient count depends on its Newton iterations, so it
    is checked per step instead (a positive multiple of 4n + 1).
    """
    probe = 8 * spec.n
    counts = {
        "config.load_config": 1,
        "expressions.parse": 2,
        "dynamics.build": 1,
        "forms.symplectic_form": 1,
        "structures.verify_quaternion_relations": 2,
        "dynamics.integrate": 1,
        "cli.trajectory_csv": 1,
        "diagnostics.energy_drift": 1,
        "diagnostics.eom_residual": 1,
        "diagnostics.symplecticity_residual": 1,
        "expressions.evaluate": 2 * (spec.steps + 1),
        "symplecticity.step_calls": probe,
        "eom.gradient_calls": spec.steps - 1,
    }
    for method, name in STEPPERS.items():
        counts[name] = spec.steps + probe if method == spec.method else 0
    if spec.method == "rk4":
        counts["expressions.gradient"] = 4 * spec.steps + 4 * probe + (spec.steps - 1)
    return counts


def summarise(spans: list[list], configs: dict) -> TraceSummary:
    """Aggregate spans [id, parent, name, thread, start, end, attrs]."""
    by_id = {span[0]: span for span in spans}
    config_of: dict[int, str | None] = {}
    step_of: dict[int, int | None] = {}  # enclosing implicit-midpoint step
    in_probe: dict[int, bool] = {}  # inside the symplecticity probe
    child_time: Counter = Counter()
    for span_id, parent, name, thread, start, end, attrs in spans:  # a parent precedes its children
        config_of[span_id] = attrs["path"] if name == "cli.run_config_file" else config_of.get(parent)
        step_of[span_id] = span_id if name == STEPPERS["implicit_midpoint"] else step_of.get(parent)
        in_probe[span_id] = name == "diagnostics.symplecticity_residual" or in_probe.get(parent, False)
        if parent is not None and by_id[parent][3] == thread:
            child_time[parent] += end - start

    summary = TraceSummary()
    step_counts: Counter = Counter()
    for span_id, parent, name, thread, start, end, attrs in spans:
        path = config_of[span_id]
        counts = summary.per_config[path]
        summary.calls[name] += 1
        summary.self_s[name] += end - start - child_time[span_id]
        counts[name] += 1
        if name in STEPPERS.values() and in_probe[span_id]:
            counts["symplecticity.step_calls"] += 1
        if name == "expressions.gradient":
            if step_of[span_id] is not None:
                step_counts[step_of[span_id]] += 1
            elif parent is not None and by_id[parent][2] == "diagnostics.eom_residual":
                counts["eom.gradient_calls"] += 1
        if name in MEAN_BY_N and path in configs:
            summary.time_by_n[(name, configs[path].n)].append(end - start)
        if name == "cli.run_batch":
            summary.cpu_s += attrs["cpu_s"]
            summary.batch_wall_s += end - start
    summary.step_gradients = {step: (config_of[step], count) for step, count in step_counts.items()}
    return summary


def check_counts(summary: TraceSummary, configs: dict) -> tuple[list[str], int, bool]:
    """Compare traced counts with their analytic values: (report lines, checks made, all ok)."""
    lines, ok = [], True

    def check(label: str, observed: int, expected, match: bool) -> None:
        nonlocal ok
        ok &= match
        lines.append(f"trace count {label} = {observed} (expected {expected}) {'ok' if match else 'MISMATCH'}")

    for path, spec in configs.items():
        observed = summary.per_config[path]
        for name, expected in expected_counts(spec).items():
            check(f"{spec.name} {name}", observed[name], expected, observed[name] == expected)
        if spec.method == "implicit_midpoint":
            width = 4 * spec.n + 1
            steps = [count for owner, count in summary.step_gradients.values() if owner == path]
            total = sum(steps) + observed["eom.gradient_calls"]
            check(f"{spec.name} expressions.gradient", observed["expressions.gradient"],
                  f"{total}: calls under midpoint steps + EOM calls", observed["expressions.gradient"] == total)
            bad = [count for count in steps if count == 0 or count % width]
            check(f"{spec.name} midpoint steps whose gradient calls are not a positive multiple of 4n+1",
                  len(bad), 0, not bad)
    return lines, len(lines), ok


def layer_metrics(runner, deadline: float):
    """Trace one run, then time untraced runs until the deadline for the overhead."""
    spans_path = runner.work / "spans.json"
    traced = runner.run(traced_spans=spans_path)
    spans = json.loads(spans_path.read_text())
    configs = {str(c.path): c.spec for c in runner.configs}
    summary = summarise(spans, configs)
    lines, checked, count_ok = check_counts(summary, configs)
    runner.notes.extend(lines)

    untraced = [runner.run().wall_s]
    while len(untraced) < 3 or time.perf_counter() + statistics.median(untraced) < deadline:
        untraced.append(runner.run().wall_s)
    untraced_s = statistics.median(untraced)
    runner.notes.append(f"traced run {traced.wall_s:.4f} s, untraced median {untraced_s:.4f} s over {len(untraced)} runs")

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name], units[name] = float(value), unit

    for name in CALLS:
        put(f"{name}.calls", summary.calls[name], "count")
    for name in SELF:
        put(f"{name}.self_s", summary.self_s[name], "s")
    put("expressions.gradient.mean_us",
        1e6 * summary.self_s["expressions.gradient"] / max(summary.calls["expressions.gradient"], 1), "us")
    for name in MEAN_BY_N:
        for n in N_VALUES:
            durations = summary.time_by_n.get((name, n), [])
            put(f"{name}.mean_us.n{n}", 1e6 * statistics.fmean(durations) if durations else 0.0, "us")
    # a Newton iteration evaluates the field at the midpoint and at 4n probes
    iterations = [count / (4 * configs[path].n + 1) for path, count in summary.step_gradients.values()]
    put("dynamics.newton_iters.mean", statistics.fmean(iterations) if iterations else 0.0, "count")
    put("dynamics.newton_iters.max", max(iterations, default=0.0), "count")
    put("diagnostics.symplecticity_residual.step_calls",
        sum(counts["symplecticity.step_calls"] for counts in summary.per_config.values()), "count")
    put("cli.artifact_bytes", sum(len(b) for files in runner.reference.values() for b in files.values()), "B")
    put("cli.run_batch.cpu_per_wall", summary.cpu_s / summary.batch_wall_s if summary.batch_wall_s else 0.0, "ratio")
    put("trace.overhead_s", traced.wall_s - untraced_s, "s")
    put("trace.spans", len(spans), "count")
    put("trace.counts_checked", checked, "count")
    return metrics, units, count_ok
