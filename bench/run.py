"""quatflow benchmark: time to a checked solution, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in bench/workloads.py.  The seed draws each config's
initial state; the program only sees the generated config files.  Every
sample is a fresh interpreter running `python -m quatflow run` (or
`run --batch`) on src/, and each run is checked: exit code 0, `passed`
true, steps+1 trajectory rows, the final row within a stated tolerance of
the closed-form rotation flow, and artifacts byte-identical to the first
(warm-up) run of the invocation.

--trace 0 reports the end-to-end metrics: run_s, setup_s (a fresh
interpreter up to built HamiltonianSystems, measured by bench/setup_probe.py),
peak_rss_mb and flow_error_max.  The times are calibrated: every run and
setup sample sits between two runs of bench/calibrate.py, a fixed program
that does not touch quatflow, and is divided by their mean time (see
end_to_end).  --trace 1 makes one run under
bench/traced_cli.py and reports per-layer metrics from its spans, checks
the span counts against their analytic values, and reports the tracing
overhead against untraced runs made in the same invocation.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `attempted` counts checked operations, one per config per CLI
run plus one per setup probe; `failed` counts those that failed a check,
so failed / attempted is the workload's failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

T0 = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import numpy as np  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    AMPLITUDE,
    WORKLOADS,
    RunSpec,
    exact_final_state,
    flow_tolerance,
    initial_state,
    make_config,
)

MIN_SAMPLES = 3
SETUP_PROBES = 3
# bench/calibrate.py's wall time on a quiet 2-vCPU Xeon host (Python 3.11):
# calibrated times are scaled by it, so they read as seconds on that host.
CALIBRATION_REF_S = 0.6
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # a reported percentile has at least this many samples above it

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "flow_error_max": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. no quatflow sources)."""


@dataclass
class Launch:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    # quatflow's matrices are at most 32 x 32, too small for OpenBLAS to split,
    # so its worker threads would only compete with the run for the host's cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def launch(args: list[str], cwd: Path, cpus: set[int]) -> Launch:
    """Run a child on `cpus` to completion; wall time and peak RSS come from wait4."""
    os.sched_setaffinity(0, cpus)  # the child inherits this thread's CPU set
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


@dataclass
class ConfigRun:
    spec: RunSpec
    initial: list[float]
    path: Path  # relative to the work directory


class WorkloadRunner:
    """Generates one workload's configs and runs and checks them."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        # One config runs in one thread, so it is kept on one CPU and calibrated
        # there: a shared host can slow two vCPUs by different amounts at once,
        # and a run and its calibrations on different CPUs would not compare.
        # A batch may use every CPU, so it is calibrated on each of them.
        available = sorted(os.sched_getaffinity(0))
        self.cpus = available if self.workload.batch else available[:1]
        self.work = WORK / name
        self.out = self.work / "out"
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        self.out.mkdir(exist_ok=True)
        for stale in list(self.out.iterdir()) + list((self.work / "configs").iterdir()):
            stale.unlink()
        rng = random.Random(seed)
        self.configs: list[ConfigRun] = []
        for spec in self.workload.specs:
            initial = initial_state(spec.n, rng)
            path = Path("configs") / f"{spec.name}.json"
            (self.work / path).write_text(json.dumps(make_config(spec, initial, f"out/{spec.name}")))
            self.configs.append(ConfigRun(spec, initial, path))
        self.reference: dict[str, dict[str, bytes]] | None = None
        self.valid: dict[str, bool] = {}
        self.flow_errors: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def cli_args(self) -> list[str]:
        if self.workload.batch:
            return ["run", "--batch", "configs"]
        return ["run", str(self.configs[0].path)]

    def _collect(self) -> dict[str, dict[str, bytes]]:
        """Artifacts per config, removed afterwards so a missing write shows."""
        files: dict[str, dict[str, bytes]] = {c.spec.name: {} for c in self.configs}
        for path in sorted(self.out.iterdir()):
            owner = path.name.split(".", 1)[0]
            files.setdefault(owner, {})[path.name] = path.read_bytes()
            path.unlink()
        return files

    def run(self, traced_spans: Path | None = None) -> Launch:
        """One checked CLI run; the first one becomes the reference."""
        if traced_spans is None:
            args = [sys.executable, "-m", "quatflow", *self.cli_args()]
        else:
            args = [sys.executable, str(BENCH / "traced_cli.py"), str(traced_spans), *self.cli_args()]
        result = launch(args, self.work, set(self.cpus))
        files = self._collect()
        if self.reference is None:
            self.reference = files
            for config in self.configs:
                self.valid[config.spec.name] = self._validate(config, files[config.spec.name], result.code)
        for config in self.configs:
            name = config.spec.name
            ok = result.code == 0 and self.valid[name] and files.get(name) == self.reference[name]
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(
                    f"FAILED {name}: exit {result.code}, reference valid {self.valid[name]},"
                    f" artifacts identical {files.get(name) == self.reference[name]}"
                    f" {result.stderr.strip()[:300]}"
                )
        return result

    def _validate(self, config: ConfigRun, files: dict[str, bytes], code: int) -> bool:
        from quatflow import BlockDim, symplectic_form  # importable once main() checked src/

        spec, name = config.spec, config.spec.name
        omega = symplectic_form(spec.structure, BlockDim(spec.n)).matrix
        rotation_exact = bool(np.array_equal(omega @ omega, -np.eye(4 * spec.n)) and np.array_equal(omega.T, -omega))
        csv = files.get(f"{name}.trajectory.csv", b"").decode().splitlines()
        diagnostics = json.loads(files.get(f"{name}.diagnostics.json", b"{}"))
        rows = len(csv) - 1
        error = float("inf")
        if rows == spec.steps + 1:
            final = [float(v) for v in csv[-1].split(",")[1:-1]]
            exact = exact_final_state(spec, config.initial, omega)
            error = max(abs(a - b) for a, b in zip(final, exact))
        tolerance = flow_tolerance(spec, config.initial)
        self.flow_errors[name] = error
        ok = (
            code == 0
            and rotation_exact
            and diagnostics.get("passed") is True
            and rows == spec.steps + 1
            and error <= tolerance
        )
        self.notes.append(
            f"check {name}: n={spec.n} {spec.structure} {spec.method} dt={spec.dt} steps={spec.steps}"
            f" exit={code} Omega^2=-I and Omega^T=-Omega exact={rotation_exact}"
            f" passed={diagnostics.get('passed')} rows={rows}"
            f" flow_error={error:.3e} tolerance={tolerance:.3e} -> {'ok' if ok else 'FAIL'}"
        )
        return ok

    def calibrate(self) -> float:
        """Mean wall seconds of fresh bench/calibrate.py runs, one on each of the runs' CPUs at once.

        Run together, they measure every CPU at the same moment, as a batch
        spread over them would feel it, in the time of one calibration.
        """
        started: dict[int, tuple[subprocess.Popen, float]] = {}
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                proc = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py")], cwd=self.work,
                                        env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                started[proc.pid] = (proc, time.perf_counter())
            while len(times) < len(started):
                pid, status, _ = os.wait4(-1, 0)
                proc, start = started[pid]
                times.append(time.perf_counter() - start)
                proc.returncode = os.waitstatus_to_exitcode(status)
                if proc.returncode != 0:
                    raise BenchError(f"calibration failed: exit {proc.returncode}")
        finally:
            for proc, _ in started.values():
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return statistics.fmean(times)

    def setup(self) -> float | None:
        """Seconds from a fresh interpreter to built systems for every config.

        One sample is the fastest of SETUP_PROBES back-to-back probes: a probe
        takes ~0.2 s, short enough that a load swing on the host moves single
        probes by 30% but rarely all of them.
        """
        args = [sys.executable, str(BENCH / "setup_probe.py"), *(str(c.path) for c in self.configs)]
        times = []
        for _ in range(SETUP_PROBES):
            start = time.monotonic()
            result = launch(args, self.work, set(self.cpus))
            self.attempted += 1
            if result.code != 0:
                self.failed += 1
                self.notes.append(f"FAILED setup probe: exit {result.code} {result.stderr.strip()[:300]}")
                return None
            times.append(float(result.stdout.strip()) - start)
        return min(times)


def tail(samples: list[float]) -> str:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return f"no percentile has {TAIL_BEYOND} samples beyond it"
    index = len(ordered) - TAIL_BEYOND - 1
    return f"p{100 * (index + 1) // len(ordered)} {ordered[index]:.6g}"


def describe(name: str, unit: str, samples: list[float]) -> str:
    return (
        f"# {name:<16} median {statistics.median(samples):.6g} {unit}, {tail(samples)},"
        f" samples {len(samples)}: " + " ".join(f"{v:.4g}" for v in samples)
    )


def end_to_end(runner: WorkloadRunner, deadline: float) -> dict[str, float]:
    """Calibrated run and setup times, peak RSS and the flow error.

    On a shared 2-vCPU Xeon host, other tenants slowed every process by up
    to 1.8x, in swings from under a second to minutes long, and raw wall
    times of identical runs spread 25-50% between invocations.  So calibrations and
    measured items alternate (cal, run, cal, setup, cal, run, cal, run, cal,
    setup, ...), and each item's wall time is divided by the mean of the two
    calibrations around it.  The medians of those ratios, times
    CALIBRATION_REF_S, are run_s and setup_s.  calibrate.py does not use the
    program, so a change to quatflow moves them by its full share; raw
    medians are printed beside them.
    """
    calibrations = [runner.calibrate()]
    runs: list[Launch] = []
    run_ratios: list[float] = []
    setups: list[float] = []
    setup_ratios: list[float] = []
    start = time.perf_counter()
    while True:
        runs.append(runner.run())
        calibrations.append(runner.calibrate())
        run_ratios.append(runs[-1].wall_s / statistics.fmean(calibrations[-2:]))
        if len(runs) % 2:  # a setup sample after every other run leaves more time for runs
            setup = runner.setup()
            calibrations.append(runner.calibrate())
            if setup is not None:
                setups.append(setup)
                setup_ratios.append(setup / statistics.fmean(calibrations[-2:]))
        cycle = (time.perf_counter() - start) / len(runs)
        if len(runs) >= 2 * MIN_SAMPLES and time.perf_counter() + cycle > deadline:
            break
    samples = {
        "run_s": [CALIBRATION_REF_S * r for r in run_ratios],
        "setup_s": [CALIBRATION_REF_S * r for r in setup_ratios] or [0.0],  # all probes failed: not `correct`
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    for name, values in samples.items():
        print(describe(name, END_TO_END_UNITS[name], values))
    for name, values in (("raw run", [r.wall_s for r in runs]), ("raw setup", setups or [0.0]),
                         ("calibration", calibrations)):
        print(describe(name, "s", values))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["flow_error_max"] = max(runner.flow_errors.values())
    print(f"# {'flow_error_max':<16} {metrics['flow_error_max']:.6g} (deterministic; max over configs)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatflow" / "__init__.py").is_file():
        raise BenchError(f"no quatflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quatflow

    if Path(quatflow.__file__).resolve().parent != SRC / "quatflow":
        raise BenchError(f"imported quatflow from {quatflow.__file__}, not from {SRC}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = T0 + args.seconds
    runner = WorkloadRunner(args.workload, args.seed)
    print(f"# workload {args.workload}: {runner.workload.why}")
    print("# meta " + json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "run_cpus": runner.cpus,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "amplitude": AMPLITUDE,
    }))

    runner.run()  # warm-up: fills the page and bytecode caches, sets the reference
    if args.trace:
        metrics, units, count_ok = layer_metrics(runner, deadline)
        section = "per_layer"
    else:
        metrics, units, count_ok = end_to_end(runner, deadline), END_TO_END_UNITS, True
        section = "end_to_end"

    for note in runner.notes:
        print(f"# {note}")
    names = [m["name"] for m in declared[section]]
    if sorted(names) != sorted(metrics) or any(units[m["name"]] != m["unit"] for m in declared[section]):
        raise BenchError(f"measured {sorted(metrics)} does not match BENCHMARK.json {section}")
    print(f"# failed_frac {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0 and count_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        sys.exit(2)
