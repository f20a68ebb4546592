"""Run the quatflow CLI with spans recorded around its public layer functions.

Usage: python bench/traced_cli.py SPANS_JSON CLI_ARG...

Each wrapped function records one span (name, parent, thread, start, end)
in memory; the spans go to SPANS_JSON after the CLI returns, and the
process exits with the CLI's code.  The program itself is not modified:
functions are wrapped at the module attribute their caller looks up, since
the modules import each other's functions by name.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


class Tracer:
    """Spans kept in memory: [id, parent, name, thread, start, end, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, func, attrs=None, cpu: bool = False):
        """Return func wrapped in a span.

        attrs(args) adds fields to the span; cpu=True also records the
        process CPU seconds spent while the span was open.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs off the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = len(self.spans)
                span = [span_id, parent, name, threading.get_ident(), 0.0, 0.0, None]
                self.spans.append(span)
            if attrs is not None:
                span[6] = attrs(args)
            stack.append(span_id)
            cpu_start = time.process_time() if cpu else 0.0
            span[4] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if cpu:
                    span[6] = {"cpu_s": time.process_time() - cpu_start}

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer function at the names the program's callers use."""
    from quatflow import cli, config, diagnostics, dynamics

    def patch(module, attr, name, attrs=None, cpu=False):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs, cpu))

    patch(cli, "run_batch", "cli.run_batch", cpu=True)
    patch(cli, "run_config_file", "cli.run_config_file", lambda args: {"path": str(args[0])})
    patch(cli, "run_config", "cli.run_config")
    patch(cli, "trajectory_csv", "cli.trajectory_csv")
    patch(cli, "load_config", "config.load_config")
    for module in (cli, config):
        patch(module, "parse", "expressions.parse")
    for module in (cli, diagnostics):
        patch(module, "evaluate", "expressions.evaluate")
    patch(dynamics, "gradient", "expressions.gradient")
    patch(dynamics, "symplectic_form", "forms.symplectic_form")
    patch(diagnostics, "verify_quaternion_relations", "structures.verify_quaternion_relations")
    patch(cli, "integrate", "dynamics.integrate")
    for attr in ("energy_drift", "eom_residual", "symplecticity_residual"):
        patch(cli, attr, f"diagnostics.{attr}")

    # integrate dispatches through a registry filled at import time, while
    # step_jacobian looks the steppers up as diagnostics module globals
    for method, attr in (("rk4", "step_rk4"), ("implicit_midpoint", "step_implicit_midpoint")):
        wrapped = tracer.wrap(f"dynamics.{attr}", getattr(dynamics, attr))
        dynamics._STEPPERS[method] = wrapped
        setattr(diagnostics, attr, wrapped)

    build = dynamics.HamiltonianSystem.build.__func__
    dynamics.HamiltonianSystem.build = classmethod(tracer.wrap("dynamics.build", build))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from quatflow import cli

    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
