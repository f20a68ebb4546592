"""Simulation configuration: a flat JSON object with a strict schema."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import METHODS
from .expressions import ExpressionError, parse
from .structures import LABELS, BlockDim

REQUIRED_FIELDS = (
    "n",
    "structure",
    "hamiltonian",
    "initial",
    "dt",
    "steps",
    "method",
    "output_prefix",
    "emit_plot",
)


class ConfigError(ValueError):
    """One or more config problems, each message naming its field."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    structure: str
    hamiltonian: str
    initial: tuple[float, ...]
    dt: float
    steps: int
    method: str
    output_prefix: str
    emit_plot: bool


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer too large for a double
        return False


def load_config(path: str | Path) -> SimulationConfig:
    """Read and validate a simulation config.

    A missing file raises FileNotFoundError; everything else (bad JSON,
    schema violations, an unparseable Hamiltonian) raises ConfigError with
    every problem reported at once.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    problems: list[str] = []
    for key in sorted(set(raw) - set(REQUIRED_FIELDS)):
        problems.append(f"unknown field {key!r}")
    for key in REQUIRED_FIELDS:
        if key not in raw:
            problems.append(f"missing field {key!r}")

    n = raw.get("n")
    n_ok = _is_int(n) and n >= 1
    if "n" in raw and not n_ok:
        problems.append("field 'n': must be a positive integer")

    structure = raw.get("structure")
    if "structure" in raw and structure not in LABELS:
        problems.append(f"field 'structure': must be one of {list(LABELS)}")

    hamiltonian = raw.get("hamiltonian")
    if "hamiltonian" in raw:
        if not isinstance(hamiltonian, str) or not hamiltonian.strip():
            problems.append("field 'hamiltonian': must be a nonempty expression string")
        elif n_ok:
            try:
                parse(hamiltonian, BlockDim(n))
            except ExpressionError as exc:
                problems.append(f"field 'hamiltonian': {exc}")

    initial = raw.get("initial")
    if "initial" in raw:
        if not isinstance(initial, list) or not all(_is_real(v) for v in initial):
            problems.append("field 'initial': must be a list of finite numbers")
        elif n_ok and len(initial) != 4 * n:
            problems.append(f"field 'initial': must have length {4 * n}, got {len(initial)}")

    dt = raw.get("dt")
    if "dt" in raw and not (_is_real(dt) and dt > 0):
        problems.append("field 'dt': must be a positive number")

    steps = raw.get("steps")
    if "steps" in raw and not (_is_int(steps) and steps >= 1):
        problems.append("field 'steps': must be a positive integer")

    method = raw.get("method")
    if "method" in raw and method not in METHODS:
        problems.append(f"field 'method': must be one of {list(METHODS)}")

    output_prefix = raw.get("output_prefix")
    if "output_prefix" in raw and (not isinstance(output_prefix, str) or not output_prefix):
        problems.append("field 'output_prefix': must be a nonempty path string")

    emit_plot = raw.get("emit_plot")
    if "emit_plot" in raw and not isinstance(emit_plot, bool):
        problems.append("field 'emit_plot': must be a boolean")

    if problems:
        raise ConfigError(problems)

    return SimulationConfig(
        n=n,
        structure=structure,
        hamiltonian=hamiltonian,
        initial=tuple(float(v) for v in initial),
        dt=float(dt),
        steps=steps,
        method=method,
        output_prefix=output_prefix,
        emit_plot=emit_plot,
    )
