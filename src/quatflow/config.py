"""Simulation configuration: a flat JSON object with a strict schema.

read_config decodes a file and is_output_prefix states what an output
prefix may be; load_config and the batch clash check in cli share both.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._records import Value
from .dynamics import METHODS
from .expressions import ExpressionError, parse
from .structures import LABELS, MAX_BLOCK_SIZE, BlockDim


class ConfigError(ValueError):
    """One or more config problems, each message naming its field."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class SimulationConfig(Value):
    __match_args__ = ("n", "structure", "hamiltonian", "initial", "dt", "steps", "method", "output_prefix", "emit_plot")


REQUIRED_FIELDS = SimulationConfig.__match_args__


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer too large for a double
        return False


def read_config(path: str | Path) -> dict:
    """Read and decode a config file to its top-level JSON object.

    A file that cannot be read raises OSError (FileNotFoundError when it
    is missing); bytes that are not UTF-8, bad or too deeply nested JSON
    and a top level that is not an object raise ConfigError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    return raw


def is_output_prefix(value) -> bool:
    """A nonempty path string the OS can take: no NUL byte."""
    return isinstance(value, str) and value != "" and "\0" not in value


def load_config(path: str | Path) -> SimulationConfig:
    """Read and validate a simulation config.

    Past read_config's errors, schema violations and an unparseable
    Hamiltonian raise ConfigError with every problem reported at once.
    """
    raw = read_config(path)

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
    elif n_ok and n > MAX_BLOCK_SIZE:
        problems.append(f"field 'n': must be at most {MAX_BLOCK_SIZE}")
        n_ok = False

    if "structure" in raw and raw["structure"] not in LABELS:
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

    if "dt" in raw and not (_is_real(raw["dt"]) and raw["dt"] > 0):
        problems.append("field 'dt': must be a positive number")

    if "steps" in raw and not (_is_int(raw["steps"]) and raw["steps"] >= 1):
        problems.append("field 'steps': must be a positive integer")

    if "method" in raw and raw["method"] not in METHODS:
        problems.append(f"field 'method': must be one of {list(METHODS)}")

    if "output_prefix" in raw and not is_output_prefix(raw["output_prefix"]):
        problems.append("field 'output_prefix': must be a nonempty path string")

    if "emit_plot" in raw and not isinstance(raw["emit_plot"], bool):
        problems.append("field 'emit_plot': must be a boolean")

    if problems:
        raise ConfigError(problems)
    return SimulationConfig(**{**raw, "initial": tuple(float(v) for v in initial), "dt": float(raw["dt"])})
