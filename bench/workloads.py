"""Workload definitions, seeded config generation and the closed-form reference.

Every workload uses a radial energy H = g(S) with S = |x|^2.  For F, G and H
the matrix Omega satisfies Omega^2 = -I and Omega^T = -Omega, so
Omega^{-T} = Omega and the field X = Omega^{-T} grad H = 2 g'(S) Omega x
keeps S constant.  The exact flow is therefore the rotation

    x(t) = cos(w t) x0 + sin(w t) Omega x0,   w = 2 g'(|x0|^2),

which every run's final trajectory row is checked against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# |x0| for every generated initial state.  At this amplitude w stays below
# 1.7 for every energy below, so the absolute dt^2 equation-of-motion gate
# passes with at least a factor 2 to spare; an unscaled uniform draw at
# n = 4 gave w ~ 2.3 and failed that gate.
AMPLITUDE = 0.8


@dataclass(frozen=True)
class Energy:
    """A radial energy g(S): its expression template and the derivative g'."""

    template: str  # "{S}" stands for (x1^2+...+x{4n}^2)
    g_prime: Callable[[float], float]

    def text(self, n: int) -> str:
        squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
        return self.template.format(S=f"({squares})")


QUADRATIC = Energy("0.5*{S}", lambda s: 0.5)
QUARTIC = Energy("0.25*(1+{S})^2", lambda s: 0.5 * (1.0 + s))
EXPONENTIAL = Energy("exp(0.5*{S})", lambda s: 0.5 * math.exp(0.5 * s))
ROOT = Energy("sqrt(1+{S})", lambda s: 0.5 / math.sqrt(1.0 + s))


@dataclass(frozen=True)
class RunSpec:
    """One configured run; the initial state is drawn later from the seed."""

    name: str
    n: int
    structure: str
    energy: Energy
    method: str
    dt: float
    steps: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: bool  # run all specs through one `quatflow run --batch DIR`
    specs: tuple[RunSpec, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_rk4_n1",
            "per-step and per-point work: 4000 RK4 steps at n = 1, tiny gradients,"
            " energy and EOM at every point, a ~480 KB CSV; no Newton",
            batch=False,
            specs=(RunSpec("long", 1, "F", QUARTIC, "rk4", 0.01, 4000),),
        ),
        Workload(
            "midpoint_n4",
            "implicit midpoint at n = 4 with a function node: the FD Newton Jacobian"
            " and the 32-solve symplecticity probe dominate; CSV and energy negligible",
            batch=False,
            specs=(RunSpec("mid", 4, "G", EXPONENTIAL, "implicit_midpoint", 0.05, 12),),
        ),
        Workload(
            "batch_mixed",
            "run --batch over 6 configs: both methods, F/G/H, n in {1, 2, 8}; many"
            " config loads, small artifact sets and run_batch's thread pool",
            batch=True,
            specs=(
                RunSpec("b1_rk4_n1", 1, "F", QUADRATIC, "rk4", 0.01, 200),
                RunSpec("b2_mid_n1", 1, "G", ROOT, "implicit_midpoint", 0.05, 20),
                RunSpec("b3_rk4_n2", 2, "H", QUARTIC, "rk4", 0.01, 100),
                RunSpec("b4_mid_n2", 2, "F", EXPONENTIAL, "implicit_midpoint", 0.05, 4),
                RunSpec("b5_rk4_n8", 8, "G", EXPONENTIAL, "rk4", 0.02, 8),
                RunSpec("b6_rk4_n2", 2, "G", ROOT, "rk4", 0.02, 60),
            ),
        ),
    )
}


def initial_state(n: int, rng: random.Random) -> list[float]:
    """Random signs with equal magnitudes, scaled to |x0| = AMPLITUDE.

    Omega is a signed permutation and x0 is orthogonal to Omega x0, so every
    component of the error a*x0 + b*Omega*x0 has magnitude |a| or |b| times
    the same constant: the max-norm flow error does not depend on which
    signs the seed draws, only on the method and step.
    """
    size = 4 * n
    magnitude = AMPLITUDE / math.sqrt(size)
    return [magnitude if rng.random() < 0.5 else -magnitude for _ in range(size)]


def make_config(spec: RunSpec, initial: list[float], prefix: str) -> dict:
    return {
        "n": spec.n,
        "structure": spec.structure,
        "hamiltonian": spec.energy.text(spec.n),
        "initial": initial,
        "dt": spec.dt,
        "steps": spec.steps,
        "method": spec.method,
        "output_prefix": prefix,
        "emit_plot": False,
    }


def frequency(spec: RunSpec, initial: list[float]) -> float:
    """w = 2 g'(|x0|^2), the angular speed of the exact rotation flow."""
    return 2.0 * spec.energy.g_prime(sum(v * v for v in initial))


def flow_tolerance(spec: RunSpec, initial: list[float]) -> float:
    """Stated ceiling for |x_final - x_exact(T)|_inf: 10x the leading phase error.

    The leading global phase error of a rotation at speed w over T = steps*dt
    is T w^5 dt^4 / 120 for RK4 and T w^3 dt^2 / 12 for the implicit
    midpoint rule; it moves a point of radius |x0| by about |x0| times that.
    For energies that are not quadratic the amplitude error feeds back into
    w, which makes the RK4 error up to ~3x that estimate, hence the factor.
    """
    w = frequency(spec, initial)
    horizon = spec.steps * spec.dt
    if spec.method == "rk4":
        phase = horizon * w**5 * spec.dt**4 / 120.0
    else:
        phase = horizon * w**3 * spec.dt**2 / 12.0
    return 10.0 * AMPLITUDE * phase + 1e-12


def exact_final_state(spec: RunSpec, initial: list[float], omega) -> list[float]:
    """cos(wT) x0 + sin(wT) Omega x0 at T = steps * dt."""
    w = frequency(spec, initial)
    angle = w * spec.steps * spec.dt
    rotated = omega @ initial
    return [math.cos(angle) * a + math.sin(angle) * float(b) for a, b in zip(initial, rotated)]
