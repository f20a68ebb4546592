"""Structural health checks for computed trajectories.

Three independent probes quantify whether a stored trajectory behaves like
a Hamiltonian flow:

* energy drift - |H(p_k) - H(p_0)| per point, which the exact flow keeps
  at zero;
* equation-of-motion residual - central-difference velocities against the
  vector field at interior points, O(dt^2) for a genuine integral curve;
* symplecticity - the central-difference Jacobian J of one step map, with
  a step that grows with |x| past 1, must satisfy J^T Omega J = Omega; its
  implicit midpoint steps start Newton from their neighbour's step.

algebra_residuals re-verifies the quaternion algebra of the structure
triples backing the system, in exact arithmetic, and default_thresholds
gives the pass/fail ceilings; `quatflow run` combines all of them into a
run's report.  A probe raises what the layer below it raised: an energy
that cannot be evaluated raises the kernel's EvaluationError naming the
subexpression, and a failed probe step raises the stepper's
IntegrationError.  All functions are pure: neither trajectory nor system
is ever mutated.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import _STEPPERS, HamiltonianSystem, Trajectory, _scale, vector_field_rows
from .expressions import evaluate
from .structures import structure_triple, verify_quaternion_relations

# energy-drift ceilings per one-step method (quadratic well, desk scale)
ENERGY_DRIFT_LIMITS = {"rk4": 1e-8, "implicit_midpoint": 1e-10}
SYMPLECTICITY_LIMIT = 1e-6
# FD step for the step-map Jacobian at |x| <= 1, scaled up by the smallest
# power of two >= |x| beyond; a power of two keeps perturbed coordinates
# exact at unit scale
JACOBIAN_PROBE_STEP = 2.0 ** -17


def energy_drift(trajectory: Trajectory) -> tuple[np.ndarray, float]:
    """Per-point |H - H0| along the trajectory, plus its maximum."""
    hamiltonian = trajectory.system.hamiltonian
    energies = np.empty(len(trajectory.states))
    for index, state in enumerate(trajectory.states):
        energies[index] = evaluate(hamiltonian, state.tolist())
    series = np.abs(energies - energies[0])
    return series, float(series.max())


def eom_residual(trajectory: Trajectory) -> float:
    """Max-norm mismatch between central-difference velocities and X.

    Compares (p_{k+1} - p_{k-1}) / (2 dt) with X(p_k) at every interior
    point; a well-integrated smooth flow scores O(dt^2).
    """
    rows = trajectory.states
    if len(rows) < 3:
        raise ValueError("equation-of-motion residual needs at least 3 points")
    velocities = (rows[2:] - rows[:-2]) / (2.0 * trajectory.step)
    return float(np.abs(velocities - vector_field_rows(trajectory.system, rows[1:-1])).max())


def step_jacobian(system: HamiltonianSystem, point: np.ndarray, dt: float, method: str) -> np.ndarray:
    """Central-difference Jacobian of the one-step map at a point.

    The step is JACOBIAN_PROBE_STEP times the smallest power of two that is
    >= max(1, |x|), so the difference stays well above the rounding of the
    stepped states at any scale; the size is the steppers' _scale, which
    cannot overflow.  Column a is read from the steps of x +- h e_a.
    Each implicit midpoint step after the first in a direction starts
    Newton from the previous step in that direction shifted by the
    difference of the two perturbed points, which is within O(h dt) of its
    solution.  Each perturbed step checks its own state is finite, so
    numpy's overflow and invalid-value warnings stay off while probing.
    """
    stepper = _STEPPERS[method]
    base = np.asarray(point, dtype=np.float64)
    size = base.size
    mantissa, exponent = math.frexp(_scale(base))
    h = math.ldexp(JACOBIAN_PROBE_STEP, exponent - (mantissa == 0.5))
    warm = method == "implicit_midpoint"
    previous = {}  # direction -> (last perturbed point, its step)
    jacobian = np.empty((size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(size):
            for direction in (h, -h):
                perturbed = base.copy()
                perturbed[a] += direction
                if warm and a > 0:
                    last_point, last_step = previous[direction]
                    result = stepper(system, perturbed, dt, start=last_step + (perturbed - last_point))
                else:
                    result = stepper(system, perturbed, dt)
                previous[direction] = (perturbed, result)
            jacobian[:, a] = (previous[h][1] - previous[-h][1]) / (2.0 * h)
    return jacobian


def symplecticity_residual(
    system: HamiltonianSystem, point: np.ndarray, dt: float, method: str
) -> float:
    """Entrywise max of J^T Omega J - Omega for one step map."""
    jacobian = step_jacobian(system, point, dt, method)
    omega = system.omega.matrix
    return float(np.abs(jacobian.T @ omega @ jacobian - omega).max())


def algebra_residuals(system: HamiltonianSystem) -> dict[str, int]:
    """Quaternion-relation residuals, worst case over both triples."""
    tangent = verify_quaternion_relations(*structure_triple("tangent", system.dim))
    cotangent = verify_quaternion_relations(*structure_triple("cotangent", system.dim))
    return {
        "f_squared": max(tangent.f_squared, cotangent.f_squared),
        "g_squared": max(tangent.g_squared, cotangent.g_squared),
        "h_squared": max(tangent.h_squared, cotangent.h_squared),
        "triple_product": max(tangent.triple_product, cotangent.triple_product),
    }


def default_thresholds(method: str, dt: float, tolerance_scale: float = 1.0) -> dict[str, float]:
    """Pass/fail ceilings for a run: drift per method, EOM scaled as dt^2."""
    return {
        "energy_drift_max": ENERGY_DRIFT_LIMITS[method] * tolerance_scale,
        "eom_residual_max": dt * dt * tolerance_scale,
        "symplecticity_residual": SYMPLECTICITY_LIMIT * tolerance_scale,
    }
