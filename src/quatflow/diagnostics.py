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
triples backing the system, in exact arithmetic, keyed as
verify_quaternion_relations keys it, and default_thresholds gives the
pass/fail ceilings; `quatflow run` combines all of them into a run's
report.  A probe raises what the layer below it raised: an energy that
cannot be evaluated raises the kernel's EvaluationError naming the
subexpression, and a failed probe step raises the stepper's
IntegrationError.  The probes run on Python floats, except that J^T Omega J
runs on numpy past NUMPY_PRODUCT_SIZE coordinates, and each maximum is
NaN if any entry is: an energy of inf gives a NaN drift and an
overflowing J^T Omega J an inf or NaN residual, each failing its gate.
All functions are pure: neither trajectory nor system is ever mutated.
"""

from __future__ import annotations

import math
from operator import mul

from . import dynamics
from .dynamics import HamiltonianSystem, Trajectory, _stepper
from .expressions import evaluate
from .structures import _generate, structure_triple, to_floats, verify_quaternion_relations

# energy-drift ceilings per one-step method (quadratic well, desk scale)
ENERGY_DRIFT_LIMITS = {"rk4": 1e-8, "implicit_midpoint": 1e-10}
SYMPLECTICITY_LIMIT = 1e-6
# FD step for the step-map Jacobian at |x| <= 1, scaled up by the smallest
# power of two >= |x| beyond; a power of two keeps perturbed coordinates
# exact at unit scale
JACOBIAN_PROBE_STEP = 2.0 ** -17
# J^T Omega J costs (4n)^3 multiply-adds; past this 4n they run on numpy,
# whose import then costs less than the Python loop
NUMPY_PRODUCT_SIZE = 160


def energy_drift(trajectory: Trajectory) -> tuple[list[float], float]:
    """Per-point |H - H0| along the trajectory, plus its maximum."""
    hamiltonian = trajectory.system.hamiltonian
    energies = [evaluate(hamiltonian, row) for row in trajectory.states]
    series = [abs(energy - energies[0]) for energy in energies]
    return series, _max(series)


def eom_residual(trajectory: Trajectory) -> float:
    """Max-norm mismatch between central-difference velocities and X.

    Compares (p_{k+1} - p_{k-1}) / (2 dt) with X(p_k) = Omega grad H(p_k) at
    every interior point; a well-integrated smooth flow scores O(dt^2).
    Each point's entries come from one row function generated from Omega's
    order and signs, entry i |(after_i - before_i) / span - signs_i g[order_i]|
    with x - (-v) written x + v, which is exact.  Each gradient is a call of
    dynamics.gradient, looked up when the probe runs.
    """
    rows = trajectory.states
    if len(rows) < 3:
        raise ValueError("equation-of-motion residual needs at least 3 points")
    system, span = trajectory.system, 2.0 * trajectory.step
    omega, gradient = system.omega, dynamics.gradient
    terms = (f"abs((a[{i}] - b[{i}]) / span {'+' if s < 0 else '-'} g[{o}])"
             for i, (o, s) in enumerate(zip(omega.order, omega.signs)))
    row = _generate(f"def row(b, g, a, span):\n    return [{', '.join(terms)}]\n", {}, "row")
    values = []
    for before, point, after in zip(rows, rows[1:-1], rows[2:]):
        values += row(before, gradient(system.hamiltonian, point), after, span)
    return _max(values)


def step_jacobian(system: HamiltonianSystem, point, dt: float, method: str) -> list[list[float]]:
    """Central-difference Jacobian of the one-step map at a point, as columns.

    The step is JACOBIAN_PROBE_STEP times the smallest power of two that is
    >= max(1, |x|), so the difference stays well above the rounding of the
    stepped states at any scale; |x| is math.hypot's, as Newton reads it,
    which cannot overflow.  Column a is read from the steps of x +- h e_a.
    Each implicit midpoint step after the first in a direction starts
    Newton from the previous step in that direction shifted by the
    difference of the two perturbed points, which is within O(h dt) of its
    solution.  Each perturbed step checks its own state is finite.
    """
    stepper = _stepper(method)
    base = list(to_floats(point, system.omega.dim.total, "point"))
    mantissa, exponent = math.frexp(max(1.0, math.hypot(*base)))
    h = math.ldexp(JACOBIAN_PROBE_STEP, exponent - (mantissa == 0.5))
    warm = method == "implicit_midpoint"
    previous = {}  # direction -> (last perturbed point, its step)
    columns = []
    for a in range(len(base)):
        for direction in (h, -h):
            perturbed = base.copy()
            perturbed[a] += direction
            if warm and a > 0:
                last_point, last_step = previous[direction]
                start = [y + (p - q) for y, p, q in zip(last_step, perturbed, last_point)]
                result = stepper(system, perturbed, dt, start=start)
            else:
                result = stepper(system, perturbed, dt)
            previous[direction] = (perturbed, result)
        columns.append([(f - b) / (2.0 * h) for f, b in zip(previous[h][1], previous[-h][1])])
    return columns


def symplecticity_residual(system: HamiltonianSystem, point, dt: float, method: str) -> float:
    """Entrywise max of J^T Omega J - Omega for one step map.

    step_jacobian gives J's columns, the rows of J^T.  Omega J is a signed
    reorder of J's rows, each column's image by omega.apply, and Omega's
    nonzero entries are signs_a at (a, order_a).  Up to NUMPY_PRODUCT_SIZE
    coordinates J^T (Omega J) runs on Python floats; past it, on numpy.
    """
    columns = step_jacobian(system, point, dt, method)
    order, signs = system.omega.order, system.omega.signs
    # a huge Jacobian overflows here; the residual then reads inf or NaN and fails its gate
    if len(columns) > NUMPY_PRODUCT_SIZE:
        import numpy as np

        jacobian_t, row_signs = np.array(columns), np.array(signs, dtype=float)
        with np.errstate(all="ignore"):
            # the index is a list: numpy reads a tuple as one index per axis
            product = jacobian_t @ (row_signs[:, None] * jacobian_t.T[list(order)])
            product[range(len(order)), order] -= row_signs
            return float(np.abs(product).max())
    images = [*map(system.omega.apply, columns)]
    return _max([abs(sum(map(mul, column, image)) - (signs[a] if b == order[a] else 0))
                 for a, column in enumerate(columns) for b, image in enumerate(images)])


def _max(values: list[float]) -> float:
    """The largest value, or NaN if any value is NaN, as np.max reads it."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def algebra_residuals(system: HamiltonianSystem) -> dict[str, int]:
    """Quaternion-relation residuals, worst case over both triples."""
    tangent = verify_quaternion_relations(*structure_triple("tangent", system.omega.dim))
    cotangent = verify_quaternion_relations(*structure_triple("cotangent", system.omega.dim))
    return {key: max(value, cotangent[key]) for key, value in tangent.items()}


def default_thresholds(method: str, dt: float, tolerance_scale: float = 1.0) -> dict[str, float]:
    """Pass/fail ceilings for a run: drift per method, EOM scaled as dt^2."""
    _stepper(method)  # an unknown method raises integrate's ValueError
    return {
        "energy_drift_max": ENERGY_DRIFT_LIMITS[method] * tolerance_scale,
        "eom_residual_max": dt * dt * tolerance_scale,
        "symplecticity_residual": SYMPLECTICITY_LIMIT * tolerance_scale,
    }
