"""Structural health checks for computed trajectories.

Three independent probes quantify whether a stored trajectory behaves like
a Hamiltonian flow:

* energy drift - |H(p_k) - H(p_0)| per point, which the exact flow keeps
  at zero;
* equation-of-motion residual - central-difference velocities against the
  vector field at interior points, O(dt^2) for a genuine integral curve;
* symplecticity - the finite-difference Jacobian J of one step map must
  satisfy J^T Omega J = Omega.

A report also re-verifies the quaternion algebra of the structure triples
backing the system, in exact arithmetic.  All functions are pure: neither
trajectory nor system is ever mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _STEPPERS, HamiltonianSystem, PhasePoint, Trajectory, hamiltonian_vector_field
from .expressions import ExpressionError, ScalarField, evaluate
from .structures import structure_triple, verify_quaternion_relations

# energy-drift ceilings per one-step method (quadratic well, desk scale)
ENERGY_DRIFT_LIMITS = {"rk4": 1e-8, "implicit_midpoint": 1e-10}
SYMPLECTICITY_LIMIT = 1e-6
# FD step for the step-map Jacobian; a power of two keeps perturbed
# coordinates exact at unit scale
JACOBIAN_PROBE_STEP = 2.0 ** -17

ALGEBRA_KEYS = ("f_squared", "g_squared", "h_squared", "triple_product")


class DiagnosticsError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Aggregated residuals for one trajectory."""

    energy_drift_max: float
    energy_drift_series: np.ndarray
    eom_residual_max: float
    symplecticity_residual: float
    algebra_residuals: dict[str, int]

    def as_dict(self) -> dict:
        """Flat JSON-ready view of the report."""
        flat: dict = {
            "energy_drift_max": self.energy_drift_max,
            "eom_residual_max": self.eom_residual_max,
            "symplecticity_residual": self.symplecticity_residual,
            "energy_drift_series": [float(v) for v in self.energy_drift_series],
        }
        for key in ALGEBRA_KEYS:
            flat[f"algebra_residual_{key}"] = self.algebra_residuals[key]
        return flat


def energy_drift(trajectory: Trajectory, hamiltonian: ScalarField) -> tuple[np.ndarray, float]:
    """Per-point |H - H0| along the trajectory, plus its maximum."""
    energies = []
    for index, point in enumerate(trajectory.points):
        try:
            energies.append(evaluate(hamiltonian, point.coordinates))
        except ExpressionError as exc:
            raise DiagnosticsError(f"energy evaluation failed at point {index}: {exc}") from exc
    series = np.abs(np.array(energies) - energies[0])
    return series, float(series.max())


def eom_residual(trajectory: Trajectory, system: HamiltonianSystem) -> float:
    """Max-norm mismatch between central-difference velocities and X.

    Compares (p_{k+1} - p_{k-1}) / (2 dt) with X(p_k) at every interior
    point; a well-integrated smooth flow scores O(dt^2).
    """
    if len(trajectory.points) < 3:
        raise ValueError("equation-of-motion residual needs at least 3 points")
    dt = trajectory.step
    rows = trajectory.coordinate_rows
    worst = 0.0
    for k in range(1, len(trajectory.points) - 1):
        velocity = (rows[k + 1] - rows[k - 1]) / (2.0 * dt)
        field = hamiltonian_vector_field(system, rows[k])
        worst = max(worst, float(np.abs(velocity - field).max()))
    return worst


def step_jacobian(
    system: HamiltonianSystem,
    point: PhasePoint,
    dt: float,
    method: str,
    h: float = JACOBIAN_PROBE_STEP,
) -> np.ndarray:
    """Central-difference Jacobian of the one-step map at a point."""
    stepper = _STEPPERS[method]
    base = point.coordinates
    size = base.size
    jacobian = np.empty((size, size))
    for a in range(size):
        forward = base.copy()
        backward = base.copy()
        forward[a] += h
        backward[a] -= h
        plus = stepper(system, PhasePoint(forward, point.time), dt).coordinates
        minus = stepper(system, PhasePoint(backward, point.time), dt).coordinates
        jacobian[:, a] = (plus - minus) / (2.0 * h)
    return jacobian


def symplecticity_residual(
    system: HamiltonianSystem, point: PhasePoint, dt: float, method: str
) -> float:
    """Entrywise max of J^T Omega J - Omega for one step map."""
    jacobian = step_jacobian(system, point, dt, method)
    omega = system.omega.matrix
    return float(np.abs(jacobian.T @ omega @ jacobian - omega).max())


def full_report(trajectory: Trajectory, system: HamiltonianSystem) -> DiagnosticsReport:
    """Assemble every diagnostic for a trajectory.

    Symplecticity is probed at the first step only; a sweep over all steps
    costs nothing conceptually but bloats reports, so it stays a caller
    choice.  Algebra residuals take the worst case over the tangent and
    cotangent triples.
    """
    series, drift_max = energy_drift(trajectory, system.hamiltonian)
    eom_max = eom_residual(trajectory, system)
    symplectic = symplecticity_residual(system, trajectory.points[0], trajectory.step, trajectory.method)
    algebra = algebra_residuals(system)
    return DiagnosticsReport(
        energy_drift_max=drift_max,
        energy_drift_series=series,
        eom_residual_max=eom_max,
        symplecticity_residual=symplectic,
        algebra_residuals=algebra,
    )


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


def report_passes(report: DiagnosticsReport, thresholds: dict[str, float]) -> bool:
    if report.energy_drift_max > thresholds["energy_drift_max"]:
        return False
    if report.eom_residual_max > thresholds["eom_residual_max"]:
        return False
    if report.symplecticity_residual > thresholds["symplecticity_residual"]:
        return False
    return all(residual == 0 for residual in report.algebra_residuals.values())
