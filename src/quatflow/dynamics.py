"""Hamiltonian vector fields and flow integration.

The dynamic equation pairs a scalar energy H with a constant symplectic
2-form Phi: the vector field X is the unique solution of i_X Phi = dH.
With the first-slot interior product i_X Phi (v) = X^T Omega v this reads
Omega^T X = grad H, so

    X = Omega^{-T} grad H.

Omega is a skew signed permutation here, so its inverse transpose is again
a signed permutation computed once per system; each field evaluation is one
call of the Hamiltonian's compiled reverse-mode gradient kernel plus one
matrix-vector product.  Two fixed-step one-step
methods integrate the flow: classical RK4 and the implicit midpoint rule,
the latter solved by Newton iteration with a finite-difference Jacobian
and symplectic for any constant Omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ExpressionError, Gradient, ScalarField, gradient
from .forms import ConstantTwoForm, symplectic_form
from .structures import LABELS, BlockDim

METHODS = ("rk4", "implicit_midpoint")

DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_NEWTON_MAX_ITER = 50


class IntegrationError(RuntimeError):
    """A step produced an unusable state; carries what was computed so far."""

    def __init__(self, message: str, step_index: int | None = None, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.step_index = step_index
        self.partial = partial


class NewtonDivergenceError(RuntimeError):
    def __init__(self, residual_norm: float, iterations: int):
        super().__init__(
            f"implicit midpoint Newton iteration did not converge after {iterations} iterations"
            f" (last residual norm {residual_norm:.3e})"
        )
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point of the phase space R^{4n} at a given time."""

    coordinates: np.ndarray
    time: float

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=np.float64)
        if coords.ndim != 1 or coords.size == 0:
            raise ValueError("coordinates must be a nonempty 1-D vector")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        if not np.isfinite(self.time):
            raise ValueError("time must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """An energy function together with one of the three symplectic forms."""

    dim: BlockDim
    structure_label: str
    hamiltonian: ScalarField
    omega: ConstantTwoForm
    omega_inverse_transpose: np.ndarray

    @classmethod
    def build(cls, structure_label: str, hamiltonian: ScalarField) -> "HamiltonianSystem":
        if structure_label not in LABELS:
            raise ValueError(f"structure label must be one of {LABELS}, got {structure_label!r}")
        omega = symplectic_form(structure_label, hamiltonian.dim)
        inverse_transpose = signed_permutation_inverse(omega.matrix.T)
        eye = np.eye(hamiltonian.dim.total)
        if not np.array_equal(inverse_transpose @ omega.matrix.T, eye):
            raise AssertionError("cached solver failed the exact inverse check")
        inverse_transpose.flags.writeable = False
        return cls(
            dim=hamiltonian.dim,
            structure_label=structure_label,
            hamiltonian=hamiltonian,
            omega=omega,
            omega_inverse_transpose=inverse_transpose,
        )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled integral curve with its defining system."""

    system: HamiltonianSystem
    points: tuple[PhasePoint, ...]
    step: float
    method: str

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if not self.points:
            raise ValueError("trajectory needs at least one point")
        times = [p.time for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("timestamps must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([p.time for p in self.points])

    @property
    def coordinate_rows(self) -> np.ndarray:
        return np.array([p.coordinates for p in self.points])


def signed_permutation_inverse(matrix: np.ndarray) -> np.ndarray:
    """Exact inverse of a signed permutation matrix (its transpose)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isin(m, (-1.0, 0.0, 1.0)).all():
        raise ValueError("matrix entries must be in {-1, 0, +1}")
    support = np.abs(m)
    if (support.sum(axis=0) != 1).any() or (support.sum(axis=1) != 1).any():
        raise ValueError("matrix must have exactly one nonzero entry per row and column")
    return m.T.copy()


def _field_at(system: HamiltonianSystem, coords: np.ndarray) -> np.ndarray:
    grad = gradient(system.hamiltonian, coords)
    return system.omega_inverse_transpose @ grad.components


def hamiltonian_vector_field(system: HamiltonianSystem, point: PhasePoint | np.ndarray) -> np.ndarray:
    """Solve i_X Phi = dH at a point: X = Omega^{-T} grad H."""
    coords = point.coordinates if isinstance(point, PhasePoint) else np.asarray(point, dtype=np.float64)
    if coords.shape != (system.dim.total,):
        raise ValueError(f"point must have length {system.dim.total}")
    return _field_at(system, coords)


def reference_field_formula(label: str, grad: Gradient) -> np.ndarray:
    """Blockwise transcription of the three displayed vector fields.

    Kept as an independent oracle against the generic solve above; both
    must agree exactly for every label and gradient.
    """
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    n = grad.dim.n
    g = grad.components
    block = [g[k * n:(k + 1) * n] for k in range(4)]
    if label == "F":
        parts = (-block[1], block[0], -block[3], block[2])
    elif label == "G":
        parts = (-block[2], block[3], block[0], -block[1])
    else:
        parts = (-block[3], -block[2], block[1], block[0])
    return np.concatenate(parts)


def step_rk4(system: HamiltonianSystem, point: PhasePoint, dt: float) -> PhasePoint:
    """One classical fourth-order Runge-Kutta step of the flow."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = point.coordinates
    k1 = _field_at(system, x)
    k2 = _field_at(system, x + 0.5 * dt * k1)
    k3 = _field_at(system, x + 0.5 * dt * k2)
    k4 = _field_at(system, x + dt * k3)
    new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _finite_point(new, point.time + dt)


def step_implicit_midpoint(
    system: HamiltonianSystem,
    point: PhasePoint,
    dt: float,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER,
) -> PhasePoint:
    """One implicit midpoint step, y = x + dt * X((x + y)/2).

    The nonlinear system is solved by Newton iteration; the Jacobian of X
    is approximated by forward differences with h = 1e-7 * max(1, |x|).
    Convergence means the Newton update norm dropped below newton_tol.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if newton_tol <= 0.0:
        raise ValueError(f"newton_tol must be positive, got {newton_tol}")
    x = point.coordinates
    size = x.size
    h = 1e-7 * max(1.0, float(np.linalg.norm(x)))
    eye = np.eye(size)
    y = x.copy()
    residual_norm = None
    for _ in range(newton_max_iter):
        mid = 0.5 * (x + y)
        field_mid = _field_at(system, mid)
        residual = y - x - dt * field_mid
        residual_norm = float(np.linalg.norm(residual))
        jacobian = np.empty((size, size))
        for a in range(size):
            bumped = mid.copy()
            bumped[a] += h
            jacobian[:, a] = (_field_at(system, bumped) - field_mid) / h
        newton_matrix = eye - 0.5 * dt * jacobian
        delta = np.linalg.solve(newton_matrix, -residual)
        y = y + delta
        if float(np.linalg.norm(delta)) < newton_tol:
            return _finite_point(y, point.time + dt)
    if residual_norm is None:
        mid = 0.5 * (x + y)
        residual_norm = float(np.linalg.norm(y - x - dt * _field_at(system, mid)))
    raise NewtonDivergenceError(residual_norm, newton_max_iter)


def _finite_point(coords: np.ndarray, time: float) -> PhasePoint:
    if not np.isfinite(coords).all():
        raise IntegrationError("non-finite state after step")
    return PhasePoint(coords, time)


_STEPPERS = {"rk4": step_rk4, "implicit_midpoint": step_implicit_midpoint}


def integrate(
    system: HamiltonianSystem,
    initial: PhasePoint,
    dt: float,
    steps: int,
    method: str,
) -> Trajectory:
    """Repeatedly step the flow; the result includes the initial point.

    Any step failure aborts with the partial trajectory attached to the
    raised IntegrationError for diagnosis.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if initial.coordinates.shape != (system.dim.total,):
        raise ValueError(f"initial point must have length {system.dim.total}")
    stepper = _STEPPERS[method]
    points = [initial]
    for k in range(steps):
        try:
            points.append(stepper(system, points[-1], dt))
        except (ExpressionError, NewtonDivergenceError, IntegrationError, FloatingPointError, ValueError) as exc:
            partial = Trajectory(system, tuple(points), dt, method)
            raise IntegrationError(f"step {k} failed: {exc}", step_index=k, partial=partial) from exc
    return Trajectory(system, tuple(points), dt, method)
