"""Hamiltonian vector fields and flow integration.

The dynamic equation pairs a scalar energy H with a constant symplectic
2-form Phi: the vector field X is the unique solution of i_X Phi = dH.
With the first-slot interior product i_X Phi (v) = X^T Omega v this reads
Omega^T X = grad H, so

    X = Omega^{-T} grad H.

Omega is a skew signed permutation here, so Omega Omega^T = I and
Omega^{-T} is Omega itself; HamiltonianSystem.build checks this exactly.
Each field evaluation is one call of the Hamiltonian's compiled
reverse-mode gradient kernel plus one matrix-vector product with Omega.
Two fixed-step one-step methods integrate the flow: classical RK4 and the
implicit midpoint rule, the latter solved by Newton iteration with a
finite-difference Jacobian and symplectic for any constant Omega.  States
are plain coordinate vectors; the flow is autonomous, so no step reads the
time, and a trajectory's k-th state is the state at time k * dt.
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
class HamiltonianSystem:
    """An energy function together with one of the three symplectic forms."""

    dim: BlockDim
    structure_label: str
    hamiltonian: ScalarField
    omega: ConstantTwoForm

    @classmethod
    def build(cls, structure_label: str, hamiltonian: ScalarField) -> "HamiltonianSystem":
        if structure_label not in LABELS:
            raise ValueError(f"structure label must be one of {LABELS}, got {structure_label!r}")
        omega = symplectic_form(structure_label, hamiltonian.dim)
        # the field applies Omega in place of Omega^{-T}, exact only if Omega is orthogonal
        if not np.array_equal(omega.matrix @ omega.matrix.T, np.eye(hamiltonian.dim.total)):
            raise AssertionError("Omega Omega^T != I, so Omega^{-T} is not Omega")
        return cls(
            dim=hamiltonian.dim,
            structure_label=structure_label,
            hamiltonian=hamiltonian,
            omega=omega,
        )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled integral curve with its defining system.

    states[k] is the phase point at time k * step; the (len, 4n) array is
    made read-only in place.
    """

    system: HamiltonianSystem
    states: np.ndarray
    step: float
    method: str

    def __post_init__(self) -> None:
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] == 0 or states.shape[1] != self.system.dim.total:
            raise ValueError(f"states must be a nonempty (k, {self.system.dim.total}) array")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.states))


def _field_at(system: HamiltonianSystem, coords: np.ndarray) -> np.ndarray:
    grad = gradient(system.hamiltonian, coords)
    return system.omega.matrix @ grad.components


def hamiltonian_vector_field(system: HamiltonianSystem, point: np.ndarray) -> np.ndarray:
    """Solve i_X Phi = dH at a point: X = Omega^{-T} grad H = Omega grad H."""
    coords = np.asarray(point, dtype=np.float64)
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


def step_rk4(system: HamiltonianSystem, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of the flow."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = _field_at(system, x)
    k2 = _field_at(system, x + 0.5 * dt * k1)
    k3 = _field_at(system, x + 0.5 * dt * k2)
    k4 = _field_at(system, x + dt * k3)
    new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _finite_state(new)


def step_implicit_midpoint(
    system: HamiltonianSystem,
    x: np.ndarray,
    dt: float,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER,
) -> np.ndarray:
    """One implicit midpoint step, y = x + dt * X((x + y)/2).

    The nonlinear system is solved by Newton iteration; the Jacobian of X
    is approximated by forward differences with h = 1e-7 * max(1, |x|).
    Convergence means the Newton update norm dropped below newton_tol.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if newton_tol <= 0.0:
        raise ValueError(f"newton_tol must be positive, got {newton_tol}")
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
            return _finite_state(y)
    if residual_norm is None:
        mid = 0.5 * (x + y)
        residual_norm = float(np.linalg.norm(y - x - dt * _field_at(system, mid)))
    raise NewtonDivergenceError(residual_norm, newton_max_iter)


def _finite_state(coords: np.ndarray) -> np.ndarray:
    if not np.isfinite(coords).all():
        raise IntegrationError("non-finite state after step")
    return coords


_STEPPERS = {"rk4": step_rk4, "implicit_midpoint": step_implicit_midpoint}


def integrate(
    system: HamiltonianSystem,
    initial: np.ndarray,
    dt: float,
    steps: int,
    method: str,
) -> Trajectory:
    """Repeatedly step the flow; the result includes the initial state.

    Any step failure aborts with the partial trajectory attached to the
    raised IntegrationError for diagnosis.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x0 = np.asarray(initial, dtype=np.float64)
    if x0.shape != (system.dim.total,):
        raise ValueError(f"initial point must have length {system.dim.total}")
    if not np.isfinite(x0).all():
        raise ValueError("initial point must be finite")
    stepper = _STEPPERS[method]
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    for k in range(steps):
        try:
            states[k + 1] = stepper(system, states[k], dt)
        except (ExpressionError, NewtonDivergenceError, IntegrationError, FloatingPointError, ValueError) as exc:
            partial = Trajectory(system, states[: k + 1].copy(), dt, method)
            raise IntegrationError(f"step {k} failed: {exc}", step_index=k, partial=partial) from exc
    return Trajectory(system, states, dt, method)
