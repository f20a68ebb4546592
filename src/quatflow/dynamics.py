"""Hamiltonian vector fields and flow integration.

The dynamic equation pairs a scalar energy H with a constant symplectic
2-form Phi: the vector field X is the unique solution of i_X Phi = dH.
With the first-slot interior product i_X Phi (v) = X^T Omega v this reads
Omega^T X = grad H, so

    X = Omega^{-T} grad H.

Omega is the label's dual (cotangent) tensor, a signed permutation, so
Omega Omega^T = I and Omega^{-T} is Omega itself.  HamiltonianSystem.build
checks that Omega is exactly that tensor and takes its (order, signs):
(Omega v)_i = signs_i v_{order_i}.  Each field evaluation is one call of
the Hamiltonian's compiled reverse-mode gradient kernel, reordered and
signed; negation and reordering are exact, so this gives the bits of the
product Omega grad H, except that a -0.0 component stays -0.0.
Two fixed-step one-step methods integrate the flow: classical RK4, which
steps on lists of Python floats and hands each stage point to gradient as
such a list, and the implicit midpoint rule, solved by Newton iteration
with a finite-difference Jacobian and symplectic for any constant Omega.
Newton starts from the step's own point unless the caller passes a better
start; the symplecticity probe does, for its runs of neighbouring steps.
Both size a point by _scale, max(1, |x|) with an |x| that cannot overflow.
Every failed step is an IntegrationError, NewtonDivergenceError included;
the steppers check each new state through _require_finite.
States are plain coordinate vectors; the flow is autonomous, so no step
reads the time, and a trajectory's k-th state is the state at time k * dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import ScalarField, gradient
from .forms import ConstantTwoForm, symplectic_form
from .structures import LABELS, BlockDim, StructureKind, build_structure

# Newton stops once its update norm drops below NEWTON_TOL * max(1, |y|)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class IntegrationError(RuntimeError):
    """A step failed; integrate attaches the trajectory computed so far."""

    def __init__(self, message: str, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.partial = partial


class NewtonDivergenceError(IntegrationError):
    """The implicit midpoint Newton iteration ran out of iterations."""

    def __init__(self, residual_norm: float, iterations: int):
        super().__init__(
            f"implicit midpoint Newton iteration did not converge after {iterations} iterations"
            f" (last residual norm {residual_norm:.3e})"
        )
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """An energy function together with one of the three symplectic forms.

    order and signs, the label's cotangent tensor's, hold Omega as a signed
    permutation: Omega v == signs * v[order] for every vector v.
    """

    dim: BlockDim
    hamiltonian: ScalarField
    omega: ConstantTwoForm
    order: np.ndarray
    signs: np.ndarray

    @classmethod
    def build(cls, label: str, hamiltonian: ScalarField) -> "HamiltonianSystem":
        if label not in LABELS:
            raise ValueError(f"structure label must be one of {LABELS}, got {label!r}")
        omega = symplectic_form(label, hamiltonian.dim)
        dual = build_structure(StructureKind(label, "cotangent"), hamiltonian.dim)
        # the field applies Omega in place of Omega^{-T}, exact only for a signed permutation
        if not np.array_equal(omega.matrix, dual.matrix):
            raise AssertionError("Omega is not the dual structure tensor, so Omega^{-T} is not Omega")
        return cls(hamiltonian.dim, hamiltonian, omega, dual.order, dual.signs)

    @cached_property
    def _order_and_signs(self) -> tuple[list[int], list[int]]:
        """order and signs as Python lists, for the float-list RK4 step."""
        return self.order.tolist(), self.signs.tolist()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled integral curve with its defining system.

    states[k] is the phase point at time k * step; the (len, 4n) array is
    made read-only in place.
    """

    system: HamiltonianSystem
    states: np.ndarray
    step: float

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


def hamiltonian_vector_field(system: HamiltonianSystem, point: np.ndarray) -> np.ndarray:
    """Solve i_X Phi = dH at a point: X = Omega^{-T} grad H = Omega grad H."""
    return system.signs * gradient(system.hamiltonian, point)[system.order]


def vector_field_rows(system: HamiltonianSystem, points: np.ndarray) -> np.ndarray:
    """X at each row of a (k, 4n) array, one gradient call per row."""
    hamiltonian = system.hamiltonian
    grads = np.empty(points.shape)
    for k, point in enumerate(points):
        grads[k] = gradient(hamiltonian, point.tolist())
    return system.signs * grads[:, system.order]


def step_rk4(system: HamiltonianSystem, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of the flow.

    The step runs on lists of Python floats: x and each stage's gradient
    array are turned into lists once.  The stages k_i = Omega g_i are kept
    as the gradients g_i: each stage point is x_a + (h signs_a) *
    g[order_a], and k1 + 2 k2 + 2 k3 + k4 is summed as ((g1 + 2 g2) + 2 g3)
    + g4 in gradient space and permuted once.  Negation and reordering are
    exact, so these float operations, in this order, give the bits of the
    textbook formula.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    hamiltonian = system.hamiltonian
    x = x.tolist()
    order, signs = system._order_and_signs
    half = 0.5 * dt
    g1 = gradient(hamiltonian, x).tolist()
    g2 = gradient(hamiltonian, [a + (half * s) * g1[o] for a, s, o in zip(x, signs, order)]).tolist()
    g3 = gradient(hamiltonian, [a + (half * s) * g2[o] for a, s, o in zip(x, signs, order)]).tolist()
    g4 = gradient(hamiltonian, [a + (dt * s) * g3[o] for a, s, o in zip(x, signs, order)]).tolist()
    total = [((a + 2.0 * b) + 2.0 * c) + d for a, b, c, d in zip(g1, g2, g3, g4)]
    sixth = dt / 6.0
    y = [a + (sixth * s) * total[o] for a, s, o in zip(x, signs, order)]
    _require_finite(y)
    return np.array(y)


def step_implicit_midpoint(
    system: HamiltonianSystem, x: np.ndarray, dt: float, start: np.ndarray | None = None
) -> np.ndarray:
    """One implicit midpoint step, y = x + dt * X((x + y)/2).

    The nonlinear system is solved by at most NEWTON_MAX_ITER Newton
    iterations from y = start (default x), which stop once the update norm
    drops below NEWTON_TOL * max(1, |y|); the Jacobian of X is approximated
    by forward differences with h = 1e-7 * max(1, |x|), from one field call
    at each row of the midpoint tiled 4n times with h added on the
    diagonal.  Every norm is math.hypot's, which does not overflow past
    |x| ~ 1.34e154 as |x|^2 does.  A non-finite residual stops the
    iteration at once with the non-finite-state IntegrationError.  A start
    near the solution, such as the step of a nearby point shifted by the
    difference of the two points, saves iterations; it changes the result
    only within the Newton tolerance.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    size = x.size
    h = 1e-7 * _scale(x)
    eye = np.eye(size)
    diagonal = np.diag_indices(size)
    y = x if start is None else start
    for _ in range(NEWTON_MAX_ITER):
        mid = 0.5 * (x + y)
        field_mid = hamiltonian_vector_field(system, mid)
        residual = y - x - dt * field_mid
        _require_finite(residual)
        residual_norm = math.hypot(*residual.tolist())
        bumped = np.tile(mid, (size, 1))
        bumped[diagonal] += h
        jacobian = ((vector_field_rows(system, bumped) - field_mid) / h).T
        newton_matrix = eye - 0.5 * dt * jacobian
        delta = np.linalg.solve(newton_matrix, -residual)
        y = y + delta
        if math.hypot(*delta.tolist()) < NEWTON_TOL * _scale(y):
            _require_finite(y)
            return y
    raise NewtonDivergenceError(residual_norm, NEWTON_MAX_ITER)


def _scale(point: np.ndarray) -> float:
    return max(1.0, math.hypot(*point.tolist()))


def _require_finite(values) -> None:
    if not all(map(math.isfinite, values)):
        raise IntegrationError("non-finite state after step")


_STEPPERS = {"rk4": step_rk4, "implicit_midpoint": step_implicit_midpoint}
METHODS = tuple(_STEPPERS)


def integrate(
    system: HamiltonianSystem,
    initial: np.ndarray,
    dt: float,
    steps: int,
    method: str,
) -> Trajectory:
    """Repeatedly step the flow; the result includes the initial state.

    A failed step k, whether an IntegrationError of the stepper (a
    non-finite state, Newton divergence) or a ValueError such as an
    EvaluationError of the energy, aborts with IntegrationError("step k
    failed: ...") carrying the partial trajectory for diagnosis.  Every
    state is checked to be finite, so numpy's overflow and invalid-value
    warnings stay off while stepping; a FloatingPointError from a global
    np.seterr(under="raise") is a failed step too.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            try:
                states[k + 1] = stepper(system, states[k], dt)
            except (IntegrationError, ValueError, FloatingPointError) as exc:
                partial = Trajectory(system, states[: k + 1].copy(), dt)
                raise IntegrationError(f"step {k} failed: {exc}", partial=partial) from exc
    return Trajectory(system, states, dt)
