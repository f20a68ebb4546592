"""Hamiltonian vector fields and flow integration.

The dynamic equation pairs a scalar energy H with a constant symplectic
2-form Phi: the vector field X is the unique solution of i_X Phi = dH.
With the first-slot interior product i_X Phi (v) = X^T Omega v this reads
Omega^T X = grad H, so

    X = Omega^{-T} grad H.

Omega is the label's dual (cotangent) tensor, a signed permutation, so
Omega Omega^T = I and Omega^{-T} is Omega itself.  HamiltonianSystem.build
checks that Omega is exactly that tensor and holds it as the system's omega:
(Omega v)_i = signs_i v_{order_i}.  Each field evaluation is one call of
the Hamiltonian's compiled reverse-mode gradient kernel, whose list the
tensor's generated omega.apply reorders and signs; that is exact, so it
gives the bits of the product Omega grad H, except that a -0.0 component
stays -0.0.
Two fixed-step one-step methods integrate the flow on Python floats:
classical RK4 and the implicit midpoint rule, solved by Newton iteration
with a finite-difference Jacobian and symplectic for any constant Omega.
Up to NUMPY_SOLVE_SIZE = 16 coordinates (n <= 4) its Newton system is
solved on floats by gaussian_solve; past it, by numpy, which the module
imports there alone.  Newton stops at an update below NEWTON_TOL times
max(1, |y|), or once the last two updates contract and predict the next
below the rounding of y, 2^-52 |y|.  Every norm is math.hypot's, which
cannot overflow.
Every failed step is an IntegrationError, NewtonDivergenceError included;
the steppers check that each new state is finite, as _require_finite
does, and return it as a list of floats.  The flow is autonomous, so no
step reads the time, and a trajectory's k-th state is the state at time
k * dt.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._records import Record
from .expressions import ScalarField, gradient
from .forms import symplectic_form
from .structures import LABELS, StructureKind, StructureTensor, _generate, _read_point, build_structure, to_floats

# Newton stops once its update norm drops below NEWTON_TOL * max(1, |y|),
# or once the next update is predicted below 2^-52 |y| (step_implicit_midpoint)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# up to this 4n the Newton matrix is solved on floats, which spares a run
# numpy's import (about 60 ms); a float solve makes a 3-iteration step
# about 0.13 ms slower at n = 3 and 0.3 ms at n = 4, so the import pays for
# ~460 and ~200 steps, far more than the probe's 8n solves, while at n = 8
# it pays for ~32 steps and the probe's 64 solves, 2 iterations each,
# already outgrow it (README)
NUMPY_SOLVE_SIZE = 16


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


class HamiltonianSystem(Record):
    """An energy function together with one of the three symplectic forms.

    omega, the label's cotangent tensor, holds Omega as a signed permutation,
    (Omega v)_i == omega.signs[i] * v[omega.order[i]], with its label and dim.
    _rk4_step, built when step_rk4 first reads it and left out of a pickle,
    is that step's arithmetic as one function generated from omega by
    _rk4_source.
    """

    __match_args__ = ("hamiltonian", "omega")

    @cached_property
    def _rk4_step(self):
        return _generate(_rk4_source(self.omega), {"IntegrationError": IntegrationError, "to_floats": to_floats}, "rk4")

    @classmethod
    def build(cls, label: str, hamiltonian: ScalarField) -> "HamiltonianSystem":
        if label not in LABELS:
            raise ValueError(f"structure label must be one of {LABELS}, got {label!r}")
        omega = build_structure(StructureKind(label, "cotangent"), hamiltonian.dim)
        # the field applies Omega in place of Omega^{-T}, exact only for a signed permutation
        if symplectic_form(label, hamiltonian.dim).rows != omega.rows:
            raise AssertionError("Omega is not the dual structure tensor, so Omega^{-T} is not Omega")
        return cls(hamiltonian, omega)


class Trajectory(Record):
    """A uniformly sampled integral curve with its defining system.

    states[k], a tuple of 4n Python floats, is the phase point at time k * step.
    Trajectory(...) reads each row by to_floats, which checks its length;
    integrate builds its record from rows it has already checked, without
    that second pass.
    """

    __match_args__ = ("system", "states", "step")

    def __init__(self, system: HamiltonianSystem, states, step: float) -> None:
        states = tuple(to_floats(row, system.omega.dim.total, "each state") for row in states)
        if not (step > 0.0 and states):
            raise ValueError("a trajectory needs a positive step and at least one state")
        self._set(system, states, step)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self.step * k for k in range(len(self.states)))


def hamiltonian_vector_field(system: HamiltonianSystem, point) -> list[float]:
    """Solve i_X Phi = dH at a point: X = Omega^{-T} grad H = Omega grad H, by omega.apply."""
    return system.omega.apply(gradient(system.hamiltonian, point))


def step_rk4(system: HamiltonianSystem, x, dt: float) -> list[float]:
    """One classical fourth-order Runge-Kutta step of the flow.

    The step runs on Python floats, x best a list or tuple of them.  Its
    arithmetic and the check of its state are system._rk4_step,
    straight-line code with Omega's signs as operators (_rk4_source), handed
    this module's gradient, read when the step runs, for its four gradient
    calls; it first reads x as the kernel reads a point, with its errors.  The
    stages k_i = Omega g_i are kept as the gradients g_i: each stage point
    is x_a + h g[order_a], or x_a - h g[order_a] where signs_a is -1, and
    k1 + 2 k2 + 2 k3 + k4 is summed as ((g1 + 2 g2) + 2 g3) + g4 in gradient
    space and shifted once.  Negation and reordering are exact, so these
    float operations, in this order, give the bits of the textbook formula.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return system._rk4_step(gradient, system.hamiltonian, x, dt)


def _rk4_source(omega: StructureTensor) -> str:
    """Source of rk4(gradient, hamiltonian, x, dt), step_rk4 without its dt check.

    x and the first three stage gradients, each read more than once, are
    unpacked into locals x0.., a0.., b0.., c0..; the last gradient, read
    once, is indexed.  Component i of each stage point and of the update
    is x{i} + h*... where signs_i is 1 and x{i} - h*... where it is -1, as
    the EOM row writes its signs; x - h*v is x + (-h)*v bit for bit, signed
    zeros included.  h is 0.5 * dt, 0.5 * dt, dt and dt / 6.0 in turn.  The
    new state's components y0.. are checked as _require_finite checks a
    state, each by -1e999 < y < 1e999, which no NaN or infinity passes.
    """
    terms = [("+" if s > 0 else "-", o) for o, s in zip(omega.order, omega.signs)]

    def names(p: str) -> str:
        return ", ".join(f"{p}{i}" for i in range(len(terms)))

    def point(p: str) -> str:  # x + h Omega g for the stage gradient g unpacked as p0..
        return "[" + ", ".join(f"x{i} {op} h*{p}{o}" for i, (op, o) in enumerate(terms)) + "]"

    update = [f"    y{i} = x{i} {op} h*(a{o} + 2.0*b{o} + 2.0*c{o} + g[{o}])" for i, (op, o) in enumerate(terms)]
    return "\n".join([
        "def rk4(gradient, hamiltonian, x, dt):",
        *(f"    {line}" for line in _read_point([f"x{i}" for i in range(len(terms))])),
        f"    {names('a')}, = gradient(hamiltonian, x)",
        "    h = 0.5 * dt",
        f"    {names('b')}, = gradient(hamiltonian, {point('a')})",
        f"    {names('c')}, = gradient(hamiltonian, {point('b')})",
        "    h = dt",
        f"    g = gradient(hamiltonian, {point('c')})",
        "    h = dt / 6.0",
        *update,
        "    if " + " and ".join(f"-1e999 < y{i} < 1e999" for i in range(len(terms))) + ":",
        f"        return [{names('y')}]",
        "    raise IntegrationError('non-finite state after step')",
    ]) + "\n"


def step_implicit_midpoint(system: HamiltonianSystem, x, dt: float, start=None) -> list[float]:
    """One implicit midpoint step, y = x + dt * X((x + y)/2).

    At most NEWTON_MAX_ITER Newton iterations on Python floats from
    y = start (default x) stop once the update norm |d_k| drops below
    NEWTON_TOL * max(1, |y|), or once the last two updates contract,
    theta = |d_k| / |d_{k-1}| < 1, and the updates still to come, which sum
    to at most theta / (1 - theta) |d_k| while they contract so (Hairer and
    Wanner, Solving ODEs II, IV.8), are predicted to move y by no more than
    its rounding, 2^-52 |y|.  The second stop only adds to the first, so no
    step takes more iterations than the first alone would; both read the
    iteration's one |y|.  As in step_rk4, X = Omega g is kept as the
    gradient g; the forward-difference Jacobian of X, bumping coordinate a
    by h_a = 1e-7 * max(1, |x_a|), takes one gradient per bumped coordinate,
    divides row a of the differences by h_a and applies Omega once to the
    matrix.  Up to NUMPY_SOLVE_SIZE coordinates the Newton matrix
    I - dt/2 J is built and solved on floats, by gaussian_solve; past it,
    on numpy, run with every numpy float error ignored, the step's only
    numpy code.  Both paths give the matrix the same bits.  Norms are
    math.hypot's, which does not overflow past |x| ~ 1.34e154 as |x|^2 does.  A
    non-finite residual stops the iteration at once with the non-finite-state
    IntegrationError.  A start must have x's length, else ValueError; one near
    the solution saves iterations and moves y only within the tolerance.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    hamiltonian, apply = system.hamiltonian, system.omega.apply
    x = to_floats(x, system.omega.dim.total, "point")
    y = x if start is None else to_floats(start, len(x), "start")
    h = [1e-7 * max(1.0, abs(a)) for a in x]
    newton_update = _float_newton_update if len(x) <= NUMPY_SOLVE_SIZE else _numpy_newton_update
    previous = math.nan  # no contraction estimate before the second update: nan < 1.0 is false
    for _ in range(NEWTON_MAX_ITER):
        mid = [0.5 * (a + b) for a, b in zip(x, y)]
        g = gradient(hamiltonian, mid)
        residual = [b - a - dt * v for a, b, v in zip(x, y, apply(g))]
        _require_finite(residual)
        residual_norm = math.hypot(*residual)
        rows = [gradient(hamiltonian, mid[:a] + [mid[a] + h[a]] + mid[a + 1:]) for a in range(len(mid))]
        delta = newton_update(system, rows, g, h, dt, residual)
        y = [b + d for b, d in zip(y, delta)]
        size, norm = math.hypot(*y), math.hypot(*delta)
        theta = norm / previous
        if norm < NEWTON_TOL * max(1.0, size) or (theta < 1.0 and theta / (1.0 - theta) * norm <= 2.0 ** -52 * size):
            _require_finite(y)
            return y
        previous = norm
    raise NewtonDivergenceError(residual_norm, NEWTON_MAX_ITER)


def _float_newton_update(system, rows, g, h, dt, residual) -> list[float]:
    """Solve (I - dt/2 J) delta = -residual on floats, J[i][a] = s_i (rows[a] - g)[o_i] / h_a.

    Row i holds 0.0 + k v with k = -(dt/2) s_i, a factor kept (the RK4 step
    writes signs as operators) so that each entry has the bits of numpy's
    I - dt/2 J: k v is -((dt/2) (s_i v)) exactly, and 0.0 + (-e) is numpy's
    0.0 - e, signed zeros included; row i's 1.0 is added to it, giving 1.0 - e.
    """
    half = 0.5 * dt
    matrix = []
    for i, (o, s) in enumerate(zip(system.omega.order, system.omega.signs)):
        base, k = g[o], -half * s
        row = [0.0 + k * ((r[o] - base) / step) for r, step in zip(rows, h)]
        row[i] += 1.0
        matrix.append(row)
    return gaussian_solve(matrix, [-r for r in residual])


def _numpy_newton_update(system, rows, g, h, dt, residual) -> list[float]:
    """The same update on numpy arrays, with np.linalg.solve."""
    import numpy as np

    with np.errstate(all="ignore"):
        # the index is a list: numpy reads a tuple as one index per axis
        jacobian = ((np.array(rows) - g) / np.array(h)[:, None]).T[list(system.omega.order)]
        jacobian *= np.array(system.omega.signs)[:, None]
        return np.linalg.solve(np.eye(len(g)) - 0.5 * dt * jacobian, np.negative(residual)).tolist()


def gaussian_solve(matrix, rhs) -> list[float]:
    """Solve matrix @ x = rhs on Python floats by Gaussian elimination.

    The matrix is a sequence of rows; neither argument is changed.  Each
    column's pivot is the first entry of largest |value| at or below the
    diagonal, as LAPACK's idamax picks it, swapped with the diagonal row;
    an exactly zero pivot raises ValueError("Singular matrix"), numpy's
    LinAlgError text.  Four updates by an exact zero, which could change
    nothing but the sign of a zero, are skipped: that of a row whose
    multiplier is zero, that of the other right-hand sides by a zero one
    and, as LAPACK's reference triangular solve skips them, the back
    substitution terms of a zero solved component and the division of a
    zero.  So a right-hand side of -0.0 comes back as -0.0; an elimination
    update by a zero pivot-row entry is made.  No float operation here
    raises: an overflow gives inf and an inf or NaN entry propagates.
    """
    rows = [[*row, value] for row, value in zip(matrix, rhs)]  # the right-hand side is column `size`
    size = len(rows)
    for k in range(size):
        best, largest = k, abs(rows[k][k])
        for i in range(k + 1, size):
            if abs(rows[i][k]) > largest:
                best, largest = i, abs(rows[i][k])
        if largest == 0.0:
            raise ValueError("Singular matrix")
        rows[k], rows[best] = rows[best], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        end = size + 1 if pivot_row[size] != 0.0 else size  # a zero right-hand side updates no other
        for row in rows[k + 1:]:
            factor = row[k] / pivot
            if factor != 0.0:
                for j in range(k + 1, end):
                    row[j] -= factor * pivot_row[j]
    solution = [0.0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        total = row[size]
        for j in range(size - 1, i, -1):  # from the last column back, as LAPACK's column-wise solve
            if solution[j] != 0.0:
                total -= row[j] * solution[j]
        solution[i] = total / row[i] if total != 0.0 else total
    return solution


def _require_finite(values) -> None:
    if not all(map(math.isfinite, values)):
        raise IntegrationError("non-finite state after step")


_STEPPERS = {"rk4": step_rk4, "implicit_midpoint": step_implicit_midpoint}
METHODS = tuple(_STEPPERS)


def _stepper(method: str):
    """method's one-step function, read from _STEPPERS when called; integrate's ValueError if unknown."""
    if method not in _STEPPERS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return _STEPPERS[method]


def integrate(system: HamiltonianSystem, initial, dt: float, steps: int, method: str) -> Trajectory:
    """Repeatedly step the flow; the result includes the initial state.

    A failed step k, whether an IntegrationError of the stepper (a
    non-finite state, Newton divergence) or a ValueError such as an
    EvaluationError of the energy, aborts with IntegrationError("step k
    failed: ...") carrying the partial trajectory for diagnosis.  A steps
    count too large to hold the trajectory is a ValueError before step 0.
    Both records hold the rows as they were checked, each a tuple of
    finite floats: x0 read by to_floats, each later row a stepper's
    checked state.  They are not read a second time.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    stepper = _stepper(method)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x0 = to_floats(initial, system.omega.dim.total, "initial point")
    if not all(map(math.isfinite, x0)):
        raise ValueError("initial point must be finite")
    try:
        states = [x0] * (steps + 1)
    except (OverflowError, MemoryError):  # more rows than a list can index, or than memory holds
        raise ValueError("the step count is too large to hold the trajectory") from None
    for k in range(steps):
        try:
            states[k + 1] = tuple(stepper(system, states[k], dt))
        except (IntegrationError, ValueError) as exc:
            raise IntegrationError(f"step {k} failed: {exc}", partial=_checked(system, states[: k + 1], dt)) from exc
    return _checked(system, states, dt)


def _checked(system: HamiltonianSystem, states: list, dt: float) -> Trajectory:
    """The Trajectory of rows already checked: tuples of finite floats of the right length, and dt > 0."""
    trajectory = Trajectory.__new__(Trajectory)
    trajectory._set(system, tuple(states), dt)
    return trajectory
