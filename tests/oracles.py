"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against first principles (Taylor
series, finite differences, cycle decompositions) rather than through the
package, so that agreement between the two is meaningful.
"""

from __future__ import annotations

import io
import math
import pickle
from dataclasses import dataclass

import numpy as np

from quatflow._records import Record, Value
from quatflow.dynamics import NUMPY_SOLVE_SIZE, step_implicit_midpoint, step_rk4
from quatflow.expressions import (
    BinaryOp,
    EvaluationError,
    Negation,
    Number,
    ScalarField,
    Variable,
    format_expression,
    gradient,
)
from quatflow.forms import symplectic_form
from quatflow.structures import LABELS, BlockDim


def expm_taylor(matrix: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring a Taylor series."""
    a = np.asarray(matrix, dtype=np.float64)
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    b = a / (2.0 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 30):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def dense(rows) -> np.ndarray:
    """The square matrix whose rows, each a {column: value} map, are rows."""
    return np.array([[row.get(b, 0) for b in range(len(rows))] for row in rows])


def omega_matrix(system) -> np.ndarray:
    """A system's dense Omega, from the forms chain for the label the system carries.

    The steppers apply Omega as system.omega's (order, signs); this matrix is
    -d(dual(omega)) built again, so a test that uses it does not share them.
    """
    return symplectic_form(system.omega.kind.label, system.omega.dim).matrix


def signed_perm_det(matrix: np.ndarray) -> int:
    """Exact determinant of a signed permutation matrix.

    Product of the nonzero signs times the permutation parity, computed
    from the cycle decomposition with integer arithmetic only.
    """
    m = np.asarray(matrix)
    size = m.shape[0]
    perm = []
    sign = 1
    for column in range(size):
        rows = np.nonzero(m[:, column])[0]
        assert rows.size == 1, "not a signed permutation matrix"
        perm.append(int(rows[0]))
        sign *= int(round(float(m[rows[0], column])))
    seen = [False] * size
    parity = 1
    for start in range(size):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return sign * parity


def fd_two_form_value(one_form, point, u, v, h=1e-6) -> float:
    """Finite-difference value of d(theta)(u, v) at a point.

    For constant vector fields u, v the exterior derivative reduces to
    D_u[theta(v)] - D_v[theta(u)]; both directional derivatives are taken
    with central differences.
    """
    point = np.asarray(point, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    along_u = (one_form.evaluate(point + h * u, v) - one_form.evaluate(point - h * u, v)) / (2.0 * h)
    along_v = (one_form.evaluate(point + h * v, u) - one_form.evaluate(point - h * v, u)) / (2.0 * h)
    return along_u - along_v


def rk4_on_field(field, x0, dt: float, steps: int) -> list[np.ndarray]:
    """Classical RK4 applied to an arbitrary vector field callable."""
    states = [np.asarray(x0, dtype=np.float64)]
    for _ in range(steps):
        x = states[-1]
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        states.append(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return states


def rk4_step_on_arrays(system, x: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step as numpy arrays, the form the float-list step replaced.

    Each stage point is x + (h signs) * g[order], and g1 + 2 g2 + 2 g3 + g4
    is summed in place in gradient space and permuted once; a non-finite
    state raises AssertionError.
    """
    order, signs = list(system.omega.order), np.array(system.omega.signs)

    def grad(point):
        return np.array(gradient(system.hamiltonian, point))

    half = (0.5 * dt) * signs
    g1 = grad(x)
    g2 = grad(x + half * g1[order])
    g3 = grad(x + half * g2[order])
    g4 = grad(x + (dt * signs) * g3[order])
    g2 *= 2.0
    g3 *= 2.0
    g1 += g2
    g1 += g3
    g1 += g4
    y = x + ((dt / 6.0) * signs) * g1[order]
    assert np.isfinite(y).all(), "non-finite state after step"
    return y


def apply_reference(tensor, v) -> list[float]:
    """T v, signs_i * v[order_i], as the comprehension StructureTensor.apply replaced."""
    return [s * v[o] for o, s in zip(tensor.order, tensor.signs)]


def shift_reference(tensor, x, v, h: float) -> list[float]:
    """x + h T v as the comprehension x_i + (h signs_i) * v[order_i]: one stage point of rk4_shift_reference."""
    return [a + (h * s) * v[o] for a, s, o in zip(x, tensor.signs, tensor.order)]


def rk4_shift_reference(tensor, field_gradient, x, dt: float) -> list[float]:
    """One RK4 step as lists, the stage-by-stage form the generated step replaced.

    field_gradient(point) gives grad H.  Each stage point is x + h T g by
    shift_reference, and g1 + 2 g2 + 2 g3 + g4 is summed as
    ((g1 + 2 g2) + 2 g3) + g4 in gradient space and shifted once by dt / 6;
    the state is not checked.
    """
    half = 0.5 * dt
    g1 = field_gradient(x)
    g2 = field_gradient(shift_reference(tensor, x, g1, half))
    g3 = field_gradient(shift_reference(tensor, x, g2, half))
    g4 = field_gradient(shift_reference(tensor, x, g3, dt))
    total = [((a + 2.0 * b) + 2.0 * c) + d for a, b, c, d in zip(g1, g2, g3, g4)]
    return shift_reference(tensor, x, total, dt / 6.0)


def midpoint_newton_update(system, x: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """One Newton update of the midpoint equation y - x - dt X((x + y)/2) = 0 at y, on numpy arrays.

    Each field value is the matrix product Omega grad H, and the Jacobian is
    filled one forward-difference column per bumped copy of the midpoint,
    coordinate a bumped by h_a = 1e-7 * max(1, |x_a|).  Its Jacobian is its
    own, as first written.  Up to NUMPY_SOLVE_SIZE coordinates, where the
    package solves on floats, the Newton system is solved by
    elimination_reference; past it, by np.linalg.solve.
    """
    omega = omega_matrix(system)

    def field(point):
        return omega @ gradient(system.hamiltonian, point)

    size = x.size
    h = 1e-7 * np.maximum(1, np.abs(x))
    mid = 0.5 * (x + y)
    field_mid = field(mid)
    residual = y - x - dt * field_mid
    jacobian = np.empty((size, size))
    for a in range(size):
        bumped = mid.copy()
        bumped[a] += h[a]
        jacobian[:, a] = (field(bumped) - field_mid) / h[a]
    newton_matrix = np.eye(size) - 0.5 * dt * jacobian
    solve = elimination_reference if size <= NUMPY_SOLVE_SIZE else np.linalg.solve
    return solve(newton_matrix, -residual)


def midpoint_newton_reference(system, x: np.ndarray, dt: float, start=None) -> tuple[np.ndarray, int]:
    """The implicit midpoint step's Newton loop on numpy arrays: (y, iterations).

    Newton starts from y = start, or from x when start is None, and adds
    midpoint_newton_update until one of the package's two relative stops
    holds.  The first is an update norm below 1e-12 * max(1, |y|), so the
    loop converges far from the origin too.  The second reads the last two
    update norms: once they contract, rate r = |d_k| / |d_{k-1}| < 1, the
    updates still to come are predicted to sum to at most r / (1 - r) *
    |d_k| (Hairer and Wanner, Solving ODEs II, section IV.8), and the loop
    stops once that is within machine epsilon times |y|.  Its norms are
    numpy's.
    """
    y = x.copy() if start is None else np.array(start, dtype=np.float64)
    norms = []
    for iteration in range(1, 51):
        delta = midpoint_newton_update(system, x, y, dt)
        y = y + delta
        norms.append(float(np.linalg.norm(delta)))
        magnitude = float(np.linalg.norm(y))
        if norms[-1] < 1e-12 * max(1.0, magnitude):
            return y, iteration
        if len(norms) > 1 and norms[-1] < norms[-2]:
            rate = norms[-1] / norms[-2]
            if rate / (1.0 - rate) * norms[-1] <= np.finfo(np.float64).eps * magnitude:
                return y, iteration
    raise AssertionError("the reference Newton loop did not converge in 50 iterations")


def elimination_reference(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting, entry by entry on numpy scalars.

    The pivot of column k is the first row i >= k of largest |a_ik|, the
    row idamax picks, swapped into row k; an exactly zero pivot raises
    ValueError("Singular matrix").  Four updates by an exact zero are
    skipped: a row whose multiplier is zero, a right-hand side entry that
    is zero, a back-substitution term whose solved component is zero and
    the division of a zero sum by its pivot.  Back substitution subtracts each
    row's terms from the last column towards the diagonal.
    """
    a = np.array(matrix, dtype=np.float64)
    b = np.array(rhs, dtype=np.float64)
    size = b.size
    for k in range(size):
        p = k
        for i in range(k + 1, size):
            if abs(a[i, k]) > abs(a[p, k]):
                p = i
        if a[p, k] == 0.0:
            raise ValueError("Singular matrix")
        a[[k, p]] = a[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, size):
            factor = a[i, k] / a[k, k]
            if factor == 0.0:
                continue
            for j in range(k + 1, size):
                a[i, j] = a[i, j] - factor * a[k, j]
            if b[k] != 0.0:
                b[i] = b[i] - factor * b[k]
    x = np.empty(size)
    for i in range(size - 1, -1, -1):
        total = b[i]
        for j in range(size - 1, i, -1):
            if x[j] != 0.0:
                total = total - a[i, j] * x[j]
        x[i] = total / a[i, i] if total != 0.0 else total
    return x


def cold_step_jacobian(system, point, dt: float, method: str, h: float) -> np.ndarray:
    """Central-difference Jacobian of one step map, every step started cold.

    Each perturbed point base +- h e_a is stepped on its own by the
    package's stepper with no start, so each implicit midpoint step runs
    Newton from its own point.
    """
    stepper = step_rk4 if method == "rk4" else step_implicit_midpoint
    base = np.asarray(point, dtype=np.float64)
    size = base.size
    jacobian = np.empty((size, size))
    for a in range(size):
        forward = base.copy()
        backward = base.copy()
        forward[a] += h
        backward[a] -= h
        jacobian[:, a] = (np.array(stepper(system, forward, dt)) - stepper(system, backward, dt)) / (2.0 * h)
    return jacobian


def wedge_matrix(pairs, n: int) -> np.ndarray:
    """Encode a sum of block wedges sum_i dx_{an+i} ^ dx_{bn+i} as a matrix.

    ``pairs`` lists (a, b) block indices in 0..3; each contributes +1 at
    [an+i, bn+i] and -1 at the transposed slot, following the convention
    (dx_p ^ dx_q)(u, v) = u_p v_q - u_q v_p.
    """
    omega = np.zeros((4 * n, 4 * n))
    for a, b in pairs:
        for i in range(n):
            omega[a * n + i, b * n + i] = 1.0
            omega[b * n + i, a * n + i] = -1.0
    return omega


# displayed wedge expansions of the three symplectic forms, as block pairs
EXPECTED_WEDGE_PAIRS = {
    "F": ((1, 0), (3, 2)),
    "G": ((2, 0), (1, 3)),
    "H": ((3, 0), (2, 1)),
}


def expected_symplectic_matrix(label: str, n: int) -> np.ndarray:
    return wedge_matrix(EXPECTED_WEDGE_PAIRS[label], n)


def reference_field_formula(label: str, grad: np.ndarray) -> np.ndarray:
    """Blockwise transcription of the three displayed vector fields.

    Kept as an independent oracle against the generic solve X = Omega grad H;
    both must agree exactly for every label and gradient.
    """
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    n = len(grad) // 4
    block = [grad[k * n:(k + 1) * n] for k in range(4)]
    if label == "F":
        parts = (-block[1], block[0], -block[3], block[2])
    elif label == "G":
        parts = (-block[2], block[3], block[0], -block[1])
    else:
        parts = (-block[3], -block[2], block[1], block[0])
    return np.concatenate(parts)


def quadratic_energy_text(dim: BlockDim) -> str:
    """Source text of the isotropic quadratic energy 1/2 sum x_a^2."""
    return "0.5*(" + " + ".join(f"x{a}^2" for a in range(1, dim.total + 1)) + ")"


@dataclass(frozen=True, slots=True)
class DualScalar:
    """First-order dual number a + b*eps with eps^2 = 0."""

    value: float
    derivative: float

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value + other.value, self.derivative + other.derivative)
        return DualScalar(self.value + other, self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value - other.value, self.derivative - other.derivative)
        return DualScalar(self.value - other, self.derivative)

    def __rsub__(self, other):
        return DualScalar(other - self.value, -self.derivative)

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value * other.value,
                self.value * other.derivative + self.derivative * other.value,
            )
        return DualScalar(self.value * other, self.derivative * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            quotient = self.value / other.value
            return DualScalar(
                quotient,
                (self.derivative - quotient * other.derivative) / other.value,
            )
        return DualScalar(self.value / other, self.derivative / other)

    def __rtruediv__(self, other):
        quotient = other / self.value
        return DualScalar(quotient, -quotient * self.derivative / self.value)

    def __neg__(self):
        return DualScalar(-self.value, -self.derivative)

    def __pow__(self, other):
        if isinstance(other, DualScalar):
            if other.derivative == 0.0:
                return self._pow_constant(other.value)
            if self.value <= 0.0:
                raise ValueError("dual exponentiation with varying exponent needs a positive base")
            value = self.value ** other.value
            return DualScalar(
                value,
                value
                * (other.derivative * math.log(self.value) + other.value * self.derivative / self.value),
            )
        return self._pow_constant(float(other))

    def __rpow__(self, other):
        return DualScalar(float(other), 0.0) ** self

    def _pow_constant(self, exponent: float) -> "DualScalar":
        value = self.value ** exponent
        if isinstance(value, complex):
            raise ValueError("fractional power of a negative base")
        if exponent == 0.0 or self.derivative == 0.0:  # a constant base forms no base^(c - 1)
            return DualScalar(value, 0.0)
        return DualScalar(value, exponent * self.value ** (exponent - 1.0) * self.derivative)


def _dual_sin(v: DualScalar) -> DualScalar:
    return DualScalar(math.sin(v.value), math.cos(v.value) * v.derivative)


def _dual_cos(v: DualScalar) -> DualScalar:
    return DualScalar(math.cos(v.value), -math.sin(v.value) * v.derivative)


def _dual_exp(v: DualScalar) -> DualScalar:
    value = math.exp(v.value)
    return DualScalar(value, value * v.derivative)


def _dual_sqrt(v: DualScalar) -> DualScalar:
    value = math.sqrt(v.value)
    return DualScalar(value, v.derivative / (2.0 * value))


_DUAL_FUNCTIONS = {"sin": _dual_sin, "cos": _dual_cos, "exp": _dual_exp, "sqrt": _dual_sqrt}
_PLAIN_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


def _dual_eval(root, values):
    """Walk the AST post-order with dual numbers or plain floats, naming the failing subexpression.

    A stack of (node, operands done) entries stands in for recursion, so a
    chain of any length is walked; each node's operands are evaluated left
    to right before the node itself.
    """
    stack, results = [(root, False)], []
    while stack:
        node, done = stack.pop()
        if isinstance(node, Number):
            results.append(node.value)
        elif isinstance(node, Variable):
            results.append(values[node.index - 1])
        elif not done:
            stack.append((node, True))
            if isinstance(node, BinaryOp):
                stack += [(node.right, False), (node.left, False)]
            else:
                stack.append((node.operand if isinstance(node, Negation) else node.argument, False))
        elif isinstance(node, Negation):
            results.append(-results.pop())
        elif isinstance(node, BinaryOp):
            right = results.pop()
            left = results.pop()
            try:
                if node.op == "+":
                    result = left + right
                elif node.op == "-":
                    result = left - right
                elif node.op == "*":
                    result = left * right
                elif node.op == "/":
                    if (right.value if isinstance(right, DualScalar) else right) == 0.0:
                        raise ZeroDivisionError("division by zero")
                    result = left / right
                elif node.right == Number(2.0):  # the language's rule: u^2 is u*u
                    result = left * left
                else:
                    result = left ** right
                    if isinstance(result, complex):
                        raise ValueError("fractional power of a negative base")
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise EvaluationError(str(exc), format_expression(node)) from exc
            results.append(result)
        else:
            argument = results.pop()
            functions = _DUAL_FUNCTIONS if isinstance(argument, DualScalar) else _PLAIN_FUNCTIONS
            try:
                results.append(functions[node.name](argument))
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise EvaluationError(str(exc), format_expression(node)) from exc
    return results.pop()


def dual_gradient(field: ScalarField, point) -> np.ndarray:
    """Gradient by forward-mode dual numbers, one seeded AST pass per coordinate."""
    plain = [float(v) for v in point]
    size = len(plain)
    components = np.empty(size)
    for seed in range(size):
        values = [DualScalar(plain[j], 1.0 if j == seed else 0.0) for j in range(size)]
        result = _dual_eval(field.root, values)
        components[seed] = result.derivative if isinstance(result, DualScalar) else 0.0
    return components


def interpret(field: ScalarField, point) -> float:
    """H at a point by walking the AST with plain floats, never the compiled kernel; u^2 is u*u, as in the language."""
    return float(_dual_eval(field.root, [float(v) for v in point]))


def fd_gradient(field: ScalarField, point, h: float) -> np.ndarray:
    """Central differences of the interpreter oracle, one pair per coordinate."""
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    point = np.asarray(point, dtype=np.float64)
    components = np.empty(point.size)
    for a in range(point.size):
        forward = point.copy()
        backward = point.copy()
        forward[a] += h
        backward[a] -= h
        components[a] = (interpret(field, forward) - interpret(field, backward)) / (2.0 * h)
    return components


def reference_repr(record: Record) -> str:
    """repr as written by recursion: the class and each field, a field that is a record by this function."""
    fields = (
        f"{name}={reference_repr(value) if isinstance(value, Record) else repr(value)}"
        for name, value in zip(record.__match_args__, record._fields())
    )
    return f"{type(record).__qualname__}({', '.join(fields)})"


def reference_equal(first, second) -> bool:
    """== as decided by recursion: a Value equals one of its class with equal fields, other records themselves."""
    if isinstance(first, Value) and type(second) is type(first):
        return all(map(reference_equal, first._fields(), second._fields()))
    if isinstance(first, Record) or isinstance(second, Record):
        return first is second
    return first is second or first == second


class _FieldsPickler(pickle.Pickler):
    def reducer_override(self, obj):
        return (type(obj), obj._fields()) if isinstance(obj, Record) else NotImplemented


def reference_pickle(record: Record) -> bytes:
    """A pickle written by recursion, each record reduced to its class and fields, as older versions wrote one."""
    buffer = io.BytesIO()
    _FieldsPickler(buffer).dump(record)
    return buffer.getvalue()


def gradient_magnitudes(field: ScalarField, point) -> tuple[np.ndarray, float]:
    """Each gradient component's running sum of |terms|, and the widest binary exponent on the way.

    The forward-mode chain rule of dual_gradient, every seed at once, with each
    sum of terms replaced by the sum of their magnitudes: two differentiations
    that round the same terms in different orders differ by a few ulp of this
    sum per operation (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, sec. 3.1).  That model assumes no overflow or underflow, so
    the second result is the largest |e| of any nonzero value or chain-rule
    factor 2^e met (inf for one that is not finite): while K times it stays
    under 1000, no product or sum of K of them leaves the normal range, in
    whatever order they are taken.
    """
    values = np.asarray(point, dtype=np.float64)
    exponents = [0]
    stack, results = [(field.root, False)], []

    def scaled(factor, bound: np.ndarray) -> np.ndarray:
        if not bound.any():
            return bound
        exponents.append(np.frexp(factor)[1] if np.isfinite(factor) else np.inf)
        return np.where(bound == 0.0, 0.0, abs(factor) * bound)

    with np.errstate(all="ignore"):
        while stack:
            node, done = stack.pop()
            if isinstance(node, Number):
                results.append((np.float64(node.value), np.zeros(values.size)))
            elif isinstance(node, Variable):
                results.append((values[node.index - 1], np.eye(values.size)[node.index - 1]))
            elif not done:
                stack.append((node, True))
                if isinstance(node, BinaryOp):
                    stack += [(node.right, False), (node.left, False)]
                else:
                    stack.append((node.operand if isinstance(node, Negation) else node.argument, False))
                continue
            elif isinstance(node, Negation):
                value, bound = results.pop()
                results.append((-value, bound))
            elif isinstance(node, BinaryOp):
                (b, db), (a, da) = results.pop(), results.pop()
                if node.op in "+-":
                    results.append((a + b if node.op == "+" else a - b, da + db))
                elif node.op == "*":
                    results.append((a * b, scaled(b, da) + scaled(a, db)))
                elif node.op == "/":
                    results.append((a / b, scaled(1.0 / b, da) + scaled(a / b / b, db)))
                else:
                    power = a**b
                    results.append((power, scaled(b * a ** (b - 1.0), da) + scaled(power * np.log(a), db)))
            else:
                a, da = results.pop()
                value = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}[node.name](a)
                slope = {"sin": np.cos(a), "cos": np.sin(a), "exp": value, "sqrt": 0.5 / value}[node.name]
                results.append((value, scaled(slope, da)))
            value = results[-1][0]
            exponents.append(np.frexp(value)[1] if np.isfinite(value) else np.inf)
    return results.pop()[1], float(max(map(abs, exponents)))
