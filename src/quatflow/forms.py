"""Affine 1-forms, constant 2-forms, and the three symplectic structures.

Conventions, which every result in this module depends on:

* a 1-form is stored as theta = sum_b (L[b, :] . x + c[b]) dx_b, i.e. row b
  of the linear part holds the coefficient function of dx_b;
* wedge evaluation carries no 1/2 factor:
  (dx_a ^ dx_b)(u, v) = u_a v_b - u_b v_a;
* the interior product fills the first slot: (i_X Phi)(v) = Phi(X, v).

Under these conventions the exterior derivative of an affine 1-form is the
constant 2-form with matrix L^T - L, exactly, and the symplectic structure
attached to each label is obtained by the derivation chain

    omega  ->  lambda = dual_structure(omega)  ->  Phi = -d(lambda)

rather than hard-coded, starting from the radial 1-form
omega = 1/2 sum_a x_a dx_a.  A form's matrix is held as its rows, row a a
read-only map {b: M[a, b]} of the nonzero entries in Python floats; a row
may be given dense instead.  The chain touches only those entries, so it
is exact and linear in n.  A 2-form's matrix is also a read-only numpy
array, built when first read.  A form pickles its rows as plain dicts.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from operator import mul
from types import MappingProxyType

from ._records import Record
from .structures import BlockDim, EuclideanMetric, StructureKind, StructureTensor, build_structure, to_floats


def _sparse_rows(rows, size: int, what: str) -> tuple[MappingProxyType, ...]:
    """rows, each a {column: value} map or dense, as read-only maps of their nonzero floats."""
    sparse = []
    for row in rows:
        items = row.items() if isinstance(row, Mapping) else enumerate(to_floats(row, size, f"each row of the {what}"))
        sparse.append(MappingProxyType({b: float(v) for b, v in items if v}))
    if len(sparse) != size or not all(b.__class__ is int and 0 <= b < size for row in sparse for b in row):
        raise ValueError(f"{what} must be {size}x{size}")
    return tuple(sparse)


class AffineOneForm(Record):
    """A 1-form on R^{4n} whose coefficients are affine in the coordinates."""

    __match_args__ = ("dim", "linear", "constant")

    def __init__(self, dim: BlockDim, linear, constant) -> None:
        size = dim.total
        self._set(dim, _sparse_rows(linear, size, "linear part"), to_floats(constant, size, "constant part"))

    def __reduce__(self):
        return type(self), (self.dim, [*map(dict, self.linear)], self.constant)

    def coefficients(self, point) -> list[float]:
        """The dx-basis coefficients of the form at a point."""
        point = to_floats(point, self.dim.total, "point")
        return [sum(v * point[b] for b, v in row.items()) + c for row, c in zip(self.linear, self.constant)]

    def evaluate(self, point, vector) -> float:
        """Pair the form at a point with a tangent vector."""
        return sum(map(mul, self.coefficients(point), to_floats(vector, self.dim.total, "vector")))


class ConstantTwoForm(Record):
    """A constant-coefficient 2-form Phi(u, v) = u^T Omega v, Omega skew."""

    __match_args__ = ("dim", "rows")

    def __init__(self, dim: BlockDim, rows) -> None:
        rows = _sparse_rows(rows, dim.total, "matrix")
        if any(rows[b].get(a) != -v for a, row in enumerate(rows) for b, v in row.items()):
            raise ValueError("2-form matrix must be skew-symmetric")
        self._set(dim, rows)

    def __reduce__(self):
        return type(self), (self.dim, [*map(dict, self.rows)])

    @cached_property
    def matrix(self):
        """Omega as a read-only float64 numpy array; numpy is imported here, on the first read."""
        import numpy as np

        matrix = np.zeros((self.dim.total, self.dim.total))
        for a, row in enumerate(self.rows):
            matrix[a, list(row)] = list(row.values())
        matrix.flags.writeable = False
        return matrix

    def evaluate(self, u, v) -> float:
        return sum(map(mul, interior_product(self, u), to_floats(v, self.dim.total, "arguments")))


def canonical_one_form(dim: BlockDim) -> AffineOneForm:
    """The radial 1-form omega = 1/2 sum_a x_a dx_a."""
    return AffineOneForm(dim, [{a: 0.5} for a in range(dim.total)], [0.0] * dim.total)


def pullback_by_dual(structure: StructureTensor, form: AffineOneForm) -> AffineOneForm:
    """Substitute dx_a -> structure(dx_a) in the coefficient expansion.

    Row a of the result is signs_a times row order_a of the form, as is
    its constant.  Applied to the radial form this produces the Liouville
    form of the structure's label.
    """
    if structure.kind.space != "cotangent":
        raise ValueError("pullback requires a cotangent structure tensor")
    if structure.dim != form.dim:
        raise ValueError("structure and form dimensions differ")
    turned = list(zip(structure.order, structure.signs))
    linear = [{b: s * v for b, v in form.linear[o].items()} for o, s in turned]
    return AffineOneForm(form.dim, linear, [s * form.constant[o] for o, s in turned])


def exterior_derivative(form: AffineOneForm) -> ConstantTwoForm:
    """d(theta) for an affine 1-form; exact because coefficients are affine.

    With theta_b = L[b, :] . x + c[b] the derivative is
    sum_{a,b} L[b, a] dx_a ^ dx_b, whose matrix is L^T - L.
    """
    rows = [{} for _ in form.linear]
    for a, row in enumerate(form.linear):
        for b, v in row.items():  # L[a, b] enters (a, b) negated and (b, a) as it is
            rows[a][b] = rows[a].get(b, 0.0) - v
            rows[b][a] = rows[b].get(a, 0.0) + v
    return ConstantTwoForm(form.dim, rows)


def symplectic_form(label: str, dim: BlockDim) -> ConstantTwoForm:
    """The symplectic 2-form -d(lambda) for the labelled structure.

    Derived through the generic pipeline: exterior-differentiate the
    labelled Liouville form, negate.
    """
    rows = exterior_derivative(liouville_form(label, dim)).rows
    return ConstantTwoForm(dim, [{b: -v for b, v in row.items()} for row in rows])


def liouville_form(label: str, dim: BlockDim) -> AffineOneForm:
    """lambda = dual_structure(omega) for the labelled structure."""
    dual = build_structure(StructureKind(label, "cotangent"), dim)
    return pullback_by_dual(dual, canonical_one_form(dim))


def metric_kaehler_form(structure: StructureTensor, metric: EuclideanMetric) -> ConstantTwoForm:
    """The 2-form (u, v) -> g(Tu, v) attached to a tangent structure."""
    if structure.kind.space != "tangent":
        raise ValueError("metric 2-form requires a tangent structure tensor")
    if structure.dim != metric.dim:
        raise ValueError("structure and metric dimensions differ")
    rows = [{} for _ in structure.order]  # T^T: row order_i holds signs_i in column i
    for i, (o, s) in enumerate(zip(structure.order, structure.signs)):
        rows[o][i] = s
    return ConstantTwoForm(structure.dim, rows)


def interior_product(phi: ConstantTwoForm, x) -> list[float]:
    """The covector i_X Phi, componentwise b -> Phi(X, e_b) = (Omega^T X)_b."""
    x = to_floats(x, phi.dim.total, "vector")
    covector = [0.0] * phi.dim.total
    for row, component in zip(phi.rows, x):
        for b, v in row.items():
            covector[b] += v * component
    return covector
