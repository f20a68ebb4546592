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
omega = 1/2 sum_a x_a dx_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structures import BlockDim, EuclideanMetric, StructureKind, StructureTensor, build_structure


@dataclass(frozen=True, eq=False)
class AffineOneForm:
    """A 1-form on R^{4n} whose coefficients are affine in the coordinates."""

    dim: BlockDim
    linear: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        size = self.dim.total
        linear = np.asarray(self.linear, dtype=np.float64)
        constant = np.asarray(self.constant, dtype=np.float64)
        if linear.shape != (size, size):
            raise ValueError(f"linear part must be {size}x{size}, got {linear.shape}")
        if constant.shape != (size,):
            raise ValueError(f"constant part must have length {size}, got {constant.shape}")
        linear.flags.writeable = False
        constant.flags.writeable = False
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", constant)

    def coefficients(self, point: np.ndarray) -> np.ndarray:
        """The dx-basis coefficients of the form at a point."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim.total,):
            raise ValueError(f"point must have length {self.dim.total}")
        return self.linear @ point + self.constant

    def evaluate(self, point: np.ndarray, vector: np.ndarray) -> float:
        """Pair the form at a point with a tangent vector."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim.total,):
            raise ValueError(f"vector must have length {self.dim.total}")
        return float(np.dot(self.coefficients(point), vector))


@dataclass(frozen=True, eq=False)
class ConstantTwoForm:
    """A constant-coefficient 2-form Phi(u, v) = u^T Omega v, Omega skew."""

    dim: BlockDim
    matrix: np.ndarray

    def __post_init__(self) -> None:
        size = self.dim.total
        omega = np.asarray(self.matrix, dtype=np.float64)
        if omega.shape != (size, size):
            raise ValueError(f"matrix must be {size}x{size}, got {omega.shape}")
        if not np.array_equal(omega.T, -omega):
            raise ValueError("2-form matrix must be skew-symmetric")
        omega.flags.writeable = False
        object.__setattr__(self, "matrix", omega)

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> float:
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        size = self.dim.total
        if u.shape != (size,) or v.shape != (size,):
            raise ValueError(f"arguments must have length {size}")
        return float(u @ self.matrix @ v)


def canonical_one_form(dim: BlockDim) -> AffineOneForm:
    """The radial 1-form omega = 1/2 sum_a x_a dx_a."""
    size = dim.total
    return AffineOneForm(dim, 0.5 * np.eye(size), np.zeros(size))


def pullback_by_dual(structure: StructureTensor, form: AffineOneForm) -> AffineOneForm:
    """Substitute dx_a -> structure(dx_a) in the coefficient expansion.

    Applied to the radial form this produces the Liouville form of the
    structure's label.
    """
    if structure.kind.space != "cotangent":
        raise ValueError("pullback requires a cotangent structure tensor")
    if structure.dim != form.dim:
        raise ValueError("structure and form dimensions differ")
    m = structure.matrix.astype(np.float64)
    return AffineOneForm(form.dim, m @ form.linear, m @ form.constant)


def exterior_derivative(form: AffineOneForm) -> ConstantTwoForm:
    """d(theta) for an affine 1-form; exact because coefficients are affine.

    With theta_b = L[b, :] . x + c[b] the derivative is
    sum_{a,b} L[b, a] dx_a ^ dx_b, whose matrix is L^T - L.
    """
    return ConstantTwoForm(form.dim, form.linear.T - form.linear)


def symplectic_form(label: str, dim: BlockDim) -> ConstantTwoForm:
    """The symplectic 2-form -d(lambda) for the labelled structure.

    Derived through the generic pipeline: exterior-differentiate the
    labelled Liouville form, negate.
    """
    return ConstantTwoForm(dim, -exterior_derivative(liouville_form(label, dim)).matrix)


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
    return ConstantTwoForm(structure.dim, structure.matrix.T.astype(np.float64))


def interior_product(phi: ConstantTwoForm, x: np.ndarray) -> np.ndarray:
    """The covector i_X Phi, componentwise b -> Phi(X, e_b) = (Omega^T X)_b."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (phi.dim.total,):
        raise ValueError(f"vector must have length {phi.dim.total}")
    return phi.matrix.T @ x
