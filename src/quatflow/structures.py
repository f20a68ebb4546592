"""Quaternion triple of structure tensors on the flat model space R^{4n}.

The 4n coordinates are stored as four contiguous blocks of size n.  Each of
the tensors F, G, H permutes these blocks with signs; the action on the
covector basis is formally identical to the action on the vector basis, so
tangent and cotangent variants share one block table:

    F:  block0 -> +block1,  block1 -> -block0,  block2 -> +block3,  block3 -> -block2
    G:  block0 -> +block2,  block1 -> -block3,  block2 -> -block0,  block3 -> +block1
    H:  block0 -> +block3,  block1 -> +block2,  block2 -> -block1,  block3 -> -block0

Every tensor is a signed permutation matrix with entries in {-1, 0, +1},
stored as exact integers so that the quaternion relations

    F^2 = G^2 = H^2 = F G H = -I

can be verified with no floating-point tolerance at all.  RELATIONS names
each relation once, by the key of its residual in verify_quaternion_relations'
table and in a run's report, and by its printed label.  Matrices follow
the column convention: column a holds the coordinates of the image of
basis element a, so applying a tensor is a plain matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LABELS = ("F", "G", "H")
SPACES = ("tangent", "cotangent")
# residual key -> printed label, one per quaternion relation
RELATIONS = {
    "f_squared": "F^2 + I",
    "g_squared": "G^2 + I",
    "h_squared": "H^2 + I",
    "triple_product": "FGH + I",
}

# target block and sign for each source block, indexed 0..3
_BLOCK_ACTION: dict[str, tuple[tuple[int, int], ...]] = {
    "F": ((1, 1), (0, -1), (3, 1), (2, -1)),
    "G": ((2, 1), (3, -1), (0, -1), (1, 1)),
    "H": ((3, 1), (2, 1), (1, -1), (0, -1)),
}


@dataclass(frozen=True)
class BlockDim:
    """Block size n; the model space R^{4n} carries four coordinate blocks."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"block size must be a positive integer, got {self.n!r}")

    @property
    def total(self) -> int:
        """Full phase-space dimension 4n."""
        return 4 * self.n


@dataclass(frozen=True)
class StructureKind:
    """Which tensor (F, G, H, or the identity I) on which space."""

    label: str
    space: str

    def __post_init__(self) -> None:
        if self.label not in LABELS + ("I",):
            raise ValueError(f"label must be one of {LABELS + ('I',)}, got {self.label!r}")
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """A signed permutation matrix acting on coordinates of R^{4n}.

    Construction only enforces the signed-permutation shape (one entry of
    +-1 per row and column, integer storage); the quaternion and
    skew-symmetry relations are measured by the verify_* functions so that
    deliberately corrupted tensors can be inspected too.
    """

    kind: StructureKind
    dim: BlockDim
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.int64)
        size = self.dim.total
        if m.shape != (size, size):
            raise ValueError(f"matrix must be {size}x{size}, got {m.shape}")
        if not np.isin(m, (-1, 0, 1)).all():
            raise ValueError("matrix entries must be in {-1, 0, +1}")
        nonzero = np.abs(m)
        if (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
            raise ValueError("matrix must have exactly one nonzero entry per row and column")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EuclideanMetric:
    """The flat metric on R^{4n}: g(u, v) is the standard dot product."""

    dim: BlockDim


def build_structure(kind: StructureKind, dim: BlockDim) -> StructureTensor:
    """Construct the named structure tensor as an exact integer matrix.

    Column a of the result is the image of the a-th basis element, e.g.
    for F with n = 1 the first basis vector maps to the second one, so
    column 1 carries +1 in row 2.
    """
    if kind.label == "I":
        return identity_tensor(dim, kind.space)
    n = dim.n
    m = np.zeros((dim.total, dim.total), dtype=np.int64)
    for source, (target, sign) in enumerate(_BLOCK_ACTION[kind.label]):
        rows = slice(target * n, (target + 1) * n)
        cols = slice(source * n, (source + 1) * n)
        m[rows, cols] = sign * np.eye(n, dtype=np.int64)
    return StructureTensor(kind=kind, dim=dim, matrix=m)


def identity_tensor(dim: BlockDim, space: str = "tangent") -> StructureTensor:
    """The identity tensor; useful as a negative control in the checks."""
    return StructureTensor(
        kind=StructureKind("I", space),
        dim=dim,
        matrix=np.eye(dim.total, dtype=np.int64),
    )


def structure_triple(space: str, dim: BlockDim) -> tuple[StructureTensor, StructureTensor, StructureTensor]:
    """The (F, G, H) triple on the requested space."""
    return tuple(build_structure(StructureKind(label, space), dim) for label in LABELS)  # type: ignore[return-value]


def verify_quaternion_relations(
    f: StructureTensor, g: StructureTensor, h: StructureTensor
) -> dict[str, int]:
    """Measure how far a labelled triple is from a quaternion triple.

    Returns one residual per RELATIONS key, in its order: the induced
    infinity norm (maximum absolute row sum) of the relation's product
    plus I, computed in exact integer arithmetic.  A genuine quaternion
    triple scores four zeros.  The triple product composes right to left:
    H acts first, then G, then F.
    """
    if not (f.dim == g.dim == h.dim):
        raise ValueError("triple members must share one dimension")
    if not (f.kind.space == g.kind.space == h.kind.space):
        raise ValueError("triple members must live on the same space")
    if (f.kind.label, g.kind.label, h.kind.label) != LABELS:
        raise ValueError("triple must be labelled (F, G, H) in that order")
    eye = np.eye(f.dim.total, dtype=np.int64)
    products = (f.matrix @ f.matrix, g.matrix @ g.matrix, h.matrix @ h.matrix, f.matrix @ g.matrix @ h.matrix)
    return {key: int(np.abs(product + eye).sum(axis=1).max()) for key, product in zip(RELATIONS, products)}


def verify_metric_compatibility(tensor: StructureTensor, metric: EuclideanMetric) -> int:
    """Largest violation of g(Tu, v) + g(u, Tv) = 0 over basis pairs.

    With the flat metric this is the entrywise maximum of M^T + M, i.e. a
    skew-symmetry check; all six built-in structures score exactly 0,
    while the identity tensor scores 2.
    """
    if tensor.dim != metric.dim:
        raise ValueError("tensor and metric dimensions differ")
    m = tensor.matrix
    return int(np.abs(m.T + m).max())
