"""Quaternion triple of structure tensors on the flat model space R^{4n}.

The 4n coordinates are stored as four contiguous blocks of size n.  Each of
the tensors F, G, H permutes these blocks with signs; the action on the
covector basis is formally identical to the action on the vector basis, so
tangent and cotangent variants share one block table:

    F:  block0 -> +block1,  block1 -> -block0,  block2 -> +block3,  block3 -> -block2
    G:  block0 -> +block2,  block1 -> -block3,  block2 -> -block0,  block3 -> +block1
    H:  block0 -> +block3,  block1 -> +block2,  block2 -> -block1,  block3 -> -block0

Every tensor is a signed permutation with entries in {-1, 0, +1}, held
as (order, signs) on Python ints, so that the quaternion relations

    F^2 = G^2 = H^2 = F G H = -I

are verified by composing signed permutations, with no floating-point
tolerance at all, in time linear in n.  A tensor's rows, like a form's,
map each column to a nonzero entry.  The matrix of each symplectic form is
exactly its label's cotangent tensor.  RELATIONS names each relation once,
by the key of its residual in verify_quaternion_relations' table and in a
run's report, and by its printed label.  Matrices follow the column
convention: column a holds the coordinates of the image of basis element
a, so applying a tensor is a plain matrix-vector product.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence, Set
from functools import cached_property
from math import copysign
from operator import itemgetter
from types import MappingProxyType

from ._records import Record, Value

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


# every tensor and form is linear in n, but a run's probe Jacobian is a dense
# 4n x 4n array, 2 GiB of doubles at this n; the bound also stops an absurd n
# (10^7) before anything is built
MAX_BLOCK_SIZE = 4096


_NOT_POINTS = (str, bytes, bytearray, Mapping, Set)  # no sequence of numbers, whatever their items are


def to_floats(values, size: int, what: str) -> tuple[float, ...]:
    """values as a tuple of size Python floats, else ValueError naming what they are."""
    try:
        if values.__class__ is not list and values.__class__ is not tuple:
            # an array's extra dimensions become nested lists in tolist(), which copysign refuses
            values = () if isinstance(values, _NOT_POINTS) else values.tolist() if hasattr(values, "tolist") else tuple(values)
        # copysign(v, v) is v as a float, bits and all, and refuses the text float() reads;
        # map reads values twice, hence the tuple of any other iterable above
        values = tuple(map(copysign, values, values))
    except TypeError:  # a number where a sequence belongs, or anything but a real number where one does
        values = ()
    if len(values) != size:
        raise ValueError(f"{what} must have length {size}")
    return values


def _read_point(names: list[str]) -> list[str]:
    """Source lines reading the point x of a generated function into the locals names.

    A list or tuple of floats is unpacked as it is; any other x or entry goes
    through to_floats(x, len(names), "point"), which must be among its globals.
    """
    unpack, convert = ", ".join(names), f"to_floats(x, {len(names)}, 'point')"
    return [
        f"if not (x.__class__ is list or x.__class__ is tuple) or len(x) != {len(names)}: x = {convert}",
        f"{unpack}, = x",
        f"if not {' is '.join(f'{name}.__class__' for name in names)} is float: {unpack}, = {convert}",
    ]


class BlockDim(Value):
    """Block size n; the model space R^{4n} carries four coordinate blocks."""

    __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"block size must be a positive integer, got {n!r}")
        if n > MAX_BLOCK_SIZE:
            raise ValueError(f"block size must be at most {MAX_BLOCK_SIZE}, got {n}")
        self._set(n)

    @property
    def total(self) -> int:
        """Full phase-space dimension 4n."""
        return 4 * self.n


class StructureKind(Value):
    """Which tensor (F, G, H, or the identity I) on which space."""

    __match_args__ = ("label", "space")

    def __init__(self, label: str, space: str) -> None:
        if label not in LABELS + ("I",):
            raise ValueError(f"label must be one of {LABELS + ('I',)}, got {label!r}")
        if space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {space!r}")
        self._set(label, space)


class StructureTensor(Record):
    """A signed permutation, (T v)_i = signs_i v_{order_i}, on R^{4n}.

    Construction only checks the shape; the quaternion and skew-symmetry
    relations are measured by the verify_* functions so that deliberately
    corrupted tensors can be inspected too.  rows, built when first read,
    holds row i as the read-only map {order_i: signs_i}.  apply, also built
    when first read, is compiled by _generate, as the field's kernel is,
    from order and signs: one list display with the signs folded in, so
    applying T costs no loop: apply(v) is T v, for F at n = 1
    [v[1], -v[0], v[3], -v[2]], with the bits of signs_i * v[order_i] but
    for the sign bit of a NaN.  A pickle holds the four fields alone.
    """

    __match_args__ = ("kind", "dim", "order", "signs")

    def __init__(self, kind: StructureKind, dim: BlockDim, order: tuple[int, ...], signs: tuple[int, ...]) -> None:
        if sorted(order) != list(range(dim.total)) or len(signs) != len(order) or not set(signs) <= {1, -1}:
            raise ValueError("matrix must have exactly one nonzero entry, +-1, per row and column")
        self._set(kind, dim, order, signs)

    @cached_property
    def rows(self) -> tuple[MappingProxyType, ...]:
        return tuple(MappingProxyType({o: s}) for o, s in zip(self.order, self.signs))

    @cached_property
    def apply(self) -> Callable[[Sequence[float]], list[float]]:
        terms = (f"{'-' if s < 0 else ''}v[{o}]" for o, s in zip(self.order, self.signs))
        return _generate(f"def apply(v):\n    return [{', '.join(terms)}]\n", {}, "apply")


def _generate(source: str, namespace: dict, *names: str):
    """Compile source with namespace as its globals: the function named, or a tuple of those named."""
    exec(compile(source, f"<quatflow {names[-1]}>", "exec"), namespace)
    return itemgetter(*names)(namespace)


class EuclideanMetric(Value):
    """The flat metric on R^{4n}: g(u, v) is the standard dot product."""

    __match_args__ = ("dim",)


def build_structure(kind: StructureKind, dim: BlockDim) -> StructureTensor:
    """Construct the named structure tensor from its block table.

    Column a of its matrix is the image of the a-th basis element, e.g.
    for F with n = 1 the first basis vector maps to the second one, so
    column 1 carries +1 in row 2.
    """
    if kind.label == "I":
        return identity_tensor(dim, kind.space)
    n = dim.n
    order, signs = [0] * dim.total, [0] * dim.total
    for source, (target, sign) in enumerate(_BLOCK_ACTION[kind.label]):
        for i in range(n):
            order[target * n + i] = source * n + i
            signs[target * n + i] = sign
    return StructureTensor(kind, dim, tuple(order), tuple(signs))


def identity_tensor(dim: BlockDim, space: str = "tangent") -> StructureTensor:
    """The identity tensor; useful as a negative control in the checks."""
    return StructureTensor(StructureKind("I", space), dim, tuple(range(dim.total)), (1,) * dim.total)


def structure_triple(space: str, dim: BlockDim) -> tuple[StructureTensor, StructureTensor, StructureTensor]:
    """The (F, G, H) triple on the requested space."""
    return tuple(build_structure(StructureKind(label, space), dim) for label in LABELS)  # type: ignore[return-value]


def verify_quaternion_relations(
    f: StructureTensor, g: StructureTensor, h: StructureTensor
) -> dict[str, int]:
    """Measure how far a labelled triple is from a quaternion triple.

    Returns one residual per RELATIONS key, in its order: the induced
    infinity norm (maximum absolute row sum) of the relation's product
    plus I, computed by composing signed permutations of integers.  A
    genuine quaternion triple scores four zeros.  The triple product
    composes right to left: H acts first, then G, then F.
    """
    if not (f.dim == g.dim == h.dim):
        raise ValueError("triple members must share one dimension")
    if not (f.kind.space == g.kind.space == h.kind.space):
        raise ValueError("triple members must live on the same space")
    if (f.kind.label, g.kind.label, h.kind.label) != LABELS:
        raise ValueError("triple must be labelled (F, G, H) in that order")
    residuals = {}
    for key, factors in zip(RELATIONS, ((f, f), (g, g), (h, h), (f, g, h))):
        order, signs = range(f.dim.total), [1] * f.dim.total
        for t in factors:  # row i of P T is signs_i times row order_i of T
            signs = [s * t.signs[o] for o, s in zip(order, signs)]
            order = [t.order[o] for o in order]
        # row i of P + I holds signs_i in column order_i and the 1 of I in column i
        residuals[key] = max(abs(s + 1) if o == i else 2 for i, (o, s) in enumerate(zip(order, signs)))
    return residuals


def verify_metric_compatibility(tensor: StructureTensor, metric: EuclideanMetric) -> int:
    """Largest violation of g(Tu, v) + g(u, Tv) = 0 over basis pairs.

    With the flat metric this is the entrywise maximum of M^T + M, i.e. a
    skew-symmetry check; all six built-in structures score exactly 0,
    while the identity tensor scores 2.
    """
    if tensor.dim != metric.dim:
        raise ValueError("tensor and metric dimensions differ")
    order, signs = tensor.order, tensor.signs
    # M^T + M is nonzero only at (i, order_i) and its mirror, where it is M[i, order_i] + M[order_i, i]
    return max(abs(s + (signs[o] if order[o] == i else 0)) for i, (o, s) in enumerate(zip(order, signs)))
