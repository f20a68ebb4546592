import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatflow import (
    BlockDim,
    EuclideanMetric,
    StructureKind,
    StructureTensor,
    build_structure,
    identity_tensor,
    verify_metric_compatibility,
    verify_quaternion_relations,
)
from quatflow.structures import MAX_BLOCK_SIZE, SPACES, structure_triple
from oracles import dense

F_MATRIX_N1 = np.array(
    [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
)


def tensor(label, space="tangent", n=1):
    return build_structure(StructureKind(label, space), BlockDim(n))


def matrix(t):
    return dense(t.rows)


def test_f_tangent_matrix_n1():
    assert np.array_equal(matrix(tensor("F")), F_MATRIX_N1)


def test_g_sends_e4_to_e2():
    e4 = np.array([0, 0, 0, 1])
    assert np.array_equal(matrix(tensor("G")) @ e4, np.array([0, 1, 0, 0]))


def test_cotangent_h_applied_twice_negates_basis():
    h_star = tensor("H", space="cotangent", n=2)
    for a in range(8):
        e = np.zeros(8, dtype=np.int64)
        e[a] = 1
        assert np.array_equal(matrix(h_star) @ matrix(h_star) @ e, -e)


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_tangent_and_cotangent_share_the_matrix_pattern(label):
    assert np.array_equal(matrix(tensor(label)), matrix(tensor(label, space="cotangent")))


def test_apply_examples():
    assert np.array_equal(matrix(tensor("F")) @ np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0]))
    assert np.array_equal(matrix(tensor("F")) @ np.zeros(4), np.zeros(4))
    assert np.array_equal(matrix(tensor("G")) @ np.ones(4), np.array([-1, 1, 1, -1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("space", ["tangent", "cotangent"])
def test_quaternion_relations_hold_exactly(n, space):
    report = verify_quaternion_relations(*structure_triple(space, BlockDim(n)))
    assert report == {"f_squared": 0, "g_squared": 0, "h_squared": 0, "triple_product": 0}
    assert not any(report.values())


def test_relabelled_f_in_the_h_slot_scores_two():
    f, g, _ = structure_triple("tangent", BlockDim(1))
    fake_h = StructureTensor(StructureKind("H", "tangent"), BlockDim(1), f.order, f.signs)
    # explicit multiplication oracle: F G F equals G, so the product is
    # G + I whose largest absolute row sum is 2
    product = matrix(f) @ matrix(g) @ matrix(f)
    assert np.array_equal(product, matrix(g))
    report = verify_quaternion_relations(f, g, fake_h)
    assert report["triple_product"] == 2
    assert report["f_squared"] == report["g_squared"] == 0
    assert report["h_squared"] == 0  # the F matrix still squares to -I


def test_verify_rejects_inconsistent_triples():
    f1, g1, h1 = structure_triple("tangent", BlockDim(1))
    f2 = build_structure(StructureKind("F", "tangent"), BlockDim(2))
    with pytest.raises(ValueError):
        verify_quaternion_relations(f2, g1, h1)
    f_cot = build_structure(StructureKind("F", "cotangent"), BlockDim(1))
    with pytest.raises(ValueError):
        verify_quaternion_relations(f_cot, g1, h1)
    with pytest.raises(ValueError):
        verify_quaternion_relations(g1, f1, h1)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("space", ["tangent", "cotangent"])
def test_metric_compatibility_zero_for_all_six(n, space):
    metric = EuclideanMetric(BlockDim(n))
    for t in structure_triple(space, BlockDim(n)):
        assert verify_metric_compatibility(t, metric) == 0


@pytest.mark.parametrize("space", SPACES)
def test_the_identity_label_builds_the_identity_tensor(space):
    dim = BlockDim(2)
    built = build_structure(StructureKind("I", space), dim)
    assert built.kind == identity_tensor(dim, space).kind == StructureKind("I", space)
    assert np.array_equal(matrix(built), matrix(identity_tensor(dim, space)))


def test_metric_compatibility_identity_scores_two():
    dim = BlockDim(1)
    assert verify_metric_compatibility(identity_tensor(dim), EuclideanMetric(dim)) == 2


def test_metric_compatibility_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        verify_metric_compatibility(identity_tensor(BlockDim(2)), EuclideanMetric(BlockDim(1)))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("space", ["tangent", "cotangent"])
def test_double_application_negates_basis_vectors(n, label, space):
    t = tensor(label, space=space, n=n)
    for a in range(4 * n):
        e = np.zeros(4 * n, dtype=np.int64)
        e[a] = 1
        assert np.array_equal(matrix(t) @ matrix(t) @ e, -e)


@pytest.mark.parametrize("n", range(1, 9))
def test_anticommutation_fg_equals_h(n):
    f, g, h = structure_triple("tangent", BlockDim(n))
    assert np.array_equal(matrix(f) @ matrix(g), matrix(h))
    assert np.array_equal(matrix(g) @ matrix(f), -matrix(h))


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_orthogonality_and_skewness(n, label):
    m = matrix(tensor(label, n=n))
    assert np.array_equal(m.T @ m, np.eye(4 * n, dtype=np.int64))
    assert np.array_equal(m.T, -m)


@given(
    coeffs=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    vectors=st.tuples(
        st.lists(st.integers(-100, 100), min_size=4, max_size=4),
        st.lists(st.integers(-100, 100), min_size=4, max_size=4),
    ),
    label=st.sampled_from(["F", "G", "H"]),
)
def test_apply_is_linear_in_exact_arithmetic(coeffs, vectors, label):
    a, b = coeffs
    u, v = (np.array(w, dtype=np.int64) for w in vectors)
    t = tensor(label)
    assert np.array_equal(matrix(t) @ (a * u + b * v), a * (matrix(t) @ u) + b * (matrix(t) @ v))


@pytest.mark.parametrize("bad", [0, -3, 1.5, True])
def test_blockdim_rejects_non_positive_integers(bad):
    with pytest.raises(ValueError):
        BlockDim(bad)


def test_blockdim_refuses_a_block_size_past_the_ceiling():
    assert BlockDim(MAX_BLOCK_SIZE).total == 4 * MAX_BLOCK_SIZE
    for n in (MAX_BLOCK_SIZE + 1, 10**7):
        with pytest.raises(ValueError, match=f"^block size must be at most {MAX_BLOCK_SIZE}, got {n}$"):
            BlockDim(n)


def test_structure_kind_validation():
    with pytest.raises(ValueError):
        StructureKind("Q", "tangent")
    with pytest.raises(ValueError):
        StructureKind("F", "spacelike")


def test_structure_tensor_rejects_malformed_matrices():
    dim = BlockDim(1)
    kind = StructureKind("F", "tangent")
    # the matrix of each (order, signs) below: 3x3, 2 I, and I with a second 1 in column 0
    for order, signs in (((0, 1, 2), (1, 1, 1)), ((0, 1, 2, 3), (2, 2, 2, 2)), ((0, 0, 2, 3), (1, 1, 1, 1))):
        with pytest.raises(ValueError):
            StructureTensor(kind, dim, order, signs)
    with pytest.raises(ValueError):  # 4 rows, 3 signs
        StructureTensor(kind, dim, (0, 1, 2, 3), (1, 1, 1))


def test_matrices_are_immutable():
    t = tensor("F")
    with pytest.raises(TypeError):
        t.rows[0][1] = 5
    for entries in (t.order, t.signs):
        assert isinstance(entries, tuple) and all(type(v) is int for v in entries)
        with pytest.raises(TypeError):
            entries[0] = 0


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("label", ["F", "G", "H", "I"])
@pytest.mark.parametrize("space", SPACES)
def test_order_and_signs_apply_the_matrix_bit_for_bit(label, space, n):
    t = tensor(label, space=space, n=n)
    order, signs = list(t.order), np.array(t.signs)
    assert np.array_equal(signs[:, None] * np.eye(4 * n, dtype=np.int64)[order], matrix(t))
    assert t.rows == tuple({o: s} for o, s in zip(t.order, t.signs))
    # every product with +-1 is exact and the other terms add +0.0 to a nonzero value
    rng = np.random.default_rng(n)
    for _ in range(20):
        v = rng.standard_normal(4 * n)
        assert (signs * v[order]).tobytes() == (matrix(t) @ v).tobytes()


# i -> j -> k -> i, the quaternion automorphism of conjugation by (1+i+j+k)/2,
# moves block b of R^{4n} to block CYCLE[b]
CYCLE = (0, 3, 1, 2)


def _block_rotation(n):
    """The 0/1 matrix P that sends block b to block CYCLE[b]."""
    p = np.zeros((4 * n, 4 * n), dtype=np.int64)
    for source, target in enumerate(CYCLE):
        p[target * n:(target + 1) * n, source * n:(source + 1) * n] = np.eye(n, dtype=np.int64)
    return p


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("space", SPACES)
def test_the_block_rotation_cycles_f_to_g_to_h_exactly(n, space):
    p = _block_rotation(n)
    assert np.array_equal(p.T @ p, np.eye(4 * n, dtype=np.int64))
    f, g, h = structure_triple(space, BlockDim(n))
    assert np.array_equal(p.T @ matrix(f) @ p, matrix(g))
    assert np.array_equal(p.T @ matrix(g) @ p, matrix(h))
    assert np.array_equal(p.T @ matrix(h) @ p, matrix(f))
