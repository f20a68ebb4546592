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
from quatflow.structures import structure_triple

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


def test_f_tangent_matrix_n1():
    assert np.array_equal(tensor("F").matrix, F_MATRIX_N1)


def test_g_sends_e4_to_e2():
    e4 = np.array([0, 0, 0, 1])
    assert np.array_equal(tensor("G").matrix @ e4, np.array([0, 1, 0, 0]))


def test_cotangent_h_applied_twice_negates_basis():
    h_star = tensor("H", space="cotangent", n=2)
    for a in range(8):
        e = np.zeros(8, dtype=np.int64)
        e[a] = 1
        assert np.array_equal(h_star.matrix @ h_star.matrix @ e, -e)


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_tangent_and_cotangent_share_the_matrix_pattern(label):
    assert np.array_equal(tensor(label).matrix, tensor(label, space="cotangent").matrix)


def test_apply_examples():
    assert np.array_equal(tensor("F").matrix @ np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0]))
    assert np.array_equal(tensor("F").matrix @ np.zeros(4), np.zeros(4))
    assert np.array_equal(tensor("G").matrix @ np.ones(4), np.array([-1, 1, 1, -1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("space", ["tangent", "cotangent"])
def test_quaternion_relations_hold_exactly(n, space):
    report = verify_quaternion_relations(*structure_triple(space, BlockDim(n)))
    assert report == {"f_squared": 0, "g_squared": 0, "h_squared": 0, "triple_product": 0}
    assert not any(report.values())


def test_relabelled_f_in_the_h_slot_scores_two():
    f, g, _ = structure_triple("tangent", BlockDim(1))
    fake_h = StructureTensor(kind=StructureKind("H", "tangent"), dim=BlockDim(1), matrix=f.matrix)
    # explicit multiplication oracle: F G F equals G, so the product is
    # G + I whose largest absolute row sum is 2
    product = f.matrix @ g.matrix @ f.matrix
    assert np.array_equal(product, g.matrix)
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
        assert np.array_equal(t.matrix @ t.matrix @ e, -e)


@pytest.mark.parametrize("n", range(1, 9))
def test_anticommutation_fg_equals_h(n):
    f, g, h = structure_triple("tangent", BlockDim(n))
    assert np.array_equal(f.matrix @ g.matrix, h.matrix)
    assert np.array_equal(g.matrix @ f.matrix, -h.matrix)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_orthogonality_and_skewness(n, label):
    m = tensor(label, n=n).matrix
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
    assert np.array_equal(t.matrix @ (a * u + b * v), a * (t.matrix @ u) + b * (t.matrix @ v))


@pytest.mark.parametrize("bad", [0, -3, 1.5, True])
def test_blockdim_rejects_non_positive_integers(bad):
    with pytest.raises(ValueError):
        BlockDim(bad)


def test_structure_kind_validation():
    with pytest.raises(ValueError):
        StructureKind("Q", "tangent")
    with pytest.raises(ValueError):
        StructureKind("F", "spacelike")


def test_structure_tensor_rejects_malformed_matrices():
    dim = BlockDim(1)
    kind = StructureKind("F", "tangent")
    with pytest.raises(ValueError):
        StructureTensor(kind=kind, dim=dim, matrix=np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        StructureTensor(kind=kind, dim=dim, matrix=2 * np.eye(4, dtype=np.int64))
    doubled = np.eye(4, dtype=np.int64)
    doubled[0, 1] = 1
    with pytest.raises(ValueError):
        StructureTensor(kind=kind, dim=dim, matrix=doubled)


def test_matrices_are_immutable():
    t = tensor("F")
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 5
