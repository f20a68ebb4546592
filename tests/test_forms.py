import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatflow import (
    AffineOneForm,
    BlockDim,
    ConstantTwoForm,
    EuclideanMetric,
    StructureKind,
    build_structure,
    canonical_one_form,
    exterior_derivative,
    interior_product,
    liouville_form,
    metric_kaehler_form,
    pullback_by_dual,
    symplectic_form,
)
from oracles import expected_symplectic_matrix, fd_two_form_value, signed_perm_det


def test_canonical_form_coefficient_example():
    omega = canonical_one_form(BlockDim(1))
    assert omega.coefficients(np.array([3.0, 5.0, 7.0, 9.0]))[1] == 2.5


def test_canonical_form_vanishes_at_origin():
    for n in (1, 3):
        omega = canonical_one_form(BlockDim(n))
        assert omega.evaluate(np.zeros(4 * n), np.arange(4 * n) + 1.0) == 0.0


def test_canonical_form_on_all_ones_n2():
    omega = canonical_one_form(BlockDim(2))
    assert omega.evaluate(np.ones(8), np.ones(8)) == 4.0


def test_pullback_reproduces_the_f_liouville_form():
    dim = BlockDim(1)
    lam = liouville_form("F", dim)
    # 1/2 (x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3)
    expected = np.zeros((4, 4))
    expected[1, 0] = 0.5
    expected[0, 1] = -0.5
    expected[3, 2] = 0.5
    expected[2, 3] = -0.5
    assert np.array_equal(lam.linear, expected)
    assert np.array_equal(lam.constant, np.zeros(4))


def test_pullback_reproduces_the_g_liouville_form():
    lam = liouville_form("G", BlockDim(1))
    # 1/2 (x1 dx3 - x2 dx4 - x3 dx1 + x4 dx2)
    expected = np.zeros((4, 4))
    expected[2, 0] = 0.5
    expected[3, 1] = -0.5
    expected[0, 2] = -0.5
    expected[1, 3] = 0.5
    assert np.array_equal(lam.linear, expected)


def test_pullback_of_zero_form_is_zero():
    dim = BlockDim(2)
    dual = build_structure(StructureKind("H", "cotangent"), dim)
    size = dim.total
    pulled = pullback_by_dual(dual, AffineOneForm(dim, np.zeros((size, size)), np.zeros(size)))
    assert not pulled.linear.any()
    assert not pulled.constant.any()


def test_pullback_requires_cotangent_structure():
    dim = BlockDim(1)
    tangent = build_structure(StructureKind("F", "tangent"), dim)
    with pytest.raises(ValueError):
        pullback_by_dual(tangent, canonical_one_form(dim))


def test_pullback_requires_matching_dims():
    dual = build_structure(StructureKind("F", "cotangent"), BlockDim(2))
    with pytest.raises(ValueError):
        pullback_by_dual(dual, canonical_one_form(BlockDim(1)))


def test_exterior_derivative_of_f_liouville_form():
    d_lam = exterior_derivative(liouville_form("F", BlockDim(1)))
    # dx1 ^ dx2 + dx3 ^ dx4
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    expected[2, 3] = 1.0
    expected[3, 2] = -1.0
    assert np.array_equal(d_lam.matrix, expected)


def test_exterior_derivative_of_radial_form_vanishes():
    d_omega = exterior_derivative(canonical_one_form(BlockDim(2)))
    assert not d_omega.matrix.any()


def test_exterior_derivative_textbook_example():
    # d(x2 dx1) = -dx1 ^ dx2
    linear = np.zeros((4, 4))
    linear[0, 1] = 1.0
    form = AffineOneForm(BlockDim(1), linear, np.zeros(4))
    derivative = exterior_derivative(form)
    expected = np.zeros((4, 4))
    expected[0, 1] = -1.0
    expected[1, 0] = 1.0
    assert np.array_equal(derivative.matrix, expected)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_symplectic_form_matches_displayed_wedge_expansion(label, n):
    derived = symplectic_form(label, BlockDim(n))
    assert np.array_equal(derived.matrix, expected_symplectic_matrix(label, n))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_symplectic_form_is_a_nondegenerate_signed_permutation(label, n):
    omega = symplectic_form(label, BlockDim(n)).matrix
    support = np.abs(omega)
    assert np.isin(omega, (-1.0, 0.0, 1.0)).all()
    assert (support.sum(axis=0) == 1).all() and (support.sum(axis=1) == 1).all()
    assert np.array_equal(omega @ omega, -np.eye(4 * n))
    assert abs(signed_perm_det(omega)) == 1


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_closedness_via_finite_difference_oracle(label):
    rng = np.random.default_rng(20240811)
    dim = BlockDim(1)
    lam = liouville_form(label, dim)
    d_lam = exterior_derivative(lam)
    for _ in range(10):
        point = rng.uniform(-2.0, 2.0, 4)
        u = rng.uniform(-1.0, 1.0, 4)
        v = rng.uniform(-1.0, 1.0, 4)
        assert fd_two_form_value(lam, point, u, v) == pytest.approx(
            d_lam.evaluate(u, v), abs=1e-6
        )


@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("n", [1, 2])
def test_metric_kaehler_form_is_minus_the_symplectic_form(label, n):
    dim = BlockDim(n)
    structure = build_structure(StructureKind(label, "tangent"), dim)
    metric = metric_kaehler_form(structure, EuclideanMetric(dim))
    assert np.array_equal(metric.matrix, -symplectic_form(label, dim).matrix)
    assert np.array_equal(metric.matrix, structure.matrix.T.astype(float))


def test_metric_kaehler_form_vanishes_on_diagonal_pairs():
    dim = BlockDim(1)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    for label in "FGH":
        structure = build_structure(StructureKind(label, "tangent"), dim)
        form = metric_kaehler_form(structure, EuclideanMetric(dim))
        assert form.evaluate(e1, e1) == 0.0


def test_metric_kaehler_form_requires_tangent_structure():
    dim = BlockDim(1)
    dual = build_structure(StructureKind("F", "cotangent"), dim)
    with pytest.raises(ValueError):
        metric_kaehler_form(dual, EuclideanMetric(dim))


def test_interior_product_f_pattern():
    omega = symplectic_form("F", BlockDim(1))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(interior_product(omega, x), np.array([2.0, -1.0, 4.0, -3.0]))


def test_interior_product_of_zero_vector():
    omega = symplectic_form("G", BlockDim(2))
    assert not interior_product(omega, np.zeros(8)).any()


def test_interior_product_h_example():
    omega = symplectic_form("H", BlockDim(1))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(interior_product(omega, x), np.array([4.0, 3.0, -2.0, -1.0]))


def test_interior_product_rejects_wrong_length():
    with pytest.raises(ValueError):
        interior_product(symplectic_form("F", BlockDim(1)), np.zeros(8))


@given(
    x=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    v=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    label=st.sampled_from(["F", "G", "H"]),
)
def test_interior_product_agrees_with_bilinear_evaluation(x, v, label):
    omega = symplectic_form(label, BlockDim(1))
    x = np.array(x, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    assert float(np.dot(interior_product(omega, x), v)) == omega.evaluate(x, v)


def test_two_form_rejects_non_skew_matrix():
    with pytest.raises(ValueError):
        ConstantTwoForm(BlockDim(1), np.eye(4))


def test_forms_reject_mismatched_shapes_lengths_and_dims():
    dim = BlockDim(1)
    for linear, constant in ((np.eye(8), np.zeros(4)), (np.eye(4), np.zeros(8))):
        with pytest.raises(ValueError):
            AffineOneForm(dim, linear, constant)
    with pytest.raises(ValueError):
        ConstantTwoForm(dim, np.zeros((8, 8)))
    theta = canonical_one_form(dim)
    phi = symplectic_form("F", dim)
    tangent_f = build_structure(StructureKind("F", "tangent"), BlockDim(2))
    for call in (
        lambda: metric_kaehler_form(tangent_f, EuclideanMetric(dim)),
        lambda: theta.coefficients(np.zeros(8)),
        lambda: theta.evaluate(np.zeros(4), np.zeros(8)),
        lambda: phi.evaluate(np.zeros(8), np.zeros(4)),
        lambda: phi.evaluate(np.zeros(4), np.zeros(8)),
    ):
        with pytest.raises(ValueError):
            call()
