"""dynamics.gaussian_solve, the Newton solve of the implicit midpoint rule up
to 4n = NUMPY_SOLVE_SIZE.

Against np.linalg.solve it is held to the backward error that Gaussian
elimination with partial pivoting guarantees (Higham, Accuracy and
Stability of Numerical Algorithms, Thm. 9.4): the computed x solves
(A + dA) x = b with |dA| <= gamma_3m |L| |U|, gamma_k = k u / (1 - k u).
Partial pivoting keeps |L| <= 1 and |U| <= 2^(m-1) max|A|, so

    |b - A x|_inf / (|A|_inf |x|_inf) <= BOUND(m) = gamma_3m m^2 2^(m-1).

LAPACK's LU satisfies the same bound.  A(x - x_exact) = -dA x then puts
each solution within kappa BOUND |x|_inf of the exact one, kappa being
the condition number, so the two solutions lie within
kappa BOUND (|x|_inf + |x_numpy|_inf) of each other.  Pivot choice, zero
skips and singular matrices are checked exactly.
"""

import math

import numpy as np
import pytest

from quatflow.dynamics import gaussian_solve
from oracles import elimination_reference

UNIT_ROUNDOFF = 2.0**-53
SIZES = (4, 8, 12, 16)


def _bound(m: int) -> float:
    gamma = 3 * m * UNIT_ROUNDOFF / (1.0 - 3 * m * UNIT_ROUNDOFF)
    return gamma * m * m * 2.0 ** (m - 1)


def _backward_error(matrix: np.ndarray, rhs: np.ndarray, x) -> float:
    x = np.asarray(x)
    residual = rhs - matrix @ x
    return float(np.abs(residual).max() / (np.abs(matrix).sum(axis=1).max() * np.abs(x).max()))


def _hilbert(m: int) -> np.ndarray:
    return 1.0 / (np.arange(m)[:, None] + np.arange(m)[None, :] + 1.0)


def _with_condition(m: int, condition: float, rng) -> np.ndarray:
    """A random matrix whose singular values run geometrically from 1 to 1/condition."""
    left, _ = np.linalg.qr(rng.standard_normal((m, m)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (left * np.geomspace(1.0, 1.0 / condition, m)) @ right.T


def _systems(m: int, rng):
    for _ in range(50):
        yield rng.standard_normal((m, m))
    for _ in range(10):
        # the Newton matrices of a step: I - dt/2 J with a dense J of size ~1
        yield np.eye(m) - 0.05 * rng.standard_normal((m, m))
    yield _hilbert(m)
    for condition in (1e6, 1e10, 1e14):
        yield _with_condition(m, condition, rng)


@pytest.mark.parametrize("m", SIZES)
def test_agrees_with_numpy_within_the_backward_error_bound(m):
    rng = np.random.default_rng(m)
    bound = _bound(m)
    for matrix in _systems(m, rng):
        rhs = rng.standard_normal(m)
        x = gaussian_solve(matrix.tolist(), rhs.tolist())
        assert type(x) is list and all(type(v) is float for v in x)
        reference = np.linalg.solve(matrix, rhs)
        assert _backward_error(matrix, rhs, x) <= bound
        assert _backward_error(matrix, rhs, reference) <= bound
        kappa = np.linalg.cond(matrix, np.inf)
        apart = kappa * bound * (np.abs(x).max() + np.abs(reference).max())
        assert np.abs(np.array(x) - reference).max() <= apart


@pytest.mark.parametrize("m", (1, 2, 3, 4, 8, 12, 16))
def test_equals_the_elimination_oracle_bit_for_bit_on_tied_pivots(m):
    # entries from {-2, -1, 1, 2} / 3 tie in |value| often and round in every division
    rng = np.random.default_rng(10 + m)
    for _ in range(200):
        matrix = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(m, m)) / 3.0
        rhs = rng.standard_normal(m)
        try:
            expected = elimination_reference(matrix, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="^Singular matrix$"):
                gaussian_solve(matrix.tolist(), rhs.tolist())
            continue
        assert np.array(gaussian_solve(matrix.tolist(), rhs.tolist())).tobytes() == expected.tobytes()


def test_a_pivot_tie_takes_the_first_row():
    p, u, v, c, d = 2.1, -1.6, 0.3, -0.8, 0.6
    # the first row's elimination, written out, and the second row's: they differ in x0's last bit
    f = -p / p
    x1 = (d - f * c) / (v - f * u)
    first = [(c - u * x1) / p, x1]
    g = p / -p
    y1 = (c - g * d) / (u - g * v)
    second = [(d - v * y1) / -p, y1]
    assert first != second
    assert gaussian_solve([[p, u], [-p, v]], [c, d]) == first


def test_the_pivot_is_swapped_into_place_not_moved_to_the_front():
    # column 0 picks row 2; row 0 then takes its place, so the tie in column 1
    # is between row 1 (|1|) and the old row 0 (|-1|): row 1 comes first
    matrix = [[1.0, -1.0, 0.7], [0.0, 1.0, 0.1], [3.0, 0.0, 0.3]]
    rhs = [0.3, -0.9, 1.1]
    expected = elimination_reference(np.array(matrix), np.array(rhs))
    assert np.array(gaussian_solve(matrix, rhs)).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 1.0], [0.0, 2.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        np.zeros((8, 8)).tolist(),
    ],
    ids=["zero_1x1", "dependent_rows", "zero_column", "zero_last_pivot", "zero_8x8"],
)
def test_an_exactly_singular_matrix_raises_numpys_message(matrix):
    rhs = [1.0] * len(matrix)
    with pytest.raises(np.linalg.LinAlgError) as numpy_error:
        np.linalg.solve(np.array(matrix), np.array(rhs))
    with pytest.raises(ValueError) as error:
        gaussian_solve(matrix, rhs)
    assert type(error.value) is ValueError
    assert str(error.value) == str(numpy_error.value) == "Singular matrix"


@pytest.mark.parametrize("m", (1, 2, 4, 8))
def test_a_right_hand_side_of_signed_zeros_comes_back_unchanged(m):
    rng = np.random.default_rng(20 + m)
    for _ in range(20):
        matrix = rng.standard_normal((m, m)).tolist()  # pivots of either sign
        for rhs in ([-0.0] * m, [0.0] * m):
            x = gaussian_solve(matrix, rhs)
            assert np.array(x).tobytes() == np.array(rhs).tobytes()
        # zeros of both signs are carried through the row swaps
        rhs = rng.choice([-0.0, 0.0], size=m).tolist()
        assert sorted(map(str, gaussian_solve(matrix, rhs))) == sorted(map(str, rhs))


def test_a_negative_zero_component_stays_negative_zero():
    # x1 solves to 0.0; subtracting its term -3 * 0.0 from x0's -0.0 would give 0.0
    assert np.array(gaussian_solve([[2.0, -3.0], [0.0, 1.0]], [-0.0, 0.0])).tobytes() == np.array([-0.0, 0.0]).tobytes()
    assert np.array(gaussian_solve([[-2.0, 5.0], [1.0, 4.0]], [-0.0, -0.0])).tobytes() == np.array([-0.0, -0.0]).tobytes()


def test_neither_argument_is_changed():
    matrix = [[1.0, 2.0], [3.0, 4.0]]
    rhs = [5.0, 6.0]
    gaussian_solve(matrix, rhs)
    assert matrix == [[1.0, 2.0], [3.0, 4.0]] and rhs == [5.0, 6.0]


def test_non_finite_values_propagate_without_raising():
    assert all(map(np.isnan, gaussian_solve([[1.0, float("nan")], [0.5, 1.0]], [1.0, 1.0])))
    # the elimination overflows to inf: IEEE arithmetic, no OverflowError
    assert gaussian_solve([[1.0, 1.0], [-1.0, 1.0]], [1e308, 1e308]) == [-math.inf, math.inf]
