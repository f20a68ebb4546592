"""The loops of the steppers, the EOM probe and the CSV writer against the
plain formulas they replace, compared bit for bit.

The field applies Omega as (order, signs) instead of a matrix product,
through apply, which each structure tensor generates from them, and the
RK4 step is straight-line code generated from them too; each must equal
the comprehensions it replaced, shift's stage by stage form included.
Both steppers run on lists of floats and on gradients, the Newton
Jacobian applies Omega once as a reorder of the gradient differences'
matrix, the EOM residual is one generated row per interior point and each
CSV row is one %-format.  Negation, reordering and elementwise arithmetic
in the same order are exact, so each must equal its reference with
np.array_equal (or ==, or byte for byte where a signed zero must survive),
not merely to a tolerance.
"""

import math
import struct
from functools import partial

import numpy as np
import pytest

from quatflow import (
    BlockDim,
    HamiltonianSystem,
    StructureKind,
    Trajectory,
    build_structure,
    eom_residual,
    gradient,
    hamiltonian_vector_field,
    evaluate,
    integrate,
    parse,
    step_implicit_midpoint,
    step_rk4,
    symplecticity_residual,
)
from quatflow import dynamics
from quatflow.dynamics import IntegrationError
from quatflow.structures import SPACES, identity_tensor
from quatflow.cli import trajectory_csv
import oracles
from oracles import dense, omega_matrix, rk4_on_field, rk4_step_on_arrays

SIZES = (1, 2, 8)
# the sizes of both Newton solves: floats up to 4n = NUMPY_SOLVE_SIZE = 16, numpy at 32
NEWTON_SIZES = (1, 2, 3, 4, 8)


def _energy(n: int) -> str:
    squares = " + ".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    return f"0.5*({squares}) + 0.1*x1^4 + 0.05*sin(x2)"


def _system(label: str, n: int) -> HamiltonianSystem:
    return HamiltonianSystem.build(label, parse(_energy(n), BlockDim(n)))


def _points(n: int, count: int, seed: int):
    """Random directions at |x| = 0.8, the benchmark's amplitude."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        direction = rng.standard_normal(4 * n)
        yield 0.8 * direction / np.linalg.norm(direction)


def _matrix_field(system):
    omega = omega_matrix(system)
    return lambda point: omega @ gradient(system.hamiltonian, point)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_signed_permutation_field_equals_the_matrix_product(label, n):
    system = _system(label, n)
    omega, size = system.omega, 4 * n
    # build holds the label's dual tensor as omega, and the forms chain's Omega equals it
    dual = build_structure(StructureKind(label, "cotangent"), BlockDim(n))
    assert (omega.kind, omega.dim, omega.order, omega.signs) == (dual.kind, dual.dim, dual.order, dual.signs)
    assert np.array_equal(np.array(omega.signs)[:, None] * np.eye(size)[list(omega.order)], omega_matrix(system))
    assert np.array_equal(dense(omega.rows), omega_matrix(system))
    field = _matrix_field(system)
    for point in _points(n, 20, seed=n):
        assert np.array_equal(hamiltonian_vector_field(system, point), field(point))


@pytest.mark.parametrize("n", (1, 2, 4, 8))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_rk4_step_equals_the_textbook_formula(label, n):
    system = _system(label, n)
    field = _matrix_field(system)
    for point in _points(n, 10, seed=10 + n):
        textbook = rk4_on_field(field, point, 0.01, 1)[-1]
        assert np.array_equal(step_rk4(system, point, 0.01), textbook)
    start = next(_points(n, 1, seed=20 + n))
    trajectory = integrate(system, start, 0.02, 50, "rk4")
    assert np.array_equal(trajectory.states, np.array(rk4_on_field(field, start, 0.02, 50)))


def _signed_zeros(n: int) -> np.ndarray:
    return np.array([-0.0 if a % 2 else 0.0 for a in range(4 * n)])


@pytest.mark.parametrize("n", (1, 2, 4, 8, 64))
@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("energy", ["mixed", "constant"])
def test_rk4_step_equals_the_array_step_byte_for_byte(energy, label, n):
    # tobytes tells -0.0 from 0.0, which np.array_equal does not
    text = _energy(n) if energy == "mixed" else "5"
    system = HamiltonianSystem.build(label, parse(text, BlockDim(n)))
    field_gradient = partial(gradient, system.hamiltonian)
    starts = [_signed_zeros(n), -_signed_zeros(n), *_points(n, 5, seed=60 + n)]
    for start in starts:
        stepped = step_rk4(system, start.tolist(), 0.01)
        assert type(stepped) is list and len(stepped) == 4 * n
        assert all(type(v) is float for v in stepped)
        assert np.array(stepped).tobytes() == rk4_step_on_arrays(system, start, 0.01).tobytes()
        shifted = oracles.rk4_shift_reference(system.omega, field_gradient, start.tolist(), 0.01)
        assert np.array(stepped).tobytes() == np.array(shifted).tobytes()
        # a tuple, as states are held, and an array read the same
        assert np.array(step_rk4(system, tuple(start.tolist()), 0.01)).tobytes() == np.array(stepped).tobytes()
        assert np.array(step_rk4(system, start, 0.01)).tobytes() == np.array(stepped).tobytes()


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("stage", range(4))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_stage_fails_the_step(value, stage, n, monkeypatch):
    # the step looks gradient up in dynamics when it runs, so the stub reaches every stage;
    # the quadratic's kernel takes an infinite point without a domain error
    system = HamiltonianSystem.build("G", parse(oracles.quadratic_energy_text(BlockDim(n)), BlockDim(n)))
    calls = []

    def stage_gradient(field, point):
        calls.append(point)
        grad = gradient(field, point)
        if len(calls) - 1 == stage:
            grad[-1] = value
        return grad

    monkeypatch.setattr(dynamics, "gradient", stage_gradient)
    with pytest.raises(IntegrationError, match="^non-finite state after step$"):
        step_rk4(system, [0.1] * (4 * n), 0.01)
    assert len(calls) == 4


@pytest.mark.parametrize("size", (3, 5))
def test_a_wrong_length_point_fails_the_step_as_the_kernel_does(size):
    system = _system("F", 1)
    with pytest.raises(ValueError, match="^point must have length 4$"):
        gradient(system.hamiltonian, [0.1] * size)
    for x in ([0.1] * size, (0.1,) * size, np.full(size, 0.1)):
        with pytest.raises(ValueError, match="^point must have length 4$"):
            step_rk4(system, x, 0.01)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_a_narrow_float_array_steps_as_its_list_of_floats(dtype, n):
    # the step reads x as the kernel does, so it never computes in the array's precision
    system = _system("G", n)
    for point in _points(n, 5, seed=30 + n):
        narrow = point.astype(dtype)
        stepped = step_rk4(system, narrow, 0.01)
        assert all(type(v) is float for v in stepped)
        assert np.array(stepped).tobytes() == np.array(step_rk4(system, narrow.tolist(), 0.01)).tobytes()


@pytest.mark.parametrize("point", [[0.1] * 3, np.full((2, 4), 0.1), 0.1], ids=["short", "2-D", "number"])
def test_a_malformed_point_raises_one_error_wherever_it_is_read(point):
    system = _system("F", 1)
    energy = system.hamiltonian
    readers = [partial(evaluate, energy), partial(gradient, energy), lambda x: step_rk4(system, x, 0.01),
               lambda x: step_implicit_midpoint(system, x, 0.01)]
    readers += [partial(symplecticity_residual, system, dt=0.01, method=method) for method in dynamics.METHODS]
    for read in readers:
        with pytest.raises(ValueError) as info:
            read(point)
        assert type(info.value) is ValueError and str(info.value) == "point must have length 4"


# signed zeros, subnormals, infinities and the extremes of the normal range
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, math.inf, -math.inf,
                  1.7976931348623157e308, -1e300, 1.0, -0.1)


def _special_vectors(size: int, count: int, seed: int) -> list[list[float]]:
    """Vectors mixing SPECIAL_FLOATS with random normal floats, as lists."""
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(count):
        special = rng.choice(SPECIAL_FLOATS, size)
        vectors.append(np.where(rng.random(size) < 0.5, special, rng.standard_normal(size)).tolist())
    return vectors


def _assert_same_bits(got, want):
    """Byte-equal floats, signed zeros included; a NaN only has to be a NaN."""
    assert type(got) is list and len(got) == len(want)
    for value, reference in zip(got, want):
        assert type(value) is float
        if math.isnan(reference):
            assert math.isnan(value)
        else:
            assert struct.pack("<d", value) == struct.pack("<d", reference)


def _tensors(n: int):
    dim = BlockDim(n)
    yield identity_tensor(dim)
    for space in SPACES:
        for label in ("F", "G", "H"):
            yield build_structure(StructureKind(label, space), dim)


def _rk4(tensor):
    """The straight-line RK4 step a system with this tensor as Omega generates."""
    return HamiltonianSystem(parse("0", tensor.dim), tensor)._rk4_step


def _feed(gradients, points=None):
    """A stand-in for gradient that returns the given gradients in turn and records its points."""
    remaining = iter(gradients)

    def feed(*args):  # (field, point) as gradient takes them, or (point,) as the oracle gives them
        if points is not None:
            points.append(args[-1])
        return list(next(remaining))

    return feed


@pytest.mark.parametrize("n", (1, 2, 3, 8, 64))
def test_generated_apply_and_shift_equal_the_comprehensions_bit_for_bit(n):
    # the step's shifts x + h T g, stage by stage, meet special floats through gradients fed
    # in; a state the reference leaves non-finite fails the step
    size = 4 * n
    vectors = _special_vectors(size, 6, seed=n)
    # the same vectors without infinities and huge entries, so that whole steps stay finite
    tame = [[v if abs(v) <= 1.0 else 0.5 for v in vector] for vector in vectors]
    outcomes = set()
    for tensor in _tensors(n):
        rk4 = _rk4(tensor)
        for v in vectors:
            _assert_same_bits(tensor.apply(v), oracles.apply_reference(tensor, v))
        for group in (vectors, tame):
            for j, x in enumerate(group):
                gradients = group[j + 1:] + group[:j + 1]
                for dt in (0.01, -0.01, 1.0 / 300.0, -6.0, 1e300, -5e-324):
                    want = oracles.rk4_shift_reference(tensor, _feed(gradients), x, dt)
                    outcomes.add(all(map(math.isfinite, want)))
                    if all(map(math.isfinite, want)):
                        _assert_same_bits(rk4(_feed(gradients), None, x, dt), want)
                        # a tuple, as states are held, reads the same
                        _assert_same_bits(rk4(_feed(gradients), None, tuple(x), dt), want)
                    else:
                        with pytest.raises(IntegrationError, match="^non-finite state after step$"):
                            rk4(_feed(gradients), None, x, dt)
        _assert_same_bits(tensor.apply(tuple(vectors[1])), tensor.apply(vectors[1]))
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", (1, 2, 8))
def test_a_nan_input_gives_nan_where_it_lands(n):
    size = 4 * n
    ones = [1.0] * size
    for tensor in _tensors(n):
        rk4 = _rk4(tensor)
        for a in (0, size - 1):
            v = [0.5] * size
            v[a] = math.nan
            # component i reads v[order_i], so the NaN lands where order_i == a
            landed = tensor.order.index(a)
            assert [math.isnan(value) for value in tensor.apply(v)] == [i == landed for i in range(size)]
            # in the step's second stage point a NaN of the first gradient lands as in apply,
            # one of x stays where it is; the step then fails
            for x, first, where in ((ones, v, landed), (v, ones, a)):
                points = []
                with pytest.raises(IntegrationError, match="^non-finite state after step$"):
                    rk4(_feed([first] + [ones] * 3, points), None, x, 0.5)
                assert [math.isnan(value) for value in points[1]] == [i == where for i in range(size)]
        points = []
        with pytest.raises(IntegrationError, match="^non-finite state after step$"):
            rk4(_feed([ones] * 4, points), None, [0.0] * size, math.nan)
        assert all(map(math.isnan, points[1]))


def _assert_midpoint_step_equals_the_reference(system, x, start, monkeypatch) -> int:
    """Same state and gradient evaluation points as the reference loop; its iterations.

    The points the field is evaluated at include every Newton iterate, so
    equal point sequences mean equal Jacobians and updates, not only an
    equal converged state.  Both loops stop at the relative 1e-12 * max(1,
    |y|), so the whole run compares, at |x| = 1e7 too.
    """
    points = []

    def recording_gradient(field, point):
        points.append(np.array(point))
        return gradient(field, point)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "gradient", recording_gradient)
        patch.setattr(oracles, "gradient", recording_gradient)
        reference, _ = oracles.midpoint_newton_reference(system, x, 0.05, start=start)
        reference_points = np.array(points)
        points.clear()
        stepped = np.array(step_implicit_midpoint(system, x, 0.05, start=start))
    calls = len(points)
    assert calls % (x.size + 1) == 0  # 4n + 1 field calls per iteration
    assert np.array(points).tobytes() == reference_points.tobytes()
    assert stepped.tobytes() == reference.tobytes()
    return calls // (x.size + 1)


# per n, a cycle of magnitudes whose squares, repeated over 4n coordinates,
# sum to exactly 1e14; at n = 3 no two magnitudes, 6 of each, can do it
_FAR_MAGNITUDES = {
    1: (5e6, 5e6), 2: (4e6, 3e6), 3: (5e6, 3e6, 2e6, 2e6, 2e6, 2e6), 4: (2.5e6, 2.5e6), 8: (2e6, 1.5e6),
}


def _starts(n: int, seed: int):
    """Random points at |x| = 0.8, then signed zeros and a point of size 1e7.

    The zeros meet the signed reorder of the Jacobian, which can flip the
    sign of a zero entry but not the Newton matrix.  At 1e7 each finite
    difference step h_a = 1e-7 |x_a| is 0.15 to 0.5; |x| is exactly 1e7, so
    numpy's norm, which the reference's stop reads, and math.hypot, which
    the step's stop reads, agree.
    """
    yield from _points(n, 5, seed=seed)
    yield _signed_zeros(n)
    magnitudes = _FAR_MAGNITUDES[n]
    yield np.array([(-1.0) ** (a // 3) * magnitudes[a % len(magnitudes)] for a in range(4 * n)])


@pytest.mark.parametrize("n", NEWTON_SIZES)
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_midpoint_step_equals_the_reference_newton_loop(label, n, monkeypatch):
    system = _system(label, n)
    for start in _starts(n, seed=30 + n):
        _assert_midpoint_step_equals_the_reference(system, start, None, monkeypatch)


@pytest.mark.parametrize("n", NEWTON_SIZES)
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_warm_started_midpoint_step_equals_the_reference_newton_loop(label, n, monkeypatch):
    # the start the symplecticity probe gives a step: the step of a nearby
    # point, shifted by the difference of the two points
    system = _system(label, n)
    for x in _starts(n, seed=50 + n):
        neighbour = x.copy()
        neighbour[0] += 2.0**-17
        start = step_implicit_midpoint(system, neighbour, 0.05) + (x - neighbour)
        warm = _assert_midpoint_step_equals_the_reference(system, x, start, monkeypatch)
        assert warm < _assert_midpoint_step_equals_the_reference(system, x, None, monkeypatch)


@pytest.mark.parametrize("n", NEWTON_SIZES)
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_the_float_newton_system_equals_the_numpy_one_byte_for_byte(label, n, monkeypatch):
    # both updates build I - dt/2 J and -residual; each solver is replaced by a recorder
    system = _system(label, n)
    size = 4 * n
    systems = {}

    def recorder(name):
        def record(matrix, rhs):
            systems[name] = (np.array(matrix).tobytes(), np.array(rhs).tobytes())
            return np.zeros(size)
        return record

    monkeypatch.setattr(dynamics, "gaussian_solve", recorder("floats"))
    monkeypatch.setattr(np.linalg, "solve", recorder("numpy"))
    rng = np.random.default_rng(70 + n)
    for scale in (1.0, 1e-300, 1e300, 0.0):  # at scale 0.0 every entry is a signed zero
        g = [0.0, -0.0, *(scale * rng.standard_normal(size - 2))]
        # equal entries give differences of 0.0, and a -0.0 row against g's 0.0 gives -0.0:
        # signed zeros that Omega's signs and the identity's 0.0 - v must treat as numpy does
        rows = [[b if rng.random() < 0.3 else b + scale * rng.standard_normal() for b in g] for _ in range(size)]
        rows[0] = [-0.0] * size
        rows[-1] = [math.inf, -math.inf] * (size // 2)  # infinite differences against the finite g
        h = [1e-7 * max(1.0, abs(v)) for v in rng.standard_normal(size)]
        residual = [0.0, -0.0, *rng.standard_normal(size - 2)]
        for dt in (0.01, 0.5):
            dynamics._float_newton_update(system, rows, g, h, dt, residual)
            dynamics._numpy_newton_update(system, rows, g, h, dt, residual)
            assert systems["floats"] == systems["numpy"]


@pytest.mark.parametrize("n", (1, 2, 4, 8))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_eom_residual_equals_the_per_row_loop(label, n):
    system = _system(label, n)
    trajectory = integrate(system, next(_points(n, 1, seed=40 + n)), 0.05, 30, "rk4")
    rows, dt = np.array(trajectory.states), trajectory.step
    worst, field = 0.0, _matrix_field(system)
    for k in range(1, len(rows) - 1):
        velocity = (rows[k + 1] - rows[k - 1]) / (2.0 * dt)
        worst = max(worst, float(np.abs(velocity - field(rows[k])).max()))
    assert eom_residual(trajectory) == worst


def test_csv_rows_equal_per_cell_formatting():
    system = HamiltonianSystem.build("F", parse("x1 - 0.5*x4", BlockDim(1)))
    states = np.array(
        [
            [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
            [0.1, -0.0, -5e-324, 1.0 / 3.0],
            [2.0**-1074, 1e-300, 123456789.123456789, -0.0],
        ]
    )
    trajectory = Trajectory(system, states, 0.1)
    expected = ["t,x1,x2,x3,x4,energy"]
    for time, state in zip(trajectory.times, states):
        energy = float(state[0]) - 0.5 * float(state[3])
        cells = [format(float(v), ".17g") for v in (time, *state, energy)]
        expected.append(",".join(cells))
    assert trajectory_csv(trajectory) == "\n".join(expected) + "\n"
    assert ",-0," in trajectory_csv(trajectory)


# --- the Newton stopping rule ------------------------------------------------

@pytest.mark.parametrize("scale", [1e5, 1e7])
def test_midpoint_converges_far_from_the_origin(scale, monkeypatch):
    # an absolute 1e-12 update norm is below the rounding of states this
    # large; the relative stop accepts an update at machine precision
    system = HamiltonianSystem.build("G", parse("0.5*(x1^2 + x2^2 + x3^2 + x4^2)", BlockDim(1)))
    calls = []

    def counted_gradient(field, point):
        calls.append(1)
        return gradient(field, point)

    monkeypatch.setattr(dynamics, "gradient", counted_gradient)
    for _ in range(3):
        calls.clear()
        start = np.array([scale, 0.0, 0.0, 0.0])
        stepped = step_implicit_midpoint(system, start, 0.01)
        assert calls and len(calls) % 5 == 0
        assert len(calls) < 5 * dynamics.NEWTON_MAX_ITER
        # the midpoint rule conserves a quadratic energy, so |y| = |x| to rounding
        assert abs(np.linalg.norm(stepped) / scale - 1.0) <= 4 * np.finfo(float).eps


def _scaled(matrix):
    return 2.0 * matrix


def _with_an_extra_pair(matrix):
    matrix = matrix.copy()
    matrix[0, 2], matrix[2, 0] = 1.0, -1.0  # F at n = 1 has zeros there
    return matrix


@pytest.mark.parametrize("change", [_scaled, _with_an_extra_pair], ids=["scaled", "extra-pair"])
def test_build_rejects_an_omega_that_is_not_a_signed_permutation(change, monkeypatch):
    from quatflow.forms import ConstantTwoForm, symplectic_form

    def changed_form(label, dim):
        return ConstantTwoForm(dim, change(symplectic_form(label, dim).matrix))

    monkeypatch.setattr(dynamics, "symplectic_form", changed_form)
    with pytest.raises(AssertionError):
        HamiltonianSystem.build("F", parse("x1", BlockDim(1)))


def test_build_rejects_the_signed_permutation_of_another_label(monkeypatch):
    from quatflow.forms import symplectic_form

    monkeypatch.setattr(dynamics, "symplectic_form", lambda label, dim: symplectic_form("G", dim))
    with pytest.raises(AssertionError):
        HamiltonianSystem.build("F", parse("x1", BlockDim(1)))
