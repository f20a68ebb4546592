"""The compiled kernel against its oracles.

The AST interpreter (oracles.interpret) computes H in the kernel's order,
so the kernel's value function agrees with it bit for bit.  The seeded
dual-number passes (oracles.dual_gradient) differentiate the same AST in
forward mode.  They round in a different order, so the two agree to a few
ulp wherever each gradient component is one product chain, and on any tree
to a few ulp of each component's sum of |terms| per operation
(oracles.gradient_magnitudes) while every number on the way stays in the
normal range; central differences of the interpreter (oracles.fd_gradient)
check both from outside.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatflow import BlockDim, EvaluationError, HamiltonianSystem, evaluate, gradient, parse
from quatflow._records import walk
from quatflow.expressions import DEMO_HAMILTONIANS, ScalarField, _KernelSource
from oracles import dual_gradient, fd_gradient, gradient_magnitudes, interpret
from test_expressions import _nodes

EPS = np.finfo(np.float64).eps
DIM1 = BlockDim(1)

# the radial energies g(S), S = |x|^2, of the benchmark workloads
RADIAL = {
    "quadratic": "0.5*{S}",
    "quartic": "0.25*(1+{S})^2",
    "exponential": "exp(0.5*{S})",
    "root": "sqrt(1+{S})",
}
# every operator and function, a constant and a varying exponent; each
# coordinate occurs once, so no gradient component is a cancelling sum
MIXED = "sin(x1)*cos(x2) - exp(x3/2)/sqrt(1+x4^2) + (2+x5^2)^(x6/3) - -x7^3 + 1.5/(3+x8)"


def _radial(name: str, n: int):
    squares = "+".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    return parse(RADIAL[name].format(S=f"({squares})"), BlockDim(n))


def _sphere_points(n: int, count: int, seed: int):
    """Random directions at |x| = 0.8, the benchmark's amplitude."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        direction = rng.standard_normal(4 * n)
        yield 0.8 * direction / np.linalg.norm(direction)


def _mixed_points(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(-2.0, 2.0, 8)


def _assert_matches_oracles(field, point):
    kernel = gradient(field, point)
    dual = dual_gradient(field, point)
    assert np.all(np.abs(kernel - dual) <= 4 * EPS * np.abs(dual))
    fd = fd_gradient(field, point, 1e-6)
    assert np.abs(kernel - fd).max() <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("energy", sorted(RADIAL))
def test_kernel_matches_oracles_on_radial_energies(energy, n):
    field = _radial(energy, n)
    for point in _sphere_points(n, 10, seed=n):
        _assert_matches_oracles(field, point)


def test_kernel_matches_oracles_on_every_operator_and_function():
    field = parse(MIXED, BlockDim(2))
    for point in _mixed_points(50, seed=3):
        _assert_matches_oracles(field, point)


SQUARE = parse("x1^2", DIM1)


def _value_cases():
    for name in sorted(RADIAL):
        for n in (1, 8):
            yield _radial(name, n), next(_sphere_points(n, 1, seed=11))
    yield parse(MIXED, BlockDim(2)), next(_mixed_points(1, seed=5))
    for text in DEMO_HAMILTONIANS.values():
        yield parse(text, DIM1), np.array([0.3, -1.7, 2.9, 0.4])
    yield SQUARE, np.array([74090.40909643816, 0.0, 0.0, 0.0])  # where u ** 2.0 rounds one ulp below u * u


@pytest.mark.parametrize("field, point", list(_value_cases()))
def test_kernel_value_equals_the_interpreter_bit_for_bit(field, point):
    value = field.gradient_kernel[0](point.tolist())
    assert value.hex() == evaluate(field, point).hex() == interpret(field, point).hex()
    if field is SQUARE:  # the language's rule: u^2 is u*u
        u = float(point[0])
        assert value.hex() == (u * u).hex()


@settings(max_examples=300, deadline=None)
@given(node=_nodes(), n=st.sampled_from([1, 2]), data=st.data())
def test_the_kernel_equals_the_interpreter_on_random_trees(node, n, data):
    # bit for bit, signed zeros included (a NaN's hex is "nan" whatever its sign), or the same error
    field = ScalarField(BlockDim(n), node)
    point = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=4 * n, max_size=4 * n), label="point")
    try:
        expected = interpret(field, point)
    except EvaluationError as oracle_error:
        with pytest.raises(EvaluationError) as kernel_error:
            evaluate(field, point)
        assert kernel_error.value.expression == oracle_error.expression
        return
    assert evaluate(field, point).hex() == expected.hex()
    try:
        assert len(gradient(field, point)) == 4 * n
    except EvaluationError:  # only a derivative failed, as at sqrt(0)
        pass


def _assert_gradient_matches_the_dual_passes(field, point):
    """Both raise, or both return gradients that agree within the rounding of their orders.

    At a power the two form different partials: the kernel takes the log of
    the base wherever the exponent reads a coordinate, and the dual passes
    take base^(c - 1) wherever the exponent's derivative is zero and the
    base's is not; so either alone may fail there.  Past the normal range the
    two orders overflow and underflow at different steps, so there both need
    only return.
    """
    results = []
    for differentiate in (gradient, dual_gradient):
        try:
            results.append(np.array(differentiate(field, point)))
        except EvaluationError as error:
            results.append(error)
    errors = [result for result in results if isinstance(result, EvaluationError)]
    if errors:
        assert len(errors) == 2 or "^" in errors[0].expression
        return
    kernel, dual = results
    magnitudes, exponent = gradient_magnitudes(field, point)
    operations = sum(1 for _ in walk(field.root))
    if operations * exponent < 1000:
        assert np.isfinite(kernel).all() and np.isfinite(dual).all()
        assert np.all(np.abs(kernel - dual) <= 4 * operations * EPS * magnitudes)


@settings(max_examples=300, deadline=None)
@given(node=_nodes(), n=st.sampled_from([1, 2]), data=st.data())
def test_the_kernel_gradient_matches_the_dual_passes_on_random_trees(node, n, data):
    point = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=4 * n, max_size=4 * n), label="point")
    _assert_gradient_matches_the_dual_passes(ScalarField(BlockDim(n), node), point)


def test_the_random_tree_gradient_property_admits_its_known_edges():
    # x4*x4 is subnormal: the kernel's reverse sweep reads inf - inf, the dual passes -inf
    field, point = parse("(x4+x4)/(x4*x4)", DIM1), [0.0, 0.0, 0.0, -7.578745390673275e-158]
    assert math.isnan(gradient(field, point)[3]) and dual_gradient(field, point)[3] == -math.inf
    _assert_gradient_matches_the_dual_passes(field, point)
    # u = x4/1.19e308 is subnormal: the kernel's product from the root overflows, the dual's from x4 does not
    field = parse("cos(x4/1.1863236376690618e+308)/sqrt(x4/1.1863236376690618e+308)", DIM1)
    point = [0.0, 0.0, 0.0, 782.2891168265085]
    assert gradient(field, point)[3] == -math.inf and math.isfinite(dual_gradient(field, point)[3])
    _assert_gradient_matches_the_dual_passes(field, point)
    # log(-0.0) fails in the kernel; the dual passes see x2^0.0's zero derivative and return zeros
    field, point = parse("sin(-0.0)^x2^0.0", DIM1), [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(EvaluationError, match="math domain error"):
        gradient(field, point)
    assert dual_gradient(field, point).tolist() == [0.0] * 4
    _assert_gradient_matches_the_dual_passes(field, point)
    # a constant base has a zero derivative: the dual passes form no 5e-324^(0.03125 - 1), which overflows
    field, point = parse("5e-324^x1", DIM1), [0.03125, 0.0, 0.0, 0.0]
    kernel, dual = gradient(field, point), dual_gradient(field, point)
    assert math.isfinite(kernel[0]) and kernel[1:] == [0.0] * 3 and dual[1:].tolist() == [0.0] * 3
    assert dual[0] == pytest.approx(kernel[0], rel=4 * EPS)
    _assert_gradient_matches_the_dual_passes(field, point)


def test_gradient_is_deterministic_across_calls_and_parses():
    point = next(_mixed_points(1, seed=8))
    first = np.array(gradient(parse(MIXED, BlockDim(2)), point)).tobytes()
    field = parse(MIXED, BlockDim(2))
    for _ in range(3):
        assert np.array(gradient(field, point)).tobytes() == first


def test_kernel_is_compiled_on_the_first_gradient_only():
    field = parse(DEMO_HAMILTONIANS["oscillatory"], DIM1)
    assert "gradient_kernel" not in vars(field)  # parse pays nothing
    HamiltonianSystem.build("F", field)
    assert "gradient_kernel" not in vars(field)  # nor does build
    gradient(field, np.zeros(4))
    kernel = field.gradient_kernel
    gradient(field, np.ones(4))
    evaluate(field, np.ones(4))
    assert field.gradient_kernel is kernel


def test_evaluate_compiles_the_kernel_that_gradient_then_reuses():
    field = parse(DEMO_HAMILTONIANS["oscillatory"], DIM1)
    evaluate(field, np.zeros(4))
    kernel = vars(field)["gradient_kernel"]
    gradient(field, np.ones(4))
    assert field.gradient_kernel is kernel


def test_the_finite_difference_oracle_never_compiles_the_kernel():
    field = parse(MIXED, BlockDim(2))
    numeric = fd_gradient(field, next(_mixed_points(1, seed=4)), 1e-6)
    assert np.isfinite(numeric).all()
    assert "gradient_kernel" not in vars(field)


# --- domain errors ---------------------------------------------------------

@pytest.mark.parametrize(
    "text, point, expression",
    [
        ("1/x2", [1.0, 0.0, 0.0, 0.0], "1.0/x2"),
        ("sqrt(x1)", [0.0, 0.0, 0.0, 0.0], "sqrt(x1)"),  # only sqrt' fails
        ("x1^0.5", [0.0, 0.0, 0.0, 0.0], "x1^0.5"),  # only 0.5*x1^-0.5 fails
        ("x1^x2", [-1.0, 2.0, 0.0, 0.0], "x1^x2"),  # only log(x1) fails
        ("exp(x1)", [1000.0, 0.0, 0.0, 0.0], "exp(x1)"),
        ("2*sqrt(x1) + x2", [0.0, 1.0, 0.0, 0.0], "sqrt(x1)"),
        ("sqrt(x1) + 1/x2", [0.0, 0.0, 0.0, 0.0], "sqrt(x1)"),  # the first in evaluation order
    ],
)
def test_gradient_names_the_failing_subexpression(text, point, expression):
    field = parse(text, DIM1)
    with pytest.raises(EvaluationError) as kernel_error:
        gradient(field, point)
    with pytest.raises(EvaluationError) as oracle_error:
        dual_gradient(field, point)
    assert kernel_error.value.expression == oracle_error.value.expression == expression
    assert isinstance(kernel_error.value.__cause__, (ZeroDivisionError, ValueError, OverflowError))


@pytest.mark.parametrize(
    "text, point",
    [
        ("sqrt(x1)", [0.0, 0.0, 0.0, 0.0]),
        ("x1^0.5", [0.0, 0.0, 0.0, 0.0]),
        ("x1^x2", [-1.0, 2.0, 0.0, 0.0]),
        ("2*sqrt(x1) + x2", [0.0, 1.0, 0.0, 0.0]),
    ],
)
def test_evaluate_returns_the_value_where_only_the_derivative_fails(text, point):
    field = parse(text, DIM1)
    assert evaluate(field, point).hex() == interpret(field, point).hex()
    with pytest.raises(EvaluationError):
        gradient(field, point)


@pytest.mark.parametrize(
    "text, point, expression",
    [
        ("1/x2", [1.0, 0.0, 0.0, 0.0], "1.0/x2"),
        ("sqrt(x1)", [-1.0, 0.0, 0.0, 0.0], "sqrt(x1)"),
        ("exp(x1)", [1000.0, 0.0, 0.0, 0.0], "exp(x1)"),
        ("x1^0.5", [-2.0, 0.0, 0.0, 0.0], "x1^0.5"),
        # gradient names sqrt(x1), whose derivative fails first; the value fails only at 1/x2
        ("sqrt(x1) + 1/x2", [0.0, 0.0, 0.0, 0.0], "1.0/x2"),
    ],
)
def test_evaluate_names_the_same_subexpression_as_the_interpreter(text, point, expression):
    field = parse(text, DIM1)
    with pytest.raises(EvaluationError) as kernel_error:
        evaluate(field, point)
    with pytest.raises(EvaluationError) as oracle_error:
        interpret(field, point)
    assert kernel_error.value.expression == oracle_error.value.expression == expression
    assert isinstance(kernel_error.value.__cause__, (ZeroDivisionError, ValueError, OverflowError))


# every statement kind that can raise: (text, point, entry points, subexpression, cause type, cause text)
RAISING_STATEMENTS = {
    "division by zero": ("1/x2", [1.0, 0.0, 0.0, 0.0], (evaluate, gradient), "1.0/x2",
                         ZeroDivisionError, "float division by zero"),
    "sqrt of a negative": ("sqrt(x1)", [-1.0, 0.0, 0.0, 0.0], (evaluate, gradient), "sqrt(x1)",
                           ValueError, "math domain error"),
    "sqrt' at 0": ("sqrt(x1)", [0.0, 0.0, 0.0, 0.0], (gradient,), "sqrt(x1)",
                   ZeroDivisionError, "float division by zero"),
    "fractional power of a negative base": ("x1^0.5", [-2.0, 0.0, 0.0, 0.0], (evaluate, gradient), "x1^0.5",
                                            ValueError, "fractional power of a negative base"),
    "0^-1": ("x1^-1", [0.0, 0.0, 0.0, 0.0], (evaluate, gradient), "x1^-1.0",
             ZeroDivisionError, "0.0 cannot be raised to a negative power"),
    "c*x^(c-1) at 0": ("x1^0.5", [0.0, 0.0, 0.0, 0.0], (gradient,), "x1^0.5",
                       ZeroDivisionError, "0.0 cannot be raised to a negative power"),
    "log of a negative base": ("x1^x2", [-1.0, 2.0, 0.0, 0.0], (gradient,), "x1^x2",
                               ValueError, "math domain error"),
    "log of a zero base": ("x1^x2", [0.0, 0.5, 0.0, 0.0], (gradient,), "x1^x2",
                           ValueError, "math domain error"),
    "** overflow": ("x1^4", [1e80, 0.0, 0.0, 0.0], (evaluate, gradient), "x1^4.0",
                    OverflowError, "(34, 'Numerical result out of range')"),
    "exp overflow": ("exp(x1)", [1000.0, 0.0, 0.0, 0.0], (evaluate, gradient), "exp(x1)",
                     OverflowError, "math range error"),
}


@pytest.mark.parametrize("kind", sorted(RAISING_STATEMENTS))
def test_each_raising_statement_is_named_with_its_cause(kind):
    text, point, entry_points, expression, cause_type, cause_text = RAISING_STATEMENTS[kind]
    for entry_point in entry_points:
        field = parse(text, DIM1)  # a fresh field: the first call compiles the kernel
        with pytest.raises(EvaluationError) as info:
            entry_point(field, point)
        assert str(info.value) == f"{cause_text} in subexpression {expression!r}"
        assert info.value.expression == expression
        cause = info.value.__cause__
        assert type(cause) is cause_type and str(cause) == cause_text
        with pytest.raises(EvaluationError) as again:  # the compiled kernel names it the same way
            entry_point(field, point)
        assert str(again.value) == str(info.value)


def test_an_overflowed_literal_is_written_1e999_and_reads_inf():
    field = parse("x1 + 1e400", DIM1)
    text = _KernelSource(field).text
    assert "1e999" in text and "inf" not in text
    assert evaluate(field, [1.0, 0.0, 0.0, 0.0]) == math.inf
    assert gradient(field, [1.0, 0.0, 0.0, 0.0]) == [1.0, 0.0, 0.0, 0.0]


def test_a_square_differentiates_to_two_times_the_base_without_a_pow():
    # b ** 1.0 is b for every double, so 2.0 * b gives the partial's bits
    field = parse("x1^2 + x2^3", DIM1)
    text = _KernelSource(field).text
    assert "** 1.0" not in text
    assert "x2 ** 2.0" in text
    rng = np.random.default_rng(7)
    samples = rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-300.0, 150.0, 2000)
    for value in (-0.0, 0.0, 5e-324, -5e-324, 1e154, -1e154, *samples):
        component = gradient(field, [value, 0.0, 0.0, 0.0])[0]
        assert component.hex() == (2.0 * value).hex()


# --- list points ------------------------------------------------------------

# every operator and function, as in MIXED, over the 2n coordinate pairs
MIXED_PAIRS = ("sin({v})*cos({w})", "-exp({v}/2)/sqrt(1+{w}^2)", "(2+{v}^2)^({w}/3)", "- -{v}^3 + 1.5/(3+{w})")


def _mixed(n: int):
    terms = [MIXED_PAIRS[k % 4].format(v=f"x{2 * k + 1}", w=f"x{2 * k + 2}") for k in range(2 * n)]
    return parse(" + ".join(terms), BlockDim(n))


def _list_cases(n: int):
    rng = np.random.default_rng(70 + n)
    for _ in range(10):
        yield rng.uniform(-2.0, 2.0, 4 * n)
    yield np.array([-0.0 if a % 2 else 0.0 for a in range(4 * n)])


@pytest.mark.parametrize("n", [1, 2, 8])
def test_list_and_array_points_give_the_same_bits(n):
    field = _mixed(n)
    for point in _list_cases(n):
        values = point.tolist()
        from_list = gradient(field, values)
        assert type(from_list) is list and len(from_list) == 4 * n
        assert all(type(v) is float for v in from_list)
        for other in (point, tuple(values)):  # a tuple takes the list's path
            assert np.array(from_list).tobytes() == np.array(gradient(field, other)).tobytes()
            assert evaluate(field, values).hex() == evaluate(field, other).hex()
        assert values == point.tolist()  # the kernel only reads the list


@pytest.mark.parametrize("n", [1, 2, 8])
def test_list_and_array_points_name_the_same_subexpression(n):
    field = _mixed(n)
    point = np.full(4 * n, 0.5)
    point[2] = 2000.0  # exp(x3/2) overflows
    failures = [point]
    if n >= 2:
        point = np.full(4 * n, 0.5)
        point[7] = -3.0  # 1.5/(3+x8) divides by zero
        failures.append(point)
    for point in failures:
        for entry_point in (evaluate, gradient):
            with pytest.raises(EvaluationError) as from_array:
                entry_point(field, point)
            with pytest.raises(EvaluationError) as from_list:
                entry_point(field, point.tolist())
            assert from_list.value.expression == from_array.value.expression
            assert str(from_list.value) == str(from_array.value)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_a_list_of_ints_or_numpy_scalars_is_taken_as_floats(n):
    field = _mixed(n)
    ints = [a % 3 for a in range(4 * n)]
    floats = [float(v) for v in ints]
    for values in (ints, [np.float64(v) for v in floats], [*floats[:-1], ints[-1]], (*floats[:-1], ints[-1])):
        grad = gradient(field, values)
        assert all(type(v) is float for v in grad)
        assert np.array(grad).tobytes() == np.array(gradient(field, floats)).tobytes()
        value = evaluate(field, values)
        assert type(value) is float and value.hex() == evaluate(field, floats).hex()
    # a numpy scalar divides by zero as a float does, instead of returning inf
    quotient = parse("1/x2", DIM1)
    with pytest.raises(EvaluationError):
        evaluate(quotient, [np.float64(1.0), np.float64(0.0), 0.0, 0.0])


@pytest.mark.parametrize("n", [1, 2, 8])
def test_malformed_list_points_raise_value_error(n):
    field = _mixed(n)
    size = 4 * n
    cases = {
        "short": [0.5] * (size - 1),
        "long": [0.5] * (size + 1),
        "short tuple": (0.5,) * (size - 1),
        "long tuple": (0.5,) * (size + 1),
        "nested": [[0.5] * size],
        "2-D array": np.full((2, size), 0.5),
        "column array": np.full((size, 1), 0.5),
    }
    for point in cases.values():
        for entry_point in (evaluate, gradient):
            with pytest.raises(ValueError) as info:
                entry_point(field, point)
            assert type(info.value) is ValueError  # to_floats's own error, not renamed by the kernel
            assert str(info.value) == f"point must have length {size}"
