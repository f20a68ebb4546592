import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatflow import (
    BlockDim,
    EvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    VariableRangeError,
    evaluate,
    format_expression,
    gradient,
    parse,
)
from quatflow.expressions import (
    DEMO_HAMILTONIANS,
    BinaryOp,
    FunctionCall,
    Negation,
    Number,
    ScalarField,
    Variable,
)
from oracles import DualScalar, fd_gradient, quadratic_energy_text

DIM1 = BlockDim(1)


# --- parsing ---------------------------------------------------------------

def test_parse_quadratic_energy():
    field = parse("0.5*(x1^2 + x2^2 + x3^2 + x4^2)", DIM1)
    assert evaluate(field, np.ones(4)) == 2.0


def test_parse_single_variable():
    assert evaluate(parse("x1", DIM1), np.array([7.0, 0, 0, 0])) == 7.0


def test_variable_index_out_of_range():
    with pytest.raises(VariableRangeError) as excinfo:
        parse("x5", DIM1)
    assert "out of range" in str(excinfo.value)
    assert excinfo.value.index == 5


def test_variable_index_zero_is_out_of_range():
    with pytest.raises(VariableRangeError):
        parse("x0", DIM1)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("energy", DIM1)


def test_syntax_error_carries_offset_and_expectations():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse("x1 + ", DIM1)
    assert excinfo.value.offset == 5
    assert "number" in excinfo.value.expected


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse("(x1 + x2", DIM1)
    assert "')'" in excinfo.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("x1 x2", DIM1)


def test_unexpected_character():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse("x1 + $", DIM1)
    assert excinfo.value.offset == 5


def test_empty_text_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("   ", DIM1)


@pytest.mark.parametrize(
    "text, error, message, offset, expected",
    [
        ("", ExpressionSyntaxError, "empty expression at offset 0", 0, ()),
        ("  ", ExpressionSyntaxError, "empty expression at offset 0", 0, ()),
        ("x1 + $", ExpressionSyntaxError, "unexpected character '$' at offset 5", 5, ()),
        (
            "x1 +",
            ExpressionSyntaxError,
            "unexpected token '<end>' at offset 4 (expected number, identifier, '(', '-')",
            4,
            ("number", "identifier", "'('", "'-'"),
        ),
        ("sin(x1", ExpressionSyntaxError, "unexpected token '<end>' at offset 6 (expected ')')", 6, ("')'",)),
        ("sin x1", ExpressionSyntaxError, "unexpected token 'x1' at offset 4 (expected '(')", 4, ("'('",)),
        (
            "x1 x2",
            ExpressionSyntaxError,
            "trailing input 'x2' at offset 3 (expected operator, end of input)",
            3,
            ("operator", "end of input"),
        ),
        ("x1 + y", UnknownIdentifierError, "unknown identifier 'y' at offset 5", 5, ()),
        ("x0", VariableRangeError, "variable index out of range at offset 0: x0 not in x1..x4", 0, ()),
        ("x5", VariableRangeError, "variable index out of range at offset 0: x5 not in x1..x4", 0, ()),
    ],
    ids=["empty", "blank", "bad_character", "missing_operand", "unclosed_call", "call_without_parenthesis",
         "trailing_input", "unknown_identifier", "x0", "x5"],
)
def test_front_end_messages_are_pinned(text, error, message, offset, expected):
    with pytest.raises(error) as excinfo:
        parse(text, DIM1)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert excinfo.value.offset == offset
    assert getattr(excinfo.value, "expected", ()) == expected


# 3000 levels overflow the default recursion limit of 1000 at any stack depth
@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "x1" + ")" * 3000, "sin(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"],
    ids=["parentheses", "sin", "unary_minus"],
)
def test_nesting_too_deep_to_parse_is_a_syntax_error(text):
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse(text, DIM1)
    assert str(excinfo.value) == "expression nested too deeply at offset 0"


# the parser loops over a chain, and so do the code generator and the formatter;
# 3000 links outnumber the default recursion limit of 1000.  The oracles recurse,
# so the checks here are a left-to-right loop and closed forms.
@pytest.mark.parametrize("op", ["+", "*"])
def test_a_3000_term_chain_compiles_evaluates_differentiates_and_formats(op, kernel_sources):
    text = op.join(["x1"] * 3000)
    field = parse(text, DIM1)
    point = [1.0001, 0.0, 0.0, 0.0]
    expected = point[0]
    for _ in range(2999):
        expected = expected + point[0] if op == "+" else expected * point[0]
    slope = 3000.0 if op == "+" else 3000 * point[0] ** 2999
    for _ in range(2):
        assert evaluate(field, point).hex() == expected.hex()
        grad = gradient(field, point)
        assert grad[0] == pytest.approx(slope, rel=1e-12) and grad[1:] == [0.0, 0.0, 0.0]
    assert len(kernel_sources) == 1
    assert format_expression(field) == text


def test_the_natural_quartic_at_n_256_compiles_evaluates_differentiates_and_formats(kernel_sources):
    n = 256
    dim = BlockDim(n)
    field = parse("0.25*(1+(" + "+".join(f"x{a}^2" for a in range(1, 4 * n + 1)) + "))^2", dim)
    point = [((37 * a) % 101 - 50) / 100 for a in range(4 * n)]
    squares = point[0] ** 2.0
    for v in point[1:]:
        squares = squares + v ** 2.0
    assert evaluate(field, point).hex() == (0.25 * (1.0 + squares) ** 2.0).hex()
    # dH/dx_a = (1 + S) x_a
    assert gradient(field, point) == pytest.approx([(1.0 + squares) * v for v in point], rel=1e-14, abs=0.0)
    assert len(kernel_sources) == 1
    text = format_expression(field)
    assert format_expression(parse(text, dim)) == text


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2", DIM1), np.zeros(4)) == 512.0


def test_unary_minus_binds_looser_than_power():
    field = parse("-x1^2", DIM1)
    assert evaluate(field, np.array([3.0, 0, 0, 0])) == -9.0


def test_negative_exponent_parses():
    assert evaluate(parse("2^-2", DIM1), np.zeros(4)) == 0.25


def test_function_requires_parenthesis():
    with pytest.raises(ExpressionSyntaxError):
        parse("sin x1", DIM1)


def test_whitespace_is_insignificant():
    a = parse("x1+x2*x3", DIM1)
    b = parse("  x1 +\tx2 * x3 ", DIM1)
    assert a == b


# --- evaluation ------------------------------------------------------------

def test_evaluate_product():
    assert evaluate(parse("x1*x2", DIM1), np.array([3.0, 4.0, 0, 0])) == 12.0


def test_evaluate_sin_at_zero():
    assert evaluate(parse("sin(x1)", DIM1), np.zeros(4)) == 0.0


def test_evaluate_mixed_example():
    assert evaluate(parse("x1^3 - 2/x2", DIM1), np.array([2.0, 4.0, 0, 0])) == 7.5


def test_division_by_zero_names_subexpression():
    with pytest.raises(EvaluationError) as excinfo:
        evaluate(parse("1/x2", DIM1), np.zeros(4))
    assert excinfo.value.expression == "1.0/x2"


def test_sqrt_of_negative_raises():
    with pytest.raises(EvaluationError):
        evaluate(parse("sqrt(x1)", DIM1), np.array([-1.0, 0, 0, 0]))


def test_fractional_power_of_negative_base_raises():
    with pytest.raises(EvaluationError):
        evaluate(parse("x1^0.5", DIM1), np.array([-2.0, 0, 0, 0]))


def test_evaluate_rejects_wrong_point_length():
    with pytest.raises(ValueError):
        evaluate(parse("x1", DIM1), np.zeros(5))


def test_evaluation_is_deterministic():
    field = parse("sin(x1) + exp(x2)/4 - x3^3", DIM1)
    point = np.array([0.3, -1.7, 2.9, 0.4])
    assert evaluate(field, point) == evaluate(field, point)
    g1 = gradient(field, point)
    g2 = gradient(field, point)
    assert np.array_equal(g1, g2)


# --- gradients -------------------------------------------------------------

def test_gradient_of_quadratic_is_the_point():
    field = parse(quadratic_energy_text(DIM1), DIM1)
    point = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(gradient(field, point), point)


def test_gradient_product_rule():
    field = parse("x1*x2", DIM1)
    point = np.array([3.0, 4.0, 0.0, 0.0])
    grad = gradient(field, point)
    assert np.array_equal(grad, np.array([4.0, 3.0, 0.0, 0.0]))
    fd = fd_gradient(field, point, 1e-6)
    assert np.abs(grad - fd).max() < 1e-6
    # a function of a constant is a constant factor
    assert np.array_equal(gradient(parse("sin(2)*x1", DIM1), point), np.array([math.sin(2.0), 0.0, 0.0, 0.0]))


def test_gradient_of_constant_is_zero():
    assert gradient(parse("5", DIM1), np.array([9.0, -2.0, 0.5, 3.0])) == [0.0] * 4


def test_fd_gradient_examples():
    quad = parse(quadratic_energy_text(DIM1), DIM1)
    fd = fd_gradient(quad, np.array([1.0, 0, 0, 0]), 1e-5)
    assert np.abs(fd - np.array([1.0, 0, 0, 0])).max() < 1e-9

    expf = parse("exp(x1)", DIM1)
    fd = fd_gradient(expf, np.zeros(4), 1e-5)
    assert abs(fd[0] - 1.0) < 1e-9

    cubic = parse("x2^3", DIM1)
    fd = fd_gradient(cubic, np.array([0.0, 1.0, 0, 0]), 1e-4)
    assert abs(fd[1] - 3.0) < 1e-6


def test_fd_gradient_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        fd_gradient(parse("x1", DIM1), np.zeros(4), 0.0)


@pytest.mark.parametrize("name", sorted(DEMO_HAMILTONIANS))
def test_dual_gradient_matches_finite_differences(name):
    field = parse(DEMO_HAMILTONIANS[name], DIM1)
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        point = rng.uniform(-2.0, 2.0, 4)
        dual = gradient(field, point)
        fd = fd_gradient(field, point, 1e-6)
        assert np.abs(dual - fd).max() <= 1e-5


def test_gradient_is_linear_for_polynomials():
    left = "x1^2*x2 + x3"
    right = "x2*x4 - x3^3"
    a, b = 1.5, -2.25
    combined = parse(f"{a}*({left}) + ({b})*({right})", DIM1)
    f = parse(left, DIM1)
    g = parse(right, DIM1)
    rng = np.random.default_rng(7)
    for _ in range(10):
        point = rng.uniform(-2.0, 2.0, 4)
        expected = a * np.array(gradient(f, point)) + b * np.array(gradient(g, point))
        assert np.abs(gradient(combined, point) - expected).max() <= 1e-12


def test_dual_scalar_product_rule():
    a = DualScalar(3.0, 1.0)
    b = DualScalar(4.0, 2.0)
    product = a * b
    assert product.value == 12.0
    assert product.derivative == 3.0 * 2.0 + 1.0 * 4.0


def test_dual_scalar_quotient_rule():
    a = DualScalar(1.0, 2.0)
    b = DualScalar(4.0, 3.0)
    quotient = a / b
    assert quotient.value == 0.25
    assert abs(quotient.derivative - (2.0 * 4.0 - 1.0 * 3.0) / 16.0) < 1e-15


# --- round trip ------------------------------------------------------------

def _nodes():
    leaves = st.one_of(
        st.builds(Number, st.floats(min_value=0.0, allow_nan=False)),  # every non-negative double and inf
        st.builds(Variable, st.integers(1, 4)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Negation, children),
            st.builds(
                BinaryOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
            ),
            st.builds(FunctionCall, st.sampled_from(["sin", "cos", "exp", "sqrt"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200)
@given(node=_nodes())
def test_format_then_parse_round_trips(node):
    field = ScalarField(DIM1, node)
    text = format_expression(field)
    assert parse(text, DIM1) == field
