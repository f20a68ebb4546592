"""Hamiltonian expression language: parsing, evaluation, differentiation.

Grammar (whitespace insignificant, '^' right-associative, unary minus
binding looser than '^' so that -x1^2 means -(x1^2)):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | '(' expr ')' | FUNC '(' expr ')'

Tokenizing is one regex pass whose catch-all group marks the first
character no token starts with.  `format_expression` round-trips every
literal: one that overflows (1e400) reads inf and is written 1e999, which
parses back to inf.

Identifiers are the coordinates x1 .. x{4n}; the function set is sin, cos,
exp, sqrt; numeric literals are IEEE doubles.  Each field compiles, on the
first `evaluate` or `gradient` call, into a kernel of two plain functions
over floats: a straight-line forward sweep that computes H, and the
same sweep followed by one reverse (adjoint) sweep, so the whole gradient
costs a small multiple of one evaluation whatever the dimension (the
cheap-gradient principle; Griewank & Walther, Evaluating Derivatives, 2nd
ed., 2008).  Both read a point by structures._read_point: a list or tuple
of 4n Python floats as it is, and any other point (an array, or a list
holding ints or numpy scalars) through structures.to_floats, which checks
its length, so every form of a point gives the same bits; this module never
imports numpy.  `gradient` returns the kernel's list of 4n floats.
`evaluate` runs only the statements H needs, so it returns a value
wherever H is defined, even where its derivative is not.  A domain error
raises EvaluationError naming the offending subexpression, and nesting too
deep for the recursive parser an ExpressionSyntaxError, never a
RecursionError.  The code generator and `format_expression` walk the tree
with explicit stacks, so every field that parses compiles and formats.
The tests keep two independent oracles: an AST interpreter with central
differences, and the seeded dual-number passes the kernel replaced.
"""

from __future__ import annotations

import math
import re
from functools import cached_property

from ._records import Value
from .structures import BlockDim, _generate, _read_point, to_floats

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ExpressionError(ValueError):
    """Base class for everything the expression language can complain about."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class VariableRangeError(ExpressionError):
    def __init__(self, index: int, total: int, offset: int):
        super().__init__(
            f"variable index out of range at offset {offset}: x{index} not in x1..x{total}"
        )
        self.index = index
        self.total = total
        self.offset = offset


class EvaluationError(ExpressionError):
    """Domain error during evaluation; carries the offending subexpression."""

    def __init__(self, message: str, expression: str):
        super().__init__(f"{message} in subexpression {expression!r}")
        self.expression = expression


# --- AST -------------------------------------------------------------------

class Number(Value):
    __match_args__ = ("value",)


class Variable(Value):
    __match_args__ = ("index",)  # index is 1-based


class Negation(Value):
    __match_args__ = ("operand",)


class BinaryOp(Value):
    __match_args__ = ("op", "left", "right")  # op is one of + - * / ^


class FunctionCall(Value):
    __match_args__ = ("name", "argument")


Node = Number | Variable | Negation | BinaryOp | FunctionCall


class ScalarField(Value):
    """A parsed Hamiltonian H: R^{4n} -> R."""

    __match_args__ = ("dim", "root")

    @cached_property
    def gradient_kernel(self) -> tuple:
        """The compiled functions (value, gradient) of a point, built on first use."""
        source = _KernelSource(self)
        return _generate(source.text, {**_NAMESPACE, "owners": source.owners}, "value", "gradient")


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)
_VARIABLE_RE = re.compile(r"^x(\d+)$")


class _Token(Value):
    __match_args__ = ("kind", "text", "offset")  # kind: number | ident | op | end


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {match.group()!r}", match.start())
        tokens.append(_Token(match.lastgroup, match.group(), match.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dim: BlockDim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def accept(self, ops: str) -> str | None:
        """Consume the next token and return its text if it is an operator in ops."""
        token = self.tokens[self.pos]
        if token.kind == "op" and token.text in ops:
            self.pos += 1
            return token.text
        return None

    def expect_op(self, text: str) -> None:
        if self.accept(text) is None:
            token = self.tokens[self.pos]
            raise ExpressionSyntaxError(
                f"unexpected token {token.text or '<end>'!r}", token.offset, expected=(f"'{text}'",)
            )

    def parse(self) -> Node:
        node = self.expression()
        token = self.tokens[self.pos]
        if token.kind != "end":
            raise ExpressionSyntaxError(
                f"trailing input {token.text!r}", token.offset, expected=("operator", "end of input")
            )
        return node

    def expression(self) -> Node:
        node = self.term()
        while op := self.accept("+-"):
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while op := self.accept("*/"):
            node = BinaryOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.accept("-"):
            return Negation(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.accept("^"):
            return BinaryOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        if self.accept("("):
            node = self.expression()
            self.expect_op(")")
            return node
        token = self.tokens[self.pos]
        if token.kind == "number":
            self.pos += 1
            return Number(float(token.text))
        if token.kind == "ident":
            self.pos += 1
            variable = _VARIABLE_RE.match(token.text)
            if variable:
                index = int(variable.group(1))
                if not 1 <= index <= self.dim.total:
                    raise VariableRangeError(index, self.dim.total, token.offset)
                return Variable(index)
            if token.text in FUNCTIONS:
                self.expect_op("(")
                argument = self.expression()
                self.expect_op(")")
                return FunctionCall(token.text, argument)
            raise UnknownIdentifierError(token.text, token.offset)
        raise ExpressionSyntaxError(
            f"unexpected token {token.text or '<end>'!r}",
            token.offset,
            expected=("number", "identifier", "'('", "'-'"),
        )


def parse(text: str, dim: BlockDim) -> ScalarField:
    """Parse an expression into a scalar field over R^{4n}."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    try:
        return ScalarField(dim, _Parser(_tokenize(text), dim).parse())
    except RecursionError:  # the parser recurses once per nesting level
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None


# --- formatting ------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def format_expression(field_or_node: ScalarField | Node) -> str:
    """Render an AST back to parseable source text."""
    node = field_or_node.root if isinstance(field_or_node, ScalarField) else field_or_node
    # one stack of text and (node, minimum precedence) entries, popped left to right
    text, stack = [], [(node, 0)]
    while stack:
        entry = stack.pop()
        if entry.__class__ is str:
            text.append(entry)
            continue
        node, minimum = entry
        if isinstance(node, Number):
            # repr names an overflowed literal inf, which is no literal; 1e999 parses back to it
            parts, own = [repr(node.value).replace("inf", "1e999")], 9
        elif isinstance(node, Variable):
            parts, own = [f"x{node.index}"], 9
        elif isinstance(node, FunctionCall):
            parts, own = [f"{node.name}(", (node.argument, 0), ")"], 9
        elif isinstance(node, Negation):
            parts, own = ["-", (node.operand, 3)], 3
        else:
            own = _PRECEDENCE[node.op]
            if node.op == "^":
                # base must be an atom, exponent may be a unary chain
                parts = [(node.left, 5), "^", (node.right, 3)]
            else:
                parts = [(node.left, own), node.op, (node.right, own + 1)]
        if own < minimum:
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(text)


# --- evaluation ------------------------------------------------------------

def evaluate(field: ScalarField, point) -> float:
    """H at a point, from the value statements of the field's compiled kernel."""
    return field.gradient_kernel[0](point)


def gradient(field: ScalarField, point) -> list[float]:
    """The gradient dH at a point, the kernel's list of 4n floats."""
    return field.gradient_kernel[1](point)


# --- compiled kernel -------------------------------------------------------

_NAMESPACE = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "log": math.log,
    "to_floats": to_floats, "EvaluationError": EvaluationError, "format_expression": format_expression,
}


class _Value:
    """One AST node as the forward sweep left it."""

    __slots__ = ("node", "expr", "varying", "operands", "partial")

    def __init__(self, node: Node, expr: str, varying: bool, operands: tuple = (), partial: object = None) -> None:
        self.node = node
        self.expr = expr  # Python expression holding the node's value
        self.varying = varying  # depends on some coordinate
        self.operands = operands
        self.partial = partial  # local partial derivative(s) the reverse sweep uses


def _literal(value: float) -> str:
    # literals parse >= 0 and c - 1.0 of one is never -inf or NaN, so only inf needs a spelling
    text = repr(value).replace("inf", "1e999")
    return text if math.copysign(1.0, value) > 0.0 else f"({text})"


def _simple(expr: str) -> bool:
    # names and literals carry no blank; every emitted product or quotient does
    return " " not in expr


def _times(adjoint: str | None, factor: str) -> str:
    return factor if adjoint is None else f"{adjoint} * {factor}"


def _operands(node: Node) -> tuple[Node, ...]:
    if isinstance(node, BinaryOp):
        return node.left, node.right
    if isinstance(node, Negation):
        return (node.operand,)
    if isinstance(node, FunctionCall):
        return (node.argument,)
    return ()


class _KernelSource:
    """Straight-line Python source of one field's two kernel functions.

    The forward sweep assigns one temporary per operator node, evaluating
    operands left to right before their operator.  Right after each value
    it forms the local partial derivatives that the reverse sweep needs,
    which is where the domain errors that only a derivative meets surface:
    sqrt' at 0, c*x^(c-1) at x = 0 for c < 1, and log(x) for a base x <= 0
    under an exponent that depends on a coordinate.  The reverse sweep then
    carries adjoints from the root down to the coordinates with products,
    quotients by checked nonzero values and sums only, so it cannot raise.

    The text defines value(x), the forward statements without those
    partials, returning H, and gradient(x), the whole forward sweep and the
    reverse sweep, returning grad H as a list.  Each reads x into x1 ..
    x{4n} by structures._read_point, as the RK4 step reads its point, and
    then runs its statements inside one try.  owners maps the line number of
    each forward statement in the text to the node it belongs to; the
    handler looks up the line that raised and raises EvaluationError naming
    that node's subexpression, so the bookkeeping costs nothing until
    something fails.  An overflowed literal is written 1e999.
    """

    def __init__(self, field: ScalarField):
        self.forward: list[tuple[str, Node, bool]] = []  # (statement, owner, gradient only)
        self.reverse: list[str] = []
        self.assigned: set[int] = set()
        root = self._emit(field.root)
        if root.varying:
            self._back(root)
        size = field.dim.total
        components = ", ".join(f"g{a}" if a in self.assigned else "0.0" for a in range(1, size + 1))
        lines: list[str] = []
        self.owners: dict[int, Node] = {}
        header = [f"    {line}" for line in _read_point([f"x{a}" for a in range(1, size + 1)])]
        for name, gradient, result in (("value", False, root.expr), ("gradient", True, f"[{components}]")):
            lines += [f"def {name}(x):", *header, "    try:"]
            for statement, owner, partial in self.forward:
                if gradient or not partial:
                    lines.append(f"        {statement}")
                    self.owners[len(lines)] = owner
            if gradient:
                lines += [f"        {line}" for line in self.reverse]
            lines += [
                f"        return {result}",
                "    except (ZeroDivisionError, ValueError, OverflowError) as exc:",
                "        owner = owners.get(exc.__traceback__.tb_lineno)",  # the traceback starts in this frame
                "        if owner is None: raise",
                "        raise EvaluationError(str(exc), format_expression(owner)) from exc",
            ]
        self.text = "\n".join(lines) + "\n"

    def _line(self, node: Node, expr: str, partial: bool = False) -> str:
        name = f"t{len(self.forward)}"
        self.forward.append((f"{name} = {expr}", node, partial))
        return name

    def _check(self, node: Node, condition: str, error: str, partial: bool = False) -> None:
        self.forward.append((f"if {condition}: raise {error}", node, partial))

    def _emit(self, root: Node) -> _Value:
        """Emit the forward sweep of root's tree, each node's operands left to right before it."""
        nodes, stack = [], [root]
        while stack:  # each node, then its right operand's subtree, then its left's: the emitting order reversed
            node = stack.pop()
            nodes.append(node)
            stack += _operands(node)
        values: list[_Value] = []  # the values of the finished subtrees; each node pops its operands'
        for node in reversed(nodes):
            values.append(self._node(node, values))
        return values[0]

    def _node(self, node: Node, values: list[_Value]) -> _Value:
        """Emit one node's statements, popping its operands' values off values."""
        if isinstance(node, Number):
            return _Value(node, _literal(node.value), False)
        if isinstance(node, Variable):
            return _Value(node, f"x{node.index}", True)
        if isinstance(node, Negation):
            operand = values.pop()
            return _Value(node, self._line(node, f"-{operand.expr}"), operand.varying, (operand,))
        if isinstance(node, FunctionCall):
            return self._emit_function(node, values.pop())
        right, left = values.pop(), values.pop()
        value = _Value(node, "", left.varying or right.varying, (left, right))
        if node.op != "^":
            value.expr = self._line(node, f"{left.expr} {node.op} {right.expr}")
            return value
        b, c = left.expr, right.expr
        power = value.expr = self._line(node, f"{b} ** {c}")
        if not (isinstance(node.right, Number) and node.right.value.is_integer()):
            self._check(node, f"{power}.__class__ is complex", "ValueError('fractional power of a negative base')")
        base_partial = exponent_partial = None
        if right.varying:  # log raises for a base <= 0
            exponent_partial = self._line(node, f"{power} * log({b})", partial=True)
        if left.varying:
            if not isinstance(node.right, Number):
                base_partial = self._line(node, f"{c} * {b} ** ({c} - 1.0) if {c} != 0.0 else 0.0", partial=True)
            elif node.right.value != 0.0:
                # b ** 1.0 is b for every double, so c * b is the same partial without a pow
                reduced = node.right.value - 1.0
                factor = b if reduced == 1.0 else f"{b} ** {_literal(reduced)}"
                base_partial = self._line(node, f"{c} * {factor}", partial=True)
        value.partial = (base_partial, exponent_partial)
        return value

    def _emit_function(self, node: FunctionCall, operand: _Value) -> _Value:
        value = _Value(node, "", operand.varying, (operand,))
        value.expr = self._line(node, f"{node.name}({operand.expr})")
        if not operand.varying:
            return value
        if node.name == "sin":
            value.partial = self._line(node, f"cos({operand.expr})", partial=True)
        elif node.name == "cos":
            value.partial = self._line(node, f"sin({operand.expr})", partial=True)  # sign applied in _back
        elif node.name == "exp":
            value.partial = value.expr
        else:
            value.partial = self._line(node, f"2.0 * {value.expr}", partial=True)
            self._check(node, f"{value.partial} == 0.0", "ZeroDivisionError('float division by zero')", partial=True)
        return value

    def _back(self, root: _Value) -> None:
        """Emit the reverse sweep, each node before its operands and the left operand's subtree first.

        A stack entry (value, adjoint, negated) stands for a node whose adjoint is -+adjoint (None: 1).
        """
        stack: list[tuple[_Value, str | None, bool]] = [(root, None, False)]
        while stack:
            value, adjoint, negated = stack.pop()
            node = value.node
            if isinstance(node, Variable):
                term = adjoint or "1.0"
                if node.index in self.assigned:
                    self.reverse.append(f"g{node.index} {'-=' if negated else '+='} {term}")
                else:
                    self.assigned.add(node.index)
                    self.reverse.append(f"g{node.index} = {'-' if negated else ''}{term}")
                continue
            if isinstance(node, Negation):
                stack.append((value.operands[0], adjoint, not negated))
                continue
            if adjoint is not None and not _simple(adjoint):
                name = f"a{len(self.reverse)}"
                self.reverse.append(f"{name} = {adjoint}")
                adjoint = name
            if isinstance(node, FunctionCall):
                (operand,) = value.operands
                if node.name == "sqrt":
                    stack.append((operand, f"{adjoint or '1.0'} / {value.partial}", negated))
                else:
                    stack.append((operand, _times(adjoint, value.partial), negated != (node.name == "cos")))
                continue
            left, right = value.operands  # the right operand is stacked first, so the left's subtree comes first
            if node.op in "+-":
                if right.varying:
                    stack.append((right, adjoint, negated != (node.op == "-")))
                if left.varying:
                    stack.append((left, adjoint, negated))
            elif node.op == "*":
                if right.varying:
                    stack.append((right, _times(adjoint, left.expr), negated))
                if left.varying:
                    stack.append((left, _times(adjoint, right.expr), negated))
            elif node.op == "/":
                if right.varying:
                    stack.append((right, f"{_times(adjoint, value.expr)} / {right.expr}", not negated))
                if left.varying:
                    stack.append((left, f"{adjoint or '1.0'} / {right.expr}", negated))
            else:
                base_partial, exponent_partial = value.partial
                if exponent_partial is not None:
                    stack.append((right, _times(adjoint, exponent_partial), negated))
                if base_partial is not None:
                    stack.append((left, _times(adjoint, base_partial), negated))


# --- demo Hamiltonians -----------------------------------------------------

# the three stock Hamiltonians used throughout tests and docs, n = 1
DEMO_HAMILTONIANS = {
    "quadratic": "0.5*(x1^2 + x2^2 + x3^2 + x4^2)",
    "quartic": "x1*x2 + x3^4",
    "oscillatory": "sin(x1) + exp(x2)/4",
}

