"""The constructor, equality, hashing and immutability of the value classes.

Structures, expression nodes, forms, systems, trajectories and configs are
small immutable records.  Ten compare and hash by value; the forms, the
structure tensor, the system and the trajectory compare by identity, since
their fields are normalised rows and states that nothing compares whole.
Every record refuses assignment after construction, and its cached
properties are built on first read and kept; a pickle holds the fields
alone, so the caches are built again after it.  The nine records without a
constructor of their own bind arguments as a def would, with a TypeError
for a missing, unknown or repeated one.  A built system holds two fields,
its energy and its label's cotangent tensor.  A tree of records, such as a
parsed energy, compares, hashes, prints and pickles as the recursive
references in oracles do, at any depth the parser accepts.
"""

import copy
import pickle
import time
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings

from quatflow import (
    AffineOneForm,
    BlockDim,
    ConstantTwoForm,
    EuclideanMetric,
    ExpressionSyntaxError,
    HamiltonianSystem,
    ScalarField,
    StructureKind,
    StructureTensor,
    Trajectory,
    build_structure,
    gradient,
    hamiltonian_vector_field,
    integrate,
    liouville_form,
    parse,
    symplectic_form,
)
from quatflow._records import Record
from quatflow.config import REQUIRED_FIELDS, SimulationConfig
from quatflow.expressions import BinaryOp, FunctionCall, Negation, Number, Variable, _Value
from oracles import reference_equal, reference_pickle, reference_repr
from test_expressions import _nodes

DIM = BlockDim(1)
SYSTEM = HamiltonianSystem.build("F", parse("0.5*(x1^2+x2^2)", DIM))
CONFIG_FIELDS = {
    "n": 1, "structure": "F", "hamiltonian": "x1^2", "initial": (1.0, 0.0, 0.0, 0.0), "dt": 0.01,
    "steps": 10, "method": "rk4", "output_prefix": "out/run", "emit_plot": False,
}

# each class with its constructor's keyword arguments, in positional order
VALUE_CASES = {
    "BlockDim": (BlockDim, {"n": 2}),
    "StructureKind": (StructureKind, {"label": "G", "space": "cotangent"}),
    "EuclideanMetric": (EuclideanMetric, {"dim": BlockDim(2)}),
    "Number": (Number, {"value": 1.5}),
    "Variable": (Variable, {"index": 3}),
    "Negation": (Negation, {"operand": Variable(1)}),
    "BinaryOp": (BinaryOp, {"op": "+", "left": Number(1.0), "right": Variable(2)}),
    "FunctionCall": (FunctionCall, {"name": "sin", "argument": Variable(1)}),
    "ScalarField": (ScalarField, {"dim": DIM, "root": BinaryOp("*", Variable(1), Variable(2))}),
    "SimulationConfig": (SimulationConfig, CONFIG_FIELDS),
}
IDENTITY_CASES = {
    "HamiltonianSystem": (
        HamiltonianSystem,
        {"hamiltonian": SYSTEM.hamiltonian, "omega": SYSTEM.omega},
    ),
    "Trajectory": (Trajectory, {"system": SYSTEM, "states": ((1.0, 0.0, 0.0, 0.0),), "step": 0.1}),
    "AffineOneForm": (AffineOneForm, {"dim": DIM, "linear": ({0: 0.5}, {1: 0.5}, {2: 0.5}, {3: 0.5}),
                                      "constant": (0.0, 0.0, 0.0, 0.0)}),
    "ConstantTwoForm": (ConstantTwoForm, {"dim": DIM, "rows": ({1: 1.0}, {0: -1.0}, {3: 1.0}, {2: -1.0})}),
    "StructureTensor": (StructureTensor, {"kind": StructureKind("F", "tangent"), "dim": DIM,
                                          "order": (1, 0, 3, 2), "signs": (-1, 1, -1, 1)}),
}
FROZEN_CASES = {**VALUE_CASES, **IDENTITY_CASES}
# the records whose fields Record.__init__ binds, with no constructor of their own
BOUND_CASES = {
    name: FROZEN_CASES[name]
    for name in ("Number", "Variable", "Negation", "BinaryOp", "FunctionCall", "ScalarField",
                 "EuclideanMetric", "HamiltonianSystem", "SimulationConfig")
}
# the one mutable record: the kernel writer fills in expr and partial after construction
KERNEL_VALUE = (_Value, {"node": Number(1.0), "expr": "1.0", "varying": False, "operands": (), "partial": None})


@pytest.mark.parametrize("name", [*FROZEN_CASES, "_Value"])
def test_positional_and_keyword_construction_agree(name):
    cls, kwargs = KERNEL_VALUE if name == "_Value" else FROZEN_CASES[name]
    for record in (cls(*kwargs.values()), cls(**kwargs)):
        assert type(record) is cls
        for field, value in kwargs.items():
            if name in IDENTITY_CASES and field not in ("dim", "kind", "system", "hamiltonian", "omega"):
                continue  # rows, states and constants are normalised on the way in
            assert getattr(record, field) == value
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)


@pytest.mark.parametrize("name", BOUND_CASES)
def test_a_missing_unknown_or_repeated_argument_raises_type_error(name):
    cls, kwargs = BOUND_CASES[name]
    values = [*kwargs.values()]
    first, last = next(iter(kwargs)), [*kwargs][-1]
    for args, keywords in [
        (values[:-1], {}),  # the last field missing
        ((), {field: value for field, value in kwargs.items() if field != last}),
        ((), {}),
        (values, {"unknown": 1}),
        ((), {**kwargs, "unknown": 1}),
        (values[:1], {first: values[0]}),  # the first field, positionally and by keyword
        (values[:1], kwargs),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **keywords)


def test_keywords_bind_to_their_fields_in_any_order():
    expected = BinaryOp("+", Number(1.0), Variable(2))
    assert BinaryOp(right=Variable(2), op="+", left=Number(1.0)) == expected
    assert BinaryOp("+", right=Variable(2), left=Number(1.0)) == expected


def test_a_bad_argument_is_named_with_the_fields():
    for call, message in [
        (lambda: Number(), "Number(value): missing argument 'value'"),
        (lambda: BinaryOp("+", Number(1.0)), "BinaryOp(op, left, right): missing argument 'right'"),
        (lambda: Variable(index=1, offset=2), "Variable(index): unknown argument 'offset'"),
        (lambda: BinaryOp("+", Number(1.0), op="-"),
         "BinaryOp(op, left, right): repeated argument 'op', missing argument 'right'"),
        (lambda: Negation(Variable(1), Variable(2)), "Negation(operand): extra argument Variable(index=2)"),
    ]:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_records_compare_and_hash_by_their_fields(name):
    cls, kwargs = VALUE_CASES[name]
    first, second = cls(*kwargs.values()), cls(**kwargs)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    field = next(iter(kwargs))
    other = {BlockDim: 3, StructureKind: "H", EuclideanMetric: BlockDim(3), Number: 2.5, Variable: 4,
             Negation: Variable(2), BinaryOp: "-", FunctionCall: "cos", ScalarField: BlockDim(2),
             SimulationConfig: 2}[cls]
    assert first != cls(**{**kwargs, field: other})
    assert first != object() and first != (*kwargs.values(),)


def test_records_of_different_classes_with_equal_fields_differ():
    assert Number(1.0) != Variable(1)
    assert Number(1) != Variable(1)
    assert len({Number(1.0), Variable(1)}) == 2


@pytest.mark.parametrize("name", IDENTITY_CASES)
def test_identity_records_compare_by_identity(name):
    cls, kwargs = IDENTITY_CASES[name]
    first, second = cls(*kwargs.values()), cls(**kwargs)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2


@pytest.mark.parametrize("name", FROZEN_CASES)
def test_assigning_or_deleting_an_attribute_raises(name):
    cls, kwargs = FROZEN_CASES[name]
    record = cls(**kwargs)
    field = next(iter(kwargs))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.unrelated = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_kernel_values_stay_mutable():
    value = _Value(Number(1.0), "", False)
    assert value.operands == () and value.partial is None
    value.expr, value.partial = "t1", "t2"
    assert (value.expr, value.partial) == ("t1", "t2")


def test_cached_properties_are_built_once_and_kept():
    tensor = IDENTITY_CASES["StructureTensor"][0](**IDENTITY_CASES["StructureTensor"][1])
    assert tensor.rows is tensor.rows and tensor.rows == ({1: -1}, {0: 1}, {3: -1}, {2: 1})
    assert tensor.apply is tensor.apply
    assert tensor.apply([1.0, 2.0, 3.0, 4.0]) == [-2.0, 1.0, -4.0, 3.0]
    system = HamiltonianSystem(parse("x1", DIM), tensor)
    assert system._rk4_step is system._rk4_step
    # a constant gradient g sums to 6 g, so the step is x + dt Omega g
    constant = lambda field, point: [1.0, 2.0, 3.0, 4.0]  # noqa: E731
    assert system._rk4_step(constant, None, [1.0, 1.0, 1.0, 1.0], 0.5) == [0.0, 1.5, -1.0, 2.5]
    form = ConstantTwoForm(**IDENTITY_CASES["ConstantTwoForm"][1])
    assert form.matrix is form.matrix and not form.matrix.flags.writeable
    assert np.array_equal(form.matrix, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    field, twin = parse("x1*x2", DIM), parse("x1*x2", DIM)
    assert field.gradient_kernel is field.gradient_kernel
    # a built kernel is not a field: equality and hash read dim and root only
    assert field == twin and hash(field) == hash(twin)


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_records_pickle_to_an_equal_record(name):
    cls, kwargs = VALUE_CASES[name]
    record = cls(**kwargs)
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_pickle_their_fields_and_leave_their_caches_behind():
    field = parse("0.5*(x1^2+x2^2) + sin(x3)*x4", DIM)
    point = [0.1, -0.2, 0.3, 0.4]
    grad = gradient(field, point)  # compiles the field's kernel
    system = HamiltonianSystem.build("G", field)  # reads the tensor's rows
    tensor = system.omega
    apply = tensor.apply
    trajectory = integrate(system, point, 0.01, 3, "rk4")  # compiles the system's step
    two_form, one_form = symplectic_form("H", DIM), liouville_form("F", DIM)
    assert two_form.matrix is not None and "gradient_kernel" in vars(field)

    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and "gradient_kernel" not in vars(copy) and gradient(copy, point) == grad

    copy = pickle.loads(pickle.dumps(tensor))
    assert copy._fields() == tensor._fields() and not vars(copy).keys() & {"rows", "apply"}
    assert copy.rows == tensor.rows and copy.apply(point) == apply(point)

    assert "_rk4_step" in vars(system)
    copy = pickle.loads(pickle.dumps(system))
    assert copy.hamiltonian == field and copy.omega._fields() == tensor._fields()
    assert "_rk4_step" not in vars(copy)
    assert hamiltonian_vector_field(copy, point) == hamiltonian_vector_field(system, point)
    assert integrate(copy, point, 0.01, 3, "rk4").states == trajectory.states

    copy = pickle.loads(pickle.dumps(trajectory))
    assert (copy.states, copy.step) == (trajectory.states, trajectory.step)
    assert copy.system.hamiltonian == field and copy.system.omega._fields() == tensor._fields()

    copy = pickle.loads(pickle.dumps(two_form))
    assert (copy.dim, copy.rows) == (two_form.dim, two_form.rows) and "matrix" not in vars(copy)
    assert all(type(row) is MappingProxyType for row in copy.rows)

    copy = pickle.loads(pickle.dumps(one_form))
    assert (copy.dim, copy.linear, copy.constant) == (one_form.dim, one_form.linear, one_form.constant)
    assert all(type(row) is MappingProxyType for row in copy.linear)


def test_repr_names_the_class_and_its_fields():
    assert repr(BlockDim(2)) == "BlockDim(n=2)"
    assert repr(BinaryOp("+", Number(1.0), Variable(2))) == (
        "BinaryOp(op='+', left=Number(value=1.0), right=Variable(index=2))"
    )


def test_ast_nodes_match_positional_patterns():
    match parse("-sin(x1) + 2", DIM).root:
        case BinaryOp("+", Negation(FunctionCall("sin", Variable(1))), Number(2.0)):
            matched = True
        case _:
            matched = False
    assert matched


@pytest.mark.parametrize("n", (1, 2, 8))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_a_system_is_its_energy_and_the_labels_cotangent_tensor(label, n):
    dim = BlockDim(n)
    field = parse("x1*x2", dim)
    dual = build_structure(StructureKind(label, "cotangent"), dim)
    match HamiltonianSystem.build(label, field):
        case HamiltonianSystem(hamiltonian, StructureTensor(kind, omega_dim, order, signs)):
            assert hamiltonian is field
            assert (kind, omega_dim, order, signs) == (dual.kind, dim, dual.order, dual.signs)
        case _:
            pytest.fail("a system does not match HamiltonianSystem(hamiltonian, omega)")
    assert HamiltonianSystem.__match_args__ == ("hamiltonian", "omega")


def test_required_fields_follow_the_constructor_order():
    assert REQUIRED_FIELDS == tuple(CONFIG_FIELDS)
    assert SimulationConfig(*CONFIG_FIELDS.values()).emit_plot is False


# --- trees -----------------------------------------------------------------

def _subtrees(node):
    # by recursion, apart from the walk under test; drawn trees are shallow
    yield node
    for value in node._fields():
        if isinstance(value, Record):
            yield from _subtrees(value)


@settings(max_examples=100, deadline=None)
@given(first=_nodes(), second=_nodes())
def test_trees_compare_hash_print_and_pickle_as_the_recursive_references(first, second):
    records = [ScalarField(DIM, first), *_subtrees(first), *_subtrees(second)]
    for record in records:
        assert repr(record) == reference_repr(record)
        # a pickle of this version, a deep copy, and a pickle as older versions wrote it
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), pickle.loads(reference_pickle(record))):
            assert twin is not record and type(twin) is type(record)
            assert twin == record and reference_equal(twin, record) and hash(twin) == hash(record)
    for a in records:
        for b in records:
            assert (a == b) is reference_equal(a, b)
            assert a != b or hash(a) == hash(b)


def _deepest_power_tower() -> int:
    """The most links of x1^x1^...^x1 the parser accepts at this stack depth."""
    low, high = 1, 1000  # the parser spends more than one frame a link, so 1000 fail
    while high - low > 1:
        middle = (low + high) // 2
        try:
            parse("^".join(["x1"] * middle), DIM)
            low = middle
        except ExpressionSyntaxError:
            high = middle
    return low


def _chain(op: str):
    return lambda links: op.join(["x1"] * (links + 1))


# each field: its text for a number of links, that number (None: the most the parser
# accepts), its innermost node at a coordinate, and one link around a node
DEEP_FIELDS = {
    "sum_3000": (_chain("+"), 2999, Variable, lambda node: BinaryOp("+", node, Variable(1))),
    "product_3000": (_chain("*"), 2999, Variable, lambda node: BinaryOp("*", node, Variable(1))),
    "negation_300": (lambda links: "-" * links + "x1^2", 300, lambda a: BinaryOp("^", Variable(a), Number(2.0)), Negation),
    "power_tower": (_chain("^"), None, Variable, lambda node: BinaryOp("^", Variable(1), node)),
}


def _within_a_second(operation):
    start = time.perf_counter()
    result = operation()
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("name", DEEP_FIELDS)
def test_deep_fields_compare_hash_print_and_pickle(name):
    write, links, innermost, link = DEEP_FIELDS[name]
    links = links or _deepest_power_tower() - 1
    field, twin = parse(write(links), DIM), parse(write(links), DIM)
    tree, other, expected = innermost(1), innermost(2), reference_repr(innermost(1))
    template = reference_repr(link(Variable(9))).replace("Variable(index=9)", "{}")
    for _ in range(links):
        tree, other, expected = link(tree), link(other), template.format(expected)
    built, other = ScalarField(DIM, tree), ScalarField(DIM, other)  # other differs at its innermost coordinate
    assert _within_a_second(lambda: field == twin) and field == built and built == field
    assert _within_a_second(lambda: field != other) and other != built
    assert _within_a_second(lambda: hash(field)) == hash(twin) == hash(built)
    assert _within_a_second(lambda: repr(field)) == f"ScalarField(dim=BlockDim(n=1), root={expected})"
    assert _within_a_second(lambda: pickle.loads(pickle.dumps(field))) == field
    assert _within_a_second(lambda: copy.deepcopy(field)) == field
