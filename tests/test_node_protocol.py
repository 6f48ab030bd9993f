"""Every expression and plan node speaks one protocol: ``children()`` and
``with_children(children)``.

The rewrites (constant folding, substitution through projections, the
translator's post-aggregation rewrite, the optimizer's passes, the use
rewrite) handle only the node types they change and rebuild every other node
through ``with_children``.  These tests find every node class by
``__subclasses__()``, so a new node type fails here until it implements the
protocol and has a sample below.
"""

import pytest

from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Distinct,
    Join,
    OrderItem,
    PlanNode,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
)

A, B, C = ColumnRef("r.a"), ColumnRef("b"), ColumnRef("c")
SUM_B = FunctionCall("sum", [B])

EXPRESSIONS = [
    A,
    Literal(3),
    BinaryOp("*", A, Literal(2)),
    UnaryMinus(SUM_B),
    Comparison("<", A, SUM_B),
    Between(A, Literal(1), C),
    IsNull(B, negated=True),
    LogicalOp("OR", [Comparison("=", A, B), IsNull(C), Literal(None)]),
    Not(Comparison(">=", Literal(5), C)),
    FunctionCall("coalesce", [A, Literal(0)]),
    SUM_B,
]

SCAN = TableScan("R", "r")
PLANS = [
    SCAN,
    Selection(SCAN, Comparison(">", A, Literal(1))),
    Projection(SCAN, [ProjectionItem(BinaryOp("+", A, Literal(1)), "x")]),
    Join(SCAN, TableScan("s"), Comparison("=", A, ColumnRef("s.b"))),
    Join(SCAN, TableScan("s")),
    Aggregation(SCAN, [A], [Aggregate(AggregateFunction.SUM, B, "total")]),
    Distinct(SCAN),
    TopK(SCAN, 2, [OrderItem(A, ascending=False)]),
]

SWAPPED_EXPRESSION = ColumnRef("swapped")
SWAPPED_PLAN = TableScan("swapped")


def node_classes(base: type) -> set[type]:
    """Every subclass of ``base`` defined in the package (tests may define
    throwaway subclasses of their own)."""
    found: set[type] = set()
    stack = [base]
    while stack:
        for subclass in stack.pop().__subclasses__():
            stack.append(subclass)
            if subclass.__module__.startswith("repro."):
                found.add(subclass)
    return found


def render(node) -> str:
    return node.canonical() if isinstance(node, Expression) else node.describe()


def tree(node) -> str:
    """The whole subtree as text (a plan node's ``describe()`` omits its children)."""
    return node.canonical() if isinstance(node, Expression) else node.explain()


def facts(node) -> tuple:
    """What a faithful rebuild must keep."""
    if isinstance(node, Expression):
        return node.canonical(), node.columns(), node.contains_aggregate()
    return node.describe(), node.explain(), node.referenced_tables()


def test_every_node_class_has_a_sample():
    assert node_classes(Expression) == {type(node) for node in EXPRESSIONS}
    assert node_classes(PlanNode) == {type(node) for node in PLANS}


@pytest.mark.parametrize("node", EXPRESSIONS + PLANS, ids=render)
def test_with_children_of_children_reproduces_the_node(node):
    rebuilt = node.with_children(node.children())
    assert type(rebuilt) is type(node)
    assert facts(rebuilt) == facts(node)
    assert all(a is b for a, b in zip(rebuilt.children(), node.children(), strict=True))


@pytest.mark.parametrize("node", EXPRESSIONS + PLANS, ids=render)
def test_swapping_one_child_changes_only_that_child(node):
    marker = SWAPPED_EXPRESSION if isinstance(node, Expression) else SWAPPED_PLAN
    children = node.children()
    for index in range(len(children)):
        replaced = list(children)
        replaced[index] = marker
        rebuilt = node.with_children(replaced)
        assert type(rebuilt) is type(node)
        for position, (got, original) in enumerate(zip(rebuilt.children(), children)):
            assert got is (marker if position == index else original)
        assert tree(rebuilt) != tree(node)
        # Swapping back restores every field that is not a child.
        assert facts(rebuilt.with_children(children)) == facts(node)


@pytest.mark.parametrize(
    "node", [n for n in EXPRESSIONS + PLANS if not n.children()], ids=render
)
def test_a_leaf_returns_itself(node):
    assert node.with_children(()) is node
