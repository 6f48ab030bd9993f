"""Safety analysis for sketch attributes.

A sketch attribute ``a`` of table ``R`` is *safe* for query ``Q`` when every
sketch built on any range partition of ``a`` is safe, i.e. evaluating ``Q``
over the data covered by the sketch returns the same result as evaluating it
over the full database (paper Sec. 4.4, using the test from [37]).

This module approximates that test with one rule.  Dropping tuples outside
the provenance cannot change a selection, projection, join or duplicate
elimination over the tuples that remain, nor an aggregation whose output
nothing filters or ranks: its groups are recomputed from the same provenance.
It can change a group that some operator above filters or ranks, because a
group that loses part of its tuples can pass a HAVING, a WHERE over a
subquery's aggregate, a join or a top-k that it failed on the full data.  So
the plan walk creates a *gate* at

* every ``Aggregation`` with an operator other than a projection above it,
  keyed by its GROUP BY columns, and
* every ``TopK`` with no aggregation below it, keyed by its ORDER BY columns,

and an attribute of ``R`` is safe when it equals, directly or through the
equi-join / WHERE equalities, a key of every gate over ``R``.  Partitioning on
such an attribute keeps every gated group (or tie of the ranking) whole in
the fragments of the sketch.  A table under no gate may use any attribute.

There is no exception for "monotone" HAVING conditions such as
``sum(b) > 0``: fewer tuples can raise a sum over signed values, lower a
``max`` over a column that holds NaN, and a HAVING nested in a subquery or
read through a join sits outside a one-level check.  ROADMAP item 27 route 2
(safety under a data guard) is the way to bring such skipping back.

A table with no safe numeric attribute is left unpartitioned; IMP either
partitions another table of the query or does not use a sketch for it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.relational.algebra import (
    Aggregation,
    Join,
    PlanNode,
    Projection,
    SchemaProvider,
    Selection,
    TopK,
    walk_plan,
)
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    column_equality,
    conjuncts,
)
from repro.relational.schema import Schema


class _EquivalenceClasses:
    """Union-find over column names induced by equi-join / WHERE equalities."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def _find(self, name: str) -> str:
        self._parent.setdefault(name, name)
        root = name
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[name] != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        self._parent[self._find(a)] = self._find(b)

    def equivalent(self, a: str, b: str) -> bool:
        return self._find(a) == self._find(b)


class SafetyAnalyzer:
    """Decides which attributes of which tables are safe for a query."""

    def __init__(self, plan: PlanNode, catalog: SchemaProvider) -> None:
        self._plan = plan
        self._catalog = catalog
        self._equivalences = _EquivalenceClasses()
        # (tables below the gate, bare names of its column keys)
        self._gates: list[tuple[frozenset[str], set[str]]] = []
        self._analyse()

    # -- public API ------------------------------------------------------------------

    def safe_attributes(self, table: str) -> set[str]:
        """Bare names of the attributes of ``table`` that are safe for the query."""
        table = table.lower()
        if table not in self._plan.referenced_tables():
            return set()
        schema = self._catalog.schema_of(table)
        return {
            attribute
            for attribute in map(Schema.bare_name, schema)
            if all(
                any(self._equivalences.equivalent(attribute, key) for key in keys)
                for tables, keys in self._gates
                if table in tables
            )
        }

    # -- analysis --------------------------------------------------------------------

    def _analyse(self) -> None:
        # Each entry carries whether an operator other than a projection lies
        # above the node.
        stack: list[tuple[PlanNode, bool]] = [(self._plan, False)]
        while stack:
            node, filtered = stack.pop()
            if isinstance(node, Join) and node.condition is not None:
                self._record_equalities(conjuncts(node.condition))
            if isinstance(node, Selection):
                self._record_equalities(conjuncts(node.predicate))
            if isinstance(node, Aggregation) and filtered:
                self._add_gate(node, node.group_by)
            if isinstance(node, TopK) and not any(
                isinstance(below, Aggregation) for below in walk_plan(node.child)
            ):
                self._add_gate(node, [item.expression for item in node.order_by])
            filtered = filtered or not isinstance(node, Projection)
            stack.extend((child, filtered) for child in reversed(node.children()))

    def _add_gate(self, node: PlanNode, keys: Iterable[Expression]) -> None:
        self._gates.append(
            (
                node.referenced_tables(),
                {Schema.bare_name(key.name) for key in keys if isinstance(key, ColumnRef)},
            )
        )

    def _record_equalities(self, predicates: Iterable[Expression]) -> None:
        for predicate in predicates:
            pair = column_equality(predicate)
            if pair is not None:
                self._equivalences.union(*map(Schema.bare_name, pair))


def safe_attributes(plan: PlanNode, catalog: SchemaProvider, table: str) -> set[str]:
    """Convenience wrapper around :class:`SafetyAnalyzer`."""
    return SafetyAnalyzer(plan, catalog).safe_attributes(table)
