"""Safety analysis for sketch attributes.

A sketch attribute ``a`` of table ``R`` is *safe* for query ``Q`` when every
sketch built on any range partition of ``a`` is safe, i.e. evaluating ``Q``
over the data covered by the sketch returns the same result as evaluating it
over the full database (paper Sec. 4.4, using the test from [37]).

This module implements a conservative approximation of that test which covers
the query classes used in the paper's evaluation:

* **Monotone queries** (selection / projection / join without aggregation or
  top-k): every attribute is safe -- removing irrelevant tuples cannot change
  the surviving results' provenance coverage.
* **Group-preserving partitions**: attributes that appear in the GROUP BY list
  (directly, or transitively through equi-join equalities) are safe because
  every group is fully contained in the fragments of the sketch, for any
  HAVING condition and also below a top-k operator.
* **Monotone HAVING**: when every HAVING conjunct keeps a group only if an
  anti-monotone-safe aggregate crosses a threshold from below (``SUM``/
  ``COUNT``/``MAX`` with ``>``/``>=``) or from above (``MIN`` with ``<``/
  ``<=``), dropping non-provenance tuples cannot promote a new group into the
  result, so any attribute of the aggregated tables is safe.

Anything else is reported unsafe, in which case IMP either picks a different
attribute or does not use a sketch for the query.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Join,
    PlanNode,
    Projection,
    SchemaProvider,
    Selection,
    TableScan,
    TopK,
    walk_plan,
)
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    column_equality,
    column_versus_literal,
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
        self._aggregations: list[Aggregation] = []
        self._top_ks: list[TopK] = []
        self._monotone_having = True
        self._analyse()

    # -- public API ------------------------------------------------------------------

    def safe_attributes(self, table: str) -> set[str]:
        """Bare names of the attributes of ``table`` that are safe for the query."""
        table = table.lower()
        if table not in self._plan.referenced_tables():
            return set()
        schema = self._catalog.schema_of(table)
        attributes = {Schema.bare_name(name) for name in schema}

        if not self._aggregations and not self._top_ks:
            return attributes

        safe = {
            attribute
            for attribute in attributes
            if self._is_group_preserving(table, attribute)
        }
        if self._aggregations and not self._top_ks and self._monotone_having:
            safe = attributes
        return safe

    def is_safe(self, table: str, attribute: str) -> bool:
        """Whether ``table.attribute`` is a safe sketch attribute for the query."""
        return Schema.bare_name(attribute) in self.safe_attributes(table)

    # -- analysis --------------------------------------------------------------------

    def _analyse(self) -> None:
        aggregation_seen = False
        for node in walk_plan(self._plan):
            if isinstance(node, Join) and node.condition is not None:
                self._record_equalities(conjuncts(node.condition))
            if isinstance(node, Selection):
                self._record_equalities(conjuncts(node.predicate))
                if aggregation_seen is False and self._above_aggregation(node):
                    self._check_having(node.predicate)
            if isinstance(node, Aggregation):
                aggregation_seen = True
                self._aggregations.append(node)
            if isinstance(node, TopK):
                self._top_ks.append(node)

    def _above_aggregation(self, node: Selection) -> bool:
        """Whether ``node`` sits directly above an aggregation (a HAVING filter)."""
        child: PlanNode = node.child
        while isinstance(child, (Projection, Selection)):
            child = child.children()[0]
        return isinstance(child, Aggregation)

    def _record_equalities(self, predicates: Iterable[Expression]) -> None:
        for predicate in predicates:
            pair = column_equality(predicate)
            if pair is not None:
                self._equivalences.union(*map(Schema.bare_name, pair))

    def _check_having(self, predicate: Expression) -> None:
        """Record whether the HAVING condition is monotone-safe."""
        having_aggregates = self._aggregates_by_alias()
        for conjunct in conjuncts(predicate):
            if not self._monotone_conjunct(conjunct, having_aggregates):
                self._monotone_having = False
                return

    def _aggregates_by_alias(self) -> dict[str, Aggregate]:
        aliases: dict[str, Aggregate] = {}
        for node in walk_plan(self._plan):
            if isinstance(node, Aggregation):
                for aggregate in node.aggregates:
                    aliases[aggregate.alias] = aggregate
        return aliases

    def _monotone_conjunct(
        self, conjunct: Expression, aggregates: dict[str, Aggregate]
    ) -> bool:
        shape = column_versus_literal(conjunct)
        if shape is None:
            return False
        name, op, _constant = shape
        aggregate = aggregates.get(Schema.bare_name(name))
        if aggregate is None:
            # Condition on a group-by attribute: always safe (it only removes
            # whole groups independent of other data).
            return True
        increasing = aggregate.function in (
            AggregateFunction.SUM,
            AggregateFunction.COUNT,
            AggregateFunction.MAX,
        )
        decreasing = aggregate.function is AggregateFunction.MIN
        if increasing and op in (">", ">="):
            return True
        if decreasing and op in ("<", "<="):
            return True
        return False

    def _is_group_preserving(self, table: str, attribute: str) -> bool:
        """Whether partitioning ``table`` on ``attribute`` keeps groups intact."""
        group_names: set[str] = set()
        for aggregation in self._aggregations:
            for expression in aggregation.group_by:
                if isinstance(expression, ColumnRef):
                    group_names.add(Schema.bare_name(expression.name))
        if not group_names and self._top_ks:
            for top_k in self._top_ks:
                for item in top_k.order_by:
                    if isinstance(item.expression, ColumnRef):
                        group_names.add(Schema.bare_name(item.expression.name))
        if attribute in group_names:
            return True
        return any(
            self._equivalences.equivalent(attribute, group_name)
            for group_name in group_names
        )

    # -- table access helpers -------------------------------------------------------------

    def partitionable_tables(self) -> set[str]:
        """Tables with at least one safe attribute."""
        return {
            node.table
            for node in walk_plan(self._plan)
            if isinstance(node, TableScan) and self.safe_attributes(node.table)
        }


def safe_attributes(plan: PlanNode, catalog: SchemaProvider, table: str) -> set[str]:
    """Convenience wrapper around :class:`SafetyAnalyzer`."""
    return SafetyAnalyzer(plan, catalog).safe_attributes(table)
