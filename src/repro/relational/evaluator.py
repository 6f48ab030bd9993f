"""Bag-semantics evaluation of relational algebra plans.

:class:`Evaluator` is the query engine: the backend database and its sessions
answer every query with it, sketch-instrumented or not.  It runs one
pipeline -- optimize the plan, run each node's batch kernel, convert the root
batch to a :class:`Relation` -- and has no other mode.  The row-at-a-time
reference it is tested against lives in :mod:`repro.relational.oracle`.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.errors import PlanError, SchemaError
from repro.relational.algebra import (
    Aggregation,
    Distinct,
    Join,
    PlanNode,
    Projection,
    Selection,
    TableScan,
    TopK,
)
from repro.relational import kernels
from repro.relational.columnar import ColumnBatch
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    compile_batch_expression,
    conjuncts,
    strict_boolean,
)
from repro.relational.schema import Relation, Schema


class RelationProvider(Protocol):
    """Source of base relations, typically the backend database.

    The engine scans through ``column_batch``: one shared, immutable batch
    per table version that no consumer may mutate.  ``relation`` serves the
    row oracle and must return a relation *owned by the caller* (the oracle
    re-labels it with the scan alias and may hand it out as the query
    result), so a provider must not return internal mutable state
    (:meth:`repro.storage.database.Database.relation` returns a fresh copy).
    Providers with ordered indexes also offer ``indexed_attributes`` and
    ``index_scan``.
    """

    def column_batch(self, table: str) -> ColumnBatch:  # pragma: no cover - protocol
        ...

    def relation(self, table: str) -> Relation:  # pragma: no cover - protocol
        ...

    def schema_of(self, table: str) -> Schema:  # pragma: no cover - protocol
        ...


class Evaluator:
    """Evaluate logical plans against a :class:`RelationProvider`.

    There is one engine: the plan is rewritten by the logical optimizer
    (:mod:`repro.relational.optimizer` -- predicates pushed down to the scans
    where the index-scan fast path can serve them, joins re-ordered by
    estimated cardinality, unused columns pruned) and then every node runs
    column-at-a-time on its kernel in :mod:`repro.relational.kernels` over
    :class:`ColumnBatch` data; the root batch becomes the result
    :class:`Relation`.  A plan that already is optimizer output
    (:attr:`PlanNode.optimized`) is not rewritten again, so callers that
    repeat a query keep the :meth:`optimized` plan and pay for the rewrite
    once (sessions per SQL text, the sketch middleware per sketch version).

    ``optimize_plans=False`` runs the literal plan shape; the differential
    tests use it to tell an optimizer defect from a kernel defect.  The
    reference oracle is :class:`repro.relational.oracle.RowEvaluator`, which
    shares with this class only the decisions both must take alike to agree
    bit for bit (:meth:`_index_choice`, :meth:`_equi_pairs` and the ORDER BY
    rule of :mod:`repro.relational.schema`).
    """

    def __init__(self, provider: RelationProvider, optimize_plans: bool = True) -> None:
        self._provider = provider
        self._optimize_plans = optimize_plans
        self._optimizer = None
        self._estimator = None

    # -- public API --------------------------------------------------------------

    def evaluate(self, plan: PlanNode) -> Relation:
        """Evaluate ``plan`` and return its output relation."""
        if self._optimize_plans and not plan.optimized:
            plan = self.optimized(plan)
        return self._evaluate(plan)

    def optimized(self, plan: PlanNode) -> PlanNode:
        """The plan as the optimizer would rewrite it (EXPLAIN-style hook)."""
        if self._optimizer is None:
            from repro.relational.optimizer import PlanOptimizer

            self._optimizer = PlanOptimizer(self._provider)
        return self._optimizer.optimize(plan)

    # -- the pipeline ------------------------------------------------------------

    def _evaluate(self, node: PlanNode) -> Relation:
        return self._batch(node).to_relation()

    def _batch(self, node: PlanNode) -> ColumnBatch:
        if isinstance(node, TableScan):
            return self._scan_batch(node)
        if isinstance(node, Selection):
            return self._selection_batch(node)
        if isinstance(node, Projection):
            return self._projection_batch(node)
        if isinstance(node, Join):
            return self._join_batch(node)
        if isinstance(node, Aggregation):
            return self._aggregation_batch(node)
        if isinstance(node, Distinct):
            return kernels.distinct_batch(self._batch(node.child))
        if isinstance(node, TopK):
            return self._top_k_batch(node)
        raise PlanError(f"evaluator does not support plan node {type(node).__name__}")

    def _scan_batch(self, node: TableScan) -> ColumnBatch:
        # The provider's batch is cached per table version and shared between
        # scans; relabel() aliases the schema without copying.
        base = self._provider.column_batch(node.table)
        return base.relabel(base.schema.qualify(node.alias))

    @staticmethod
    def _values(batch: ColumnBatch, expression: Expression) -> list:
        """The value column of ``expression`` over ``batch`` (its one lowering)."""
        return compile_batch_expression(expression, batch.schema)(batch.columns, len(batch))

    def _filter(self, batch: ColumnBatch, predicate: Expression) -> ColumnBatch:
        return kernels.filter_batch(
            batch, self._values(batch, predicate), strict_boolean(predicate)
        )

    def _selection_batch(self, node: Selection) -> ColumnBatch:
        if isinstance(node.predicate, Literal):
            # Constant predicates (e.g. the folded contradiction of an empty
            # sketch) need no scan at all: True passes everything through and
            # False/NULL filters everything out.
            if node.predicate.value is True:
                return self._batch(node.child)
            return ColumnBatch.empty(node.child.output_schema(self._provider))
        choice = self._index_choice(node)
        if choice is None:
            return self._filter(self._batch(node.child), node.predicate)
        schema, attribute, intervals = choice
        # Lazy pivot: only the columns the recheck and the operators above
        # read are ever extracted from the fetched rows.
        fetched = ColumnBatch.from_fetched_items(
            schema,
            self._provider.index_scan(node.child.table, attribute, intervals),
            consolidated=True,
        )
        # Re-check the full predicate on the fetched rows, so that
        # over-approximated index bounds stay sound.
        return self._filter(fetched, node.predicate)

    def _projection_batch(self, node: Projection) -> ColumnBatch:
        child = self._batch(node.child)
        value_columns = [self._values(child, item.expression) for item in node.items]
        return kernels.project_batch(
            child, Schema(item.alias for item in node.items), value_columns
        )

    def _join_batch(self, node: Join) -> ColumnBatch:
        left = self._batch(node.left)
        right = self._batch(node.right)
        # Without an equality pair this is the cross product (empty key).
        pairs = self._equi_pairs(node.condition, left.schema, right.schema)
        combined = kernels.hash_join_batch(left, right, pairs)
        if node.condition is None:
            return combined
        # The full condition is re-checked on every matching pair: hash keys
        # match NULLs, and theta and residual conjuncts are applied here.
        return self._filter(combined, node.condition)

    def _aggregation_batch(self, node: Aggregation) -> ColumnBatch:
        # One entry per distinct child row, in first-occurrence order: that
        # fixes the accumulation order of each group's float sums.
        child = self._batch(node.child).consolidate()
        key_columns = [self._values(child, expression) for expression in node.group_by]
        argument_columns = [
            None if aggregate.argument is None else self._values(child, aggregate.argument)
            for aggregate in node.aggregates
        ]
        return kernels.aggregate_batch(
            node.output_schema(self._provider),
            node.aggregates,
            key_columns,
            argument_columns,
            child.multiplicities,
            grouped=bool(node.group_by),
        )

    def _top_k_batch(self, node: TopK) -> ColumnBatch:
        # Consolidated like an aggregation's input: equal rows are one entry
        # at their first occurrence, so LIMIT ties are cut in that order.
        child = self._batch(node.child).consolidate()
        key_columns = [self._values(child, item.expression) for item in node.order_by]
        return kernels.top_k_batch(
            child, key_columns, [item.ascending for item in node.order_by], node.k
        )

    # -- decisions shared with the oracle ----------------------------------------

    def _index_choice(
        self, node: Selection
    ) -> tuple[Schema, str, list] | None:
        """Pick the index to serve a selection-over-scan from, or None.

        This is the physical design hook provenance-based data skipping relies
        on: when the predicate (e.g. the BETWEEN disjunction injected by the
        use rewrite) bounds an indexed attribute, only qualifying rows are
        fetched instead of scanning the whole table.

        Every indexed attribute for which the predicate yields selective
        intervals is a candidate; when there are several, they are ranked by
        the cardinality estimator's interval selectivity (fraction of rows
        inside the intervals, from the equi-depth histogram) and the most
        selective one wins, so e.g. a narrow range on one attribute beats a
        near-full range on another.  Ties keep the provider's (alphabetical)
        attribute order.
        """
        child = node.child
        if not isinstance(child, TableScan):
            return None
        provider = self._provider
        if not hasattr(provider, "indexed_attributes") or not hasattr(provider, "index_scan"):
            return None
        from repro.relational.predicates import extract_intervals, intervals_are_selective

        candidates: list[tuple[str, list]] = []
        for attribute in provider.indexed_attributes(child.table):
            intervals = extract_intervals(node.predicate, attribute)
            if intervals_are_selective(intervals):
                candidates.append((attribute, intervals))
        if not candidates:
            return None
        if len(candidates) > 1:
            estimator = self._cardinality_estimator()
            candidates.sort(
                key=lambda candidate: estimator.intervals_selectivity(
                    child.table, candidate[0], candidate[1]
                )
            )
        attribute, intervals = candidates[0]
        schema = provider.schema_of(child.table).qualify(child.alias)
        return schema, attribute, intervals

    def _cardinality_estimator(self):
        if self._estimator is None:
            from repro.relational.optimizer import CardinalityEstimator

            self._estimator = CardinalityEstimator(self._provider)
        return self._estimator

    @staticmethod
    def _equi_pairs(
        condition: Expression | None, left: Schema, right: Schema
    ) -> list[tuple[int, int]]:
        """Hashable ``(left position, right position)`` pairs of the condition.

        Any equality conjunct between one attribute of each side can drive a
        hash join, even when other conjuncts (range predicates pushed into the
        condition by the optimizer) ride along: the full condition is still
        re-checked on every matching pair.  Names resolve against the combined
        schema, exactly as the compiled condition will bind them.
        """
        if condition is None:
            return []
        combined = left.concat(right)
        split = len(left)
        pairs: list[tuple[int, int]] = []
        for conjunct in conjuncts(condition):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            if not isinstance(conjunct.left, ColumnRef) or not isinstance(
                conjunct.right, ColumnRef
            ):
                continue
            try:
                a = combined.index_of(conjunct.left.name)
                b = combined.index_of(conjunct.right.name)
            except SchemaError:
                # Unresolvable or ambiguous references: the error belongs to
                # condition compilation, which the recheck will surface.
                continue
            if a < split <= b:
                pairs.append((a, b - split))
            elif b < split <= a:
                pairs.append((b, a - split))
        return pairs
