"""Rule-based, cost-aware logical plan optimizer.

The reference evaluator can serve a selection from an ordered index only when
the selection sits *directly* on a table scan (``Evaluator._try_index_scan``).
Real plans rarely look like that: the SQL translator leaves WHERE predicates
above explicit JOINs, the use rewrite injects its BETWEEN disjunctions in a
separate selection below the user predicate, and subqueries hide scans behind
renaming projections.  This module normalises plans so provenance-based data
skipping reaches every scan:

* **constant folding** -- literal-only subexpressions are evaluated once and
  three-valued AND/OR simplifications are applied, so the ``1 = 0``
  contradiction emitted for empty sketches becomes a recognisable constant;
* **predicate decomposition and pushdown** -- selection predicates are split
  into conjuncts and pushed through projections (rewriting through the alias
  mapping), distinct, and joins down to the scans; conjuncts that reference
  both join sides are merged into the join condition (enabling hash joins);
* **conjunct merging at scans** -- pushed conjuncts and use-rewrite sketch
  predicates end up in one selection directly over the scan, so interval
  extraction intersects all of them for a single index range scan;
* **projection collapsing and pruning** -- adjacent projections are composed,
  unused projection items are dropped, and join inputs are narrowed to the
  attributes actually referenced above;
* **greedy join reordering** -- join clusters of three or more inputs are
  re-ordered smallest-first using cardinality estimates (base row counts
  scaled by interval selectivity from equi-depth histogram boundaries); a
  final renaming projection restores the original attribute order so results
  stay bit-identical.

Every rewrite preserves bag semantics and the plan's output schema exactly;
``tests/test_optimizer.py`` checks optimized and unoptimized plans against
each other differentially.  TopK subtrees are left untouched: the evaluator
breaks order-key ties by encounter order, so changing access paths or join
order below a LIMIT could change which tied rows are returned.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.errors import SchemaError
from repro.relational.algebra import (
    Aggregation,
    Distinct,
    Join,
    PlanNode,
    Projection,
    ProjectionItem,
    SchemaProvider,
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
    conjuncts,
    conjunction,
    strict_boolean,
)
from repro.relational.predicates import extract_intervals, intervals_are_selective
from repro.relational.schema import Schema

_EMPTY_SCHEMA = Schema(())

# Fallbacks when the provider carries no statistics (mirroring the classic
# System-R magic numbers).
_DEFAULT_ROW_COUNT = 1000.0
_DEFAULT_EQUALITY_SELECTIVITY = 0.1
_DEFAULT_PREDICATE_SELECTIVITY = 0.25
_MIN_SELECTIVITY = 1e-4
_HISTOGRAM_BUCKETS = 32


class _CannotRewrite(Exception):
    """Internal: a conjunct cannot be moved through the current operator."""


# -- expression utilities ------------------------------------------------------------


def fold_expression(expression: Expression) -> Expression:
    """Constant-fold ``expression`` bottom-up.

    Literal-only subtrees are evaluated once, through the batch form over one
    entry (matching ``Expression.compile_batch``: when evaluation raises,
    folding is skipped so the error still surfaces at evaluation); AND/OR are
    simplified with their dominating and identity constants, which is sound
    under three-valued logic because ``False AND x = False`` and
    ``True OR x = True`` hold for NULL ``x`` too.
    """
    folded = _rebuild_expression(expression, fold_expression)
    if isinstance(folded, (Literal, ColumnRef)):
        return folded
    if not folded.columns() and not folded.contains_aggregate():
        try:
            (value,) = folded.compile_batch(_EMPTY_SCHEMA)((), 1)
        except Exception:
            return folded
        return Literal(value)
    if isinstance(folded, LogicalOp):
        return _fold_logical(folded)
    return folded


def _fold_logical(expression: LogicalOp) -> Expression:
    dominating = expression.op == "OR"  # True dominates OR, False dominates AND
    kept: list[Expression] = []
    for operand in expression.operands:
        if isinstance(operand, Literal) and isinstance(operand.value, bool):
            if operand.value is dominating:
                return Literal(dominating)
            continue  # the identity constant contributes nothing
        kept.append(operand)
    if not kept:
        return Literal(not dominating)
    if len(kept) == 1 and strict_boolean(kept[0]):
        # A non-boolean survivor keeps its one-operand AND/OR, which turns
        # any value that is not False/NULL (True/NULL for OR) into a boolean.
        return kept[0]
    if len(kept) == len(expression.operands):
        return expression
    return LogicalOp(expression.op, kept)


def _rebuild_expression(expression: Expression, transform) -> Expression:
    """Structural copy of ``expression`` with ``transform`` applied to children."""
    if isinstance(expression, (ColumnRef, Literal)):
        return expression
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.op, transform(expression.left), transform(expression.right)
        )
    if isinstance(expression, UnaryMinus):
        return UnaryMinus(transform(expression.operand))
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op, transform(expression.left), transform(expression.right)
        )
    if isinstance(expression, Between):
        return Between(
            transform(expression.operand),
            transform(expression.low),
            transform(expression.high),
        )
    if isinstance(expression, IsNull):
        return IsNull(transform(expression.operand), expression.negated)
    if isinstance(expression, LogicalOp):
        return LogicalOp(expression.op, [transform(o) for o in expression.operands])
    if isinstance(expression, Not):
        return Not(transform(expression.operand))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name, [transform(a) for a in expression.args], expression.star
        )
    return expression


def substitute_columns(
    expression: Expression, schema: Schema, items: Sequence[ProjectionItem]
) -> Expression:
    """Rewrite ``expression`` through a projection's alias mapping.

    Every column reference (which names a projection output attribute) is
    replaced by the projection item's input expression, producing an
    expression over the projection's *input* schema.  Raises
    :class:`_CannotRewrite` when a reference does not resolve or the result
    would re-introduce an aggregate below the projection.
    """
    if isinstance(expression, ColumnRef):
        try:
            position = schema.index_of(expression.name)
        except SchemaError as exc:
            raise _CannotRewrite(str(exc)) from exc
        replacement = items[position].expression
        if replacement.contains_aggregate():
            raise _CannotRewrite("cannot push an aggregate reference below a projection")
        return replacement
    if isinstance(expression, Literal):
        return expression
    return _rebuild_expression(
        expression, lambda child: substitute_columns(child, schema, items)
    )


def _is_constant(expression: Expression, value: bool | None) -> bool:
    return isinstance(expression, Literal) and expression.value is value


# -- cardinality estimation ----------------------------------------------------------


class CardinalityEstimator:
    """Rough cardinality estimates driven by backend column statistics.

    The provider is duck-typed: when it offers ``row_count``,
    ``column_statistics`` and ``equi_depth_ranges`` (the backend
    :class:`~repro.storage.database.Database` does), estimates use real row
    counts, distinct counts and interval selectivity derived from equi-depth
    histogram boundaries; otherwise classic textbook defaults apply.  The
    estimator never raises -- a failing statistics lookup falls back to the
    defaults -- because a cost model must not break query evaluation.
    """

    def __init__(self, catalog: SchemaProvider, statistics: object | None = None) -> None:
        self._catalog = catalog
        source = statistics if statistics is not None else catalog
        self._statistics = source if hasattr(source, "column_statistics") else None

    # -- public API ------------------------------------------------------------------

    def estimate(self, node: PlanNode) -> float:
        """Estimated output cardinality of ``node`` (always finite, >= 0)."""
        try:
            estimate = self._estimate(node)
        except Exception:
            return _DEFAULT_ROW_COUNT
        if not math.isfinite(estimate) or estimate < 0:
            return _DEFAULT_ROW_COUNT
        return estimate

    def selectivity(self, predicate: Expression, table: str | None) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        result = 1.0
        for conjunct in conjuncts(predicate):
            result *= self._conjunct_selectivity(conjunct, table)
        return max(result, 0.0)

    def equality_selectivity(self, left_distinct: float, right_distinct: float) -> float:
        """Join selectivity of an equality between two attributes."""
        largest = max(left_distinct, right_distinct, 1.0)
        return 1.0 / largest

    def intervals_selectivity(self, table: str, attribute: str, intervals) -> float:
        """Estimated fraction of ``table`` rows with ``attribute`` in ``intervals``.

        Used by the evaluator to rank candidate indexes for a selection:
        lower is more selective.  ``None`` intervals (no usable bound) rate
        1.0, an empty interval list 0.0; without histogram statistics the
        default predicate selectivity applies, like every other estimate.
        """
        if intervals is None:
            return 1.0
        if not intervals:
            return 0.0
        try:
            fraction = self._intervals_fraction(table, attribute, intervals)
        except Exception:
            fraction = None
        if fraction is None:
            return _DEFAULT_PREDICATE_SELECTIVITY
        return min(1.0, max(fraction, _MIN_SELECTIVITY))

    # -- node estimates ----------------------------------------------------------------

    def _estimate(self, node: PlanNode) -> float:
        if isinstance(node, TableScan):
            return self._row_count(node.table)
        if isinstance(node, Selection):
            table = self._base_table(node.child)
            child = self._estimate(node.child)
            return child * max(
                self.selectivity(node.predicate, table), _MIN_SELECTIVITY
            )
        if isinstance(node, Projection):
            return self._estimate(node.child)
        if isinstance(node, Distinct):
            return self._estimate(node.child)
        if isinstance(node, Join):
            left = self._estimate(node.left)
            right = self._estimate(node.right)
            estimate = left * right
            for conjunct in conjuncts(node.condition):
                estimate *= self._join_conjunct_selectivity(conjunct, node)
            return estimate
        if isinstance(node, Aggregation):
            child = self._estimate(node.child)
            if not node.group_by:
                return 1.0
            groups = 1.0
            for expression in node.group_by:
                if isinstance(expression, ColumnRef):
                    groups *= self._distinct_in_subtree(node.child, expression.name)
                else:
                    groups = child
                    break
            return min(groups, child)
        if isinstance(node, TopK):
            return min(float(node.k), self._estimate(node.child))
        return _DEFAULT_ROW_COUNT

    def _join_conjunct_selectivity(self, conjunct: Expression, node: Join) -> float:
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            left = self._distinct_in_subtree(node, conjunct.left.name)
            right = self._distinct_in_subtree(node, conjunct.right.name)
            return self.equality_selectivity(left, right)
        return _DEFAULT_PREDICATE_SELECTIVITY

    # -- statistics lookups ------------------------------------------------------------

    def _row_count(self, table: str) -> float:
        if self._statistics is not None and hasattr(self._statistics, "row_count"):
            try:
                return float(self._statistics.row_count(table))
            except Exception:
                pass
        return _DEFAULT_ROW_COUNT

    def _base_table(self, node: PlanNode) -> str | None:
        """The base table a selection filters, when scans are directly below."""
        while isinstance(node, Selection):
            node = node.child
        if isinstance(node, TableScan):
            return node.table
        return None

    def _column_statistics(self, table: str, attribute: str):
        if self._statistics is None:
            return None
        try:
            return self._statistics.column_statistics(table, Schema.bare_name(attribute))
        except Exception:
            return None

    def _distinct_in_subtree(self, node: PlanNode, column: str) -> float:
        """Distinct-count estimate for ``column`` resolved against the scans below."""
        bare = Schema.bare_name(column)
        best = 0.0
        for scan in _scans_below(node):
            try:
                schema = self._catalog.schema_of(scan.table)
            except Exception:
                continue
            if not schema.has(bare):
                continue
            statistics = self._column_statistics(scan.table, bare)
            if statistics is not None:
                best = max(best, float(statistics.distinct_count))
            else:
                best = max(best, self._row_count(scan.table) * _DEFAULT_EQUALITY_SELECTIVITY)
        return best if best > 0 else 1.0 / _DEFAULT_EQUALITY_SELECTIVITY

    def _conjunct_selectivity(self, conjunct: Expression, table: str | None) -> float:
        if _is_constant(conjunct, True):
            return 1.0
        if isinstance(conjunct, Literal) and conjunct.value is not True:
            return 0.0
        columns = {Schema.bare_name(name) for name in conjunct.columns()}
        if table is not None and len(columns) == 1:
            attribute = next(iter(columns))
            if isinstance(conjunct, IsNull):
                return self._null_fraction(table, attribute, conjunct.negated)
            intervals = extract_intervals(conjunct, attribute)
            if intervals_are_selective(intervals):
                fraction = self._intervals_fraction(table, attribute, intervals)
                if fraction is not None:
                    return min(1.0, max(fraction, _MIN_SELECTIVITY))
        return _DEFAULT_PREDICATE_SELECTIVITY

    def _null_fraction(self, table: str, attribute: str, negated: bool) -> float:
        statistics = self._column_statistics(table, attribute)
        if statistics is None or statistics.row_count == 0:
            return _DEFAULT_PREDICATE_SELECTIVITY
        fraction = statistics.null_count / statistics.row_count
        return (1.0 - fraction) if negated else fraction

    def _intervals_fraction(self, table, attribute, intervals) -> float | None:
        statistics = self._column_statistics(table, attribute)
        if statistics is None:
            return None
        boundaries = self._boundaries(table, attribute)
        if boundaries is None or len(boundaries) < 2:
            return None
        from repro.storage.statistics import equi_depth_fraction

        total = 0.0
        for interval in intervals:
            if interval.is_empty():
                continue
            if interval.low == interval.high:
                total += 1.0 / max(statistics.distinct_count, 1)
            else:
                total += equi_depth_fraction(boundaries, interval.low, interval.high)
        return min(1.0, total)

    def _boundaries(self, table: str, attribute: str) -> list[float] | None:
        if self._statistics is None or not hasattr(self._statistics, "equi_depth_ranges"):
            return None
        try:
            return self._statistics.equi_depth_ranges(
                table, Schema.bare_name(attribute), _HISTOGRAM_BUCKETS
            )
        except Exception:
            return None


def _scans_below(node: PlanNode) -> list[TableScan]:
    from repro.relational.algebra import walk_plan

    return [n for n in walk_plan(node) if isinstance(n, TableScan)]


# -- the optimizer -------------------------------------------------------------------


class PlanOptimizer:
    """Applies the rewrite rules to a logical plan.

    ``catalog`` resolves table schemas (any :class:`SchemaProvider`);
    ``statistics`` optionally provides row counts / column statistics /
    histogram boundaries for the cost model and defaults to the catalog when
    it quacks like the backend database.
    """

    def __init__(self, catalog: SchemaProvider, statistics: object | None = None) -> None:
        self._catalog = catalog
        self.estimator = CardinalityEstimator(catalog, statistics)

    def optimize(self, plan: PlanNode) -> PlanNode:
        """Return an equivalent plan with the same output schema."""
        plan = self._push(plan, [])
        plan = self._reorder(plan)
        plan = self._collapse(plan)
        plan = self._prune(plan, None)
        plan.optimized = True
        return plan

    # -- predicate decomposition & pushdown ----------------------------------------------

    def _push(self, node: PlanNode, pending: list[Expression]) -> PlanNode:
        if isinstance(node, Selection):
            parts = list(pending)
            for conjunct in conjuncts(node.predicate):
                folded = fold_expression(conjunct)
                if _is_constant(folded, True):
                    continue
                parts.append(folded)
            return self._push(node.child, parts)
        if isinstance(node, Projection):
            return self._push_projection(node, pending)
        if isinstance(node, Distinct):
            # Selection commutes with duplicate removal.
            return Distinct(self._push(node.child, pending))
        if isinstance(node, Join):
            return self._push_join(node, pending)
        if isinstance(node, TableScan):
            return self._wrap(node, pending)
        if isinstance(node, Aggregation):
            # HAVING predicates reference aggregate outputs; they stay above.
            rebuilt = Aggregation(
                self._push(node.child, []), node.group_by, node.aggregates
            )
            return self._wrap(rebuilt, pending)
        # TopK subtrees (and unknown operators) are left completely untouched:
        # _top_k breaks order-key ties by encounter order, so any rewrite
        # below a TopK that changes access paths or join order could change
        # which of the tied rows make the first k and break bit-identity.
        return self._wrap(node, pending)

    def _push_projection(self, node: Projection, pending: list[Expression]) -> PlanNode:
        alias_schema = Schema(item.alias for item in node.items)
        passed: list[Expression] = []
        kept: list[Expression] = []
        for predicate in pending:
            try:
                rewritten = substitute_columns(predicate, alias_schema, node.items)
            except _CannotRewrite:
                kept.append(predicate)
                continue
            folded = fold_expression(rewritten)
            if not _is_constant(folded, True):
                passed.append(folded)
        rebuilt = Projection(self._push(node.child, passed), node.items)
        return self._wrap(rebuilt, kept)

    def _push_join(self, node: Join, pending: list[Expression]) -> PlanNode:
        left_schema = node.left.output_schema(self._catalog)
        right_schema = node.right.output_schema(self._catalog)
        combined = left_schema.concat(right_schema)
        split = len(left_schema)
        parts = list(pending)
        for conjunct in conjuncts(node.condition):
            folded = fold_expression(conjunct)
            if not _is_constant(folded, True):
                parts.append(folded)
        left_parts: list[Expression] = []
        right_parts: list[Expression] = []
        join_parts: list[Expression] = []
        for predicate in parts:
            positions = self._column_positions(predicate, combined)
            if positions is None or not positions:
                join_parts.append(predicate)
            elif all(position < split for position in positions):
                left_parts.append(predicate)
            elif all(position >= split for position in positions):
                right_parts.append(predicate)
            else:
                join_parts.append(predicate)
        return Join(
            self._push(node.left, left_parts),
            self._push(node.right, right_parts),
            conjunction(join_parts),
        )

    @staticmethod
    def _column_positions(predicate: Expression, schema: Schema) -> set[int] | None:
        """Positions of the predicate's columns in ``schema`` (None: unresolvable).

        Resolution mirrors how the predicate would bind at evaluation time
        (exact match first, then unique bare-name match), so ownership
        decisions agree with runtime semantics even for qualified references.
        """
        positions: set[int] = set()
        for column in predicate.columns():
            try:
                positions.add(schema.index_of(column))
            except SchemaError:
                return None
        return positions

    @staticmethod
    def _wrap(node: PlanNode, pending: Sequence[Expression]) -> PlanNode:
        predicate = conjunction(list(pending))
        if predicate is None:
            return node
        # Re-fold the combined conjunction: a False/NULL literal among the
        # conjuncts dominates the AND (sound under three-valued logic), and
        # collapsing it to a bare Literal is what lets the evaluator answer a
        # contradicted selection without scanning at all.
        if isinstance(predicate, LogicalOp):
            predicate = _fold_logical(predicate)
        if _is_constant(predicate, True):
            return node
        return Selection(node, predicate)

    # -- join reordering -----------------------------------------------------------------

    def _reorder(self, node: PlanNode) -> PlanNode:
        if isinstance(node, TopK):
            return node
        if isinstance(node, Join):
            leaves: list[PlanNode] = []
            parts: list[Expression] = []
            self._flatten_join(node, leaves, parts)
            if len(leaves) >= 3:
                return self._reorder_cluster(node, leaves, parts)
            return Join(
                self._reorder(node.left), self._reorder(node.right), node.condition
            )
        return self._rebuild_node(node, [self._reorder(child) for child in node.children()])

    def _flatten_join(
        self, node: PlanNode, leaves: list[PlanNode], parts: list[Expression]
    ) -> None:
        if isinstance(node, Join):
            self._flatten_join(node.left, leaves, parts)
            self._flatten_join(node.right, leaves, parts)
            parts.extend(conjuncts(node.condition))
        else:
            leaves.append(node)

    def _reorder_cluster(
        self, original: Join, leaves: list[PlanNode], parts: list[Expression]
    ) -> PlanNode:
        leaves = [self._reorder(leaf) for leaf in leaves]
        schemas = [leaf.output_schema(self._catalog) for leaf in leaves]
        combined = Schema(
            name for schema in schemas for name in schema.attributes
        )
        offsets = []
        position = 0
        for schema in schemas:
            offsets.append(position)
            position += len(schema)

        def leaf_of(index: int) -> int:
            for leaf_index in range(len(offsets) - 1, -1, -1):
                if index >= offsets[leaf_index]:
                    return leaf_index
            return 0

        assigned: list[tuple[Expression, frozenset[int]]] = []
        residual: list[Expression] = []
        for predicate in parts:
            positions = self._column_positions(predicate, combined)
            if positions is None:
                residual.append(predicate)
            else:
                assigned.append(
                    (predicate, frozenset(leaf_of(index) for index in positions))
                )

        estimates = [self.estimator.estimate(leaf) for leaf in leaves]
        order = self._greedy_order(leaves, estimates, assigned)
        rebuilt = self._build_left_deep(leaves, order, assigned)
        rebuilt_schema = rebuilt.output_schema(self._catalog)
        if rebuilt_schema.attributes != combined.attributes:
            # Restore the original attribute order so results stay bit-identical.
            items = [ProjectionItem(ColumnRef(name), name) for name in combined]
            rebuilt = Projection(rebuilt, items)
        return self._wrap(rebuilt, residual)

    def _greedy_order(
        self,
        leaves: list[PlanNode],
        estimates: list[float],
        assigned: list[tuple[Expression, frozenset[int]]],
    ) -> list[int]:
        remaining = set(range(len(leaves)))
        order: list[int] = []
        start = min(remaining, key=lambda i: (estimates[i], i))
        order.append(start)
        remaining.discard(start)
        used = {start}
        current = estimates[start]
        applied: set[int] = set()
        while remaining:
            connected = [
                i
                for i in remaining
                if any(
                    refs and refs <= used | {i} and not refs <= used
                    for _p, refs in assigned
                )
            ]
            candidates = connected or sorted(remaining)
            best: tuple[float, int] | None = None
            best_result = current
            for i in candidates:
                result = current * estimates[i]
                for index, (predicate, refs) in enumerate(assigned):
                    if index in applied or not refs or not refs <= used | {i}:
                        continue
                    result *= self._predicate_factor(predicate, leaves)
                key = (result, i)
                if best is None or key < best:
                    best = key
                    best_result = result
            chosen = best[1] if best is not None else min(remaining)
            order.append(chosen)
            used.add(chosen)
            remaining.discard(chosen)
            for index, (_predicate, refs) in enumerate(assigned):
                if index not in applied and refs and refs <= used:
                    applied.add(index)
            current = max(best_result, 1.0)
        return order

    def _predicate_factor(self, predicate: Expression, leaves: list[PlanNode]) -> float:
        if (
            isinstance(predicate, Comparison)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            distincts = []
            for column in (predicate.left.name, predicate.right.name):
                best = 1.0
                for leaf in leaves:
                    best = max(
                        best, self.estimator._distinct_in_subtree(leaf, column)
                    )
                distincts.append(best)
            return self.estimator.equality_selectivity(distincts[0], distincts[1])
        return _DEFAULT_PREDICATE_SELECTIVITY

    def _build_left_deep(
        self,
        leaves: list[PlanNode],
        order: list[int],
        assigned: list[tuple[Expression, frozenset[int]]],
    ) -> PlanNode:
        used = {order[0]}
        plan = leaves[order[0]]
        attached: set[int] = set()
        for i in order[1:]:
            used.add(i)
            applicable: list[Expression] = []
            for index, (predicate, refs) in enumerate(assigned):
                if index in attached or not refs <= used:
                    continue
                attached.add(index)
                applicable.append(predicate)
            plan = Join(plan, leaves[i], conjunction(applicable))
        leftovers = [
            predicate
            for index, (predicate, _refs) in enumerate(assigned)
            if index not in attached
        ]
        return self._wrap(plan, leftovers)

    # -- projection collapsing -----------------------------------------------------------

    def _collapse(self, node: PlanNode) -> PlanNode:
        if isinstance(node, TopK):
            return node
        node = self._rebuild_node(
            node, [self._collapse(child) for child in node.children()]
        )
        if isinstance(node, Projection) and isinstance(node.child, Projection):
            inner = node.child
            alias_schema = Schema(item.alias for item in inner.items)
            try:
                items = [
                    ProjectionItem(
                        fold_expression(
                            substitute_columns(item.expression, alias_schema, inner.items)
                        ),
                        item.alias,
                    )
                    for item in node.items
                ]
            except _CannotRewrite:
                return node
            return Projection(inner.child, items)
        return node

    # -- projection pruning --------------------------------------------------------------

    def _prune(self, node: PlanNode, needed: set[str] | None) -> PlanNode:
        """Drop columns no ancestor references.

        ``needed`` is the set of column names referenced above ``node`` (None
        means every column must survive, e.g. at the plan root or below
        row-identity operators like Distinct and TopK).  The returned plan's
        schema is a subset of the original that still resolves every needed
        name; operators that consume rows by name tolerate the narrowing,
        and the plan root is called with ``needed=None`` so the query's
        output schema never changes.
        """
        if isinstance(node, Projection):
            items = self._needed_items(node, needed)
            columns: set[str] = set()
            for item in items:
                columns |= item.expression.columns()
            return Projection(self._prune(node.child, columns), items)
        if isinstance(node, Aggregation):
            columns = set()
            for expression in node.group_by:
                columns |= expression.columns()
            for aggregate in node.aggregates:
                if aggregate.argument is not None:
                    columns |= aggregate.argument.columns()
            return Aggregation(
                self._prune(node.child, columns), node.group_by, node.aggregates
            )
        if isinstance(node, Selection):
            child_needed = (
                None if needed is None else needed | node.predicate.columns()
            )
            return Selection(self._prune(node.child, child_needed), node.predicate)
        if isinstance(node, Distinct):
            return Distinct(self._prune(node.child, None))
        if isinstance(node, TopK):
            return node
        if isinstance(node, Join):
            return self._prune_join(node, needed)
        return node

    def _needed_items(
        self, node: Projection, needed: set[str] | None
    ) -> tuple[ProjectionItem, ...]:
        if needed is None:
            return node.items
        alias_schema = Schema(item.alias for item in node.items)
        positions: set[int] = set()
        for name in needed:
            try:
                positions.add(alias_schema.index_of(name))
            except SchemaError:
                return node.items
        if len(positions) >= len(node.items):
            return node.items
        items = tuple(
            item for index, item in enumerate(node.items) if index in positions
        )
        # A projection requires at least one item; an empty selection can occur
        # under a global COUNT(*), where any column carries the multiplicities.
        return items or node.items[:1]

    def _prune_join(self, node: Join, needed: set[str] | None) -> PlanNode:
        left_schema = node.left.output_schema(self._catalog)
        right_schema = node.right.output_schema(self._catalog)
        combined = left_schema.concat(right_schema)
        split = len(left_schema)
        left_needed: set[str] | None = None
        right_needed: set[str] | None = None
        if needed is not None:
            names = set(needed)
            if node.condition is not None:
                names |= node.condition.columns()
            left_needed, right_needed = set(), set()
            for name in names:
                try:
                    position = combined.index_of(name)
                except SchemaError:
                    left_needed = right_needed = None
                    break
                if position < split:
                    left_needed.add(combined.attributes[position])
                else:
                    right_needed.add(combined.attributes[position])
        left = self._narrow(self._prune(node.left, left_needed), left_needed)
        right = self._narrow(self._prune(node.right, right_needed), right_needed)
        return Join(left, right, node.condition)

    def _narrow(self, node: PlanNode, needed: set[str] | None) -> PlanNode:
        if needed is None:
            return node
        schema = node.output_schema(self._catalog)
        positions: set[int] = set()
        for name in needed:
            try:
                positions.add(schema.index_of(name))
            except SchemaError:
                return node
        if len(positions) >= len(schema):
            return node
        kept = [
            attribute
            for index, attribute in enumerate(schema.attributes)
            if index in positions
        ]
        if not kept:
            # Keep one column so the side still contributes its multiplicities.
            kept = [schema.attributes[0]]
        items = [ProjectionItem(ColumnRef(name), name) for name in kept]
        return Projection(node, items)

    # -- generic rebuild -----------------------------------------------------------------

    @staticmethod
    def _rebuild_node(node: PlanNode, children: list[PlanNode]) -> PlanNode:
        if isinstance(node, Selection):
            return Selection(children[0], node.predicate)
        if isinstance(node, Projection):
            return Projection(children[0], node.items)
        if isinstance(node, Join):
            return Join(children[0], children[1], node.condition)
        if isinstance(node, Aggregation):
            return Aggregation(children[0], node.group_by, node.aggregates)
        if isinstance(node, Distinct):
            return Distinct(children[0])
        if isinstance(node, TopK):
            return TopK(children[0], node.k, node.order_by)
        return node

