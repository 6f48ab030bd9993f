"""Bag-semantics evaluation of relational algebra plans.

:class:`Evaluator` is the query engine: the backend database and its sessions
answer every query with it, sketch-instrumented or not.  It runs one
pipeline -- optimize the plan, run each node's batch kernel, convert the root
batch to a :class:`Relation` -- and has no other mode.  The row-at-a-time
reference it is tested against lives in :mod:`repro.relational.oracle`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from repro.core.errors import PlanError, SchemaError
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
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
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    compile_batch_expression,
    conjunction,
    conjuncts,
    strict_boolean,
)
from repro.relational.optimizer import CardinalityEstimator, PlanOptimizer
from repro.relational.predicates import extract_intervals, intervals_are_selective, is_exact_bound
from repro.relational.schema import Relation, Schema

_LOOKUP_MAX_SHARE = 0.5
"""A lookup join fetches at most this share of the table's rows: past half,
copying the buckets costs more than hashing the cached table batch."""


_EXACT_TYPES = frozenset({int, bool, type(None)})
_EXACT_BOUND = 2**53
"""Every integer of magnitude up to this converts to a float exactly."""


def _arithmetic(expression: Expression) -> bool:
    return isinstance(expression, BinaryOp) or any(map(_arithmetic, expression.children()))


def _spelled(batch: ColumnBatch, expressions: Sequence[Expression]) -> ColumnBatch:
    """``batch`` consolidated where ``expressions`` compute arithmetic: the
    oracle merges equal rows under their first spelling, and arithmetic tells
    an int past 2**53 from its equal float (``2**53 + 1 != float(2**53) + 1``)."""
    if batch.consolidated or not any(map(_arithmetic, expressions)):
        return batch
    return batch.consolidate()


def _merges(batch: ColumnBatch, aggregates: Sequence[Aggregate]) -> bool:
    """Whether an aggregation folds ``batch`` consolidated -- one entry per
    distinct row, in first-occurrence order, which fixes the accumulation
    order of each group's float sums -- because a fold could see a merge.

    An argument that computes arithmetic could (:func:`_spelled`).  Counts
    are integer sums and min/max keep the first of equal values, so neither
    can.  A sum or avg over a column reference whose values are ints, bools
    or NULL, of magnitude at most ``m``, over entries whose multiplicities
    add up to ``n``, adds integers to ``0.0`` exactly as long as ``m * n <=
    2**53``, in any order and whether equal rows are merged or not
    (:func:`_adds_exactly`).  Every other argument could; a float column is
    told by sampled values before any full pass.
    """
    if batch.consolidated:
        return False
    arguments = [a.argument for a in aggregates if a.argument is not None]
    if any(map(_arithmetic, arguments)):
        return True
    columns = []
    for aggregate in aggregates:
        if aggregate.function not in (AggregateFunction.SUM, AggregateFunction.AVG):
            continue
        if not isinstance(aggregate.argument, ColumnRef):
            return True
        try:
            column = batch.columns[batch.schema.index_of(aggregate.argument.name)]
        except SchemaError:
            return True
        if column and not {type(column[i]) for i in (0, len(column) // 2, -1)} <= _EXACT_TYPES:
            return True
        columns.append(column)
    total = sum(batch.multiplicities)
    return not all(_adds_exactly(column, total) for column in columns)


def _adds_exactly(column: list, total: int) -> bool:
    """Whether every value of ``column`` is an int, a bool or NULL and the
    largest magnitude ``m`` keeps ``m * total <= 2**53``.

    ``sum`` is the probe: it adds ints at C speed.  An int result means the
    values are ints (a bool is one; so is any other int subclass, which a
    type check would have sent to the merge); a float or another type means
    a value that may round.  A column ``sum`` cannot add (NULL, text) is
    checked value by value.  The bound is then C-level ``max`` and ``min``.
    """
    try:
        probe = sum(column)
    except (TypeError, OverflowError):
        if not set(map(type, column)) <= _EXACT_TYPES:
            return False
        bound = max(map(abs, filter(None, column)), default=0)
    else:
        if type(probe) is not int:
            return False
        bound = max(max(column, default=0), -min(column, default=0))
    return bound * total <= _EXACT_BOUND


def _distinct_runs(
    batch: ColumnBatch, groups: kernels.Groups, aggregates: Sequence[Aggregate]
) -> bool:
    """Whether ``batch``, grouped by column references into ``groups``, is
    proven to hold no two equal rows, so that consolidating it would return
    the same entries in the same order.

    Proven when the groups come in runs (``groups.runs``: each group's
    entries contiguous) and, within each run, the first column an aggregate
    argument reads holds pairwise distinct values: one ``set`` per run has
    as many members as the run has entries.  A ``set``, the dict of
    :meth:`ColumnBatch.consolidate` and tuple equality all match values by
    one rule, identity or ``==``, so two rows of one run differ in that
    column, and two rows of different runs differ in their group-key
    column.  ``1``/``1.0``/``True``, ``-0.0``/``0.0``, ``2**53`` and its
    float, one NaN object twice: each is one member, and its run keeps the
    merge.

    The runs are the fold's own, so short runs (below
    ``kernels._MIN_MEAN_RUN`` on average) are not proven: there the run
    bounds and sets cost more than the merge they would save.  Over 4 000
    rows of an int key and two floats, bounds plus sets take 300 ns per
    entry at runs of 4 against 230 for the merge, 140 against 170 at runs
    of 12 and 82 against 157 at runs of 30 (CPython 3.11).
    """
    if groups.runs is None:
        return False
    for aggregate in aggregates:
        names = set() if aggregate.argument is None else aggregate.argument.columns()
        if names:
            break
    else:
        return False
    try:
        column = batch.columns[min(map(batch.schema.index_of, names))]
    except SchemaError:
        return False
    return all(len(set(column[start:stop])) == stop - start for _, start, stop in groups.runs)


class RelationProvider(Protocol):
    """Source of base relations, typically the backend database.

    The engine scans through ``column_batch``: one shared, immutable batch
    per table version that no consumer may mutate.  ``relation`` serves the
    row oracle and must return a relation *owned by the caller* (the oracle
    re-labels it with the scan alias and may hand it out as the query
    result), so a provider must not return internal mutable state
    (:meth:`repro.storage.database.Database.relation` returns a fresh copy).
    Providers with ordered indexes also offer ``indexed_attributes``,
    ``index_scan`` (a caller-owned batch of the fetched rows over the table's
    schema, ascending by indexed value; NULL and NaN are never fetched) and
    ``index_lookup(table, attribute, values, max_share)`` (a caller-owned
    batch of the rows whose indexed value is one of the distinct ``values``,
    one bucket per value in the order of ``values``, arrival order within
    one; or None, reading no row, when they are more than ``max_share`` of
    the table's rows).
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
    bit for bit (:meth:`_index_choice`, the condition split
    :meth:`~repro.relational.algebra.Join.key_pairs` and the ORDER BY rule of
    :mod:`repro.relational.schema`).  The lookup join
    (:meth:`_lookup_batch`) is engine-only: it hands the unchanged hash join
    the same right entries, in the same order, that a key can match.  So are
    the group-join (:meth:`_group_join_batch`) and the merge an aggregation
    skips, either because no fold can tell (:func:`_merges`) or because its
    input, grouped as delivered, is proven to hold no two equal rows
    (:func:`_distinct_runs`), when merging would return it unchanged; the
    oracle always joins, merges, then aggregates.
    """

    def __init__(self, provider: RelationProvider, optimize_plans: bool = True) -> None:
        self._provider = provider
        self._optimize_plans = optimize_plans
        self._optimizer: PlanOptimizer | None = None
        self._estimator: CardinalityEstimator | None = None

    # -- public API --------------------------------------------------------------

    def evaluate(self, plan: PlanNode) -> Relation:
        """Evaluate ``plan`` and return its output relation."""
        if self._optimize_plans and not plan.optimized:
            plan = self.optimized(plan)
        return self._evaluate(plan)

    def optimized(self, plan: PlanNode) -> PlanNode:
        """The plan as the optimizer would rewrite it (EXPLAIN-style hook)."""
        if self._optimizer is None:
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
        batch = _spelled(batch, [predicate])
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
        attribute, intervals = choice
        # Lazy pivot: only the columns the recheck and the operators above
        # read are ever extracted from the fetched rows.
        fetched = self._provider.index_scan(node.child.table, attribute, intervals)
        if fetched is None:
            return self._filter(self._batch(node.child), node.predicate)
        fetched = fetched.relabel(fetched.schema.qualify(node.child.alias))
        # Over-approximated index bounds stay sound because the fetched rows
        # are re-checked -- with the conjuncts the intervals do not prove
        # exactly; a sketch's range disjunction needs no recheck at all.
        residual = conjunction(
            [c for c in conjuncts(node.predicate) if not is_exact_bound(c, attribute)]
        )
        return fetched if residual is None else self._filter(fetched, residual)

    def _projection_batch(self, node: Projection) -> ColumnBatch:
        child = _spelled(self._batch(node.child), [item.expression for item in node.items])
        value_columns = [self._values(child, item.expression) for item in node.items]
        return kernels.project_batch(
            child, Schema(item.alias for item in node.items), value_columns
        )

    def _join_batch(self, node: Join) -> ColumnBatch:
        left = self._batch(node.left)
        right = self._lookup_batch(node, left)
        if right is None:
            right = self._batch(node.right)
        # Without an equality pair this is the cross product (empty key).
        pairs, residual = node.key_pairs(left.schema, right.schema)
        combined = kernels.hash_join_batch(left, right, pairs)
        # A key pair matches exactly where its SQL equality is true, so only
        # the theta and other residual conjuncts are checked on the pairs.
        return combined if residual is None else self._filter(combined, residual)

    def _lookup_batch(self, node: Join, left: ColumnBatch) -> ColumnBatch | None:
        """The right input of ``node`` fetched through an index on its join
        key -- or None, and the caller evaluates it as usual.

        Taken when the right input is selections over a scan that no index
        serves today, one key pair's right attribute is indexed, and the
        buckets of the left side's distinct keys hold at most
        ``_LOOKUP_MAX_SHARE`` of the table.  The fetched rows are filtered by
        the same selections.  The hash join's result is unchanged, entry for
        entry: a left key's partners are one bucket's rows, a bucket keeps
        table batch order and finds its value by dict equality, which is the
        hash join's, and a key with NULL or NaN has no partner either way.
        """
        provider = self._provider
        if not hasattr(provider, "index_lookup"):
            return None
        selections: list[Selection] = []
        scan = node.right
        while isinstance(scan, Selection) and not isinstance(scan.predicate, Literal):
            selections.append(scan)
            scan = scan.child
        if not selections or not isinstance(scan, TableScan):
            return None
        if self._index_choice(selections[-1]) is not None:
            return None
        schema = scan.output_schema(provider)
        pairs, _residual = node.key_pairs(left.schema, schema)
        indexed = provider.indexed_attributes(scan.table)
        for left_position, right_position in pairs:
            attribute = Schema.bare_name(schema.attributes[right_position])
            if attribute in indexed:
                break
        else:
            return None
        # Each key once, in left order: 1, 1.0 and True fetch one bucket.
        keys = dict.fromkeys(left.columns[left_position])
        fetched = provider.index_lookup(scan.table, attribute, keys, _LOOKUP_MAX_SHARE)
        if fetched is None:
            return None
        batch = fetched.relabel(schema)
        for selection in reversed(selections):
            batch = self._filter(batch, selection.predicate)
        return batch

    def _aggregation_batch(self, node: Aggregation) -> ColumnBatch:
        grouped = self._group_join_batch(node)
        if grouped is not None:
            return grouped
        child = self._batch(node.child)
        if _merges(child, node.aggregates):
            if all(isinstance(item, ColumnRef) for item in node.group_by):
                # Group the input as delivered: a proof of distinct rows
                # folds it unmerged, on the groups the proof computed.
                groups = self._groups(child, node.group_by)
                if _distinct_runs(child, groups, node.aggregates):
                    return self._fold(node, child, groups)
            child = child.consolidate()
        child = _spelled(child, node.group_by)
        return self._fold(node, child, self._groups(child, node.group_by))

    def _groups(self, batch: ColumnBatch, group_by: Sequence[Expression]) -> kernels.Groups:
        key_columns = [self._values(batch, expression) for expression in group_by]
        return kernels.groups_of(key_columns, len(batch))

    def _fold(self, node: Aggregation, child: ColumnBatch, groups: kernels.Groups) -> ColumnBatch:
        argument_columns = [
            None if aggregate.argument is None else self._values(child, aggregate.argument)
            for aggregate in node.aggregates
        ]
        return kernels.aggregate_batch(
            node.output_schema(self._provider),
            node.aggregates,
            groups,
            argument_columns,
            child.multiplicities,
            grouped=bool(node.group_by),
        )

    def _group_join_batch(self, node: Aggregation) -> ColumnBatch | None:
        """The aggregation of a join grouped by its key-only left side, folded
        from the right side's partners without running the join -- or None,
        and the caller joins and aggregates as usual.

        Taken when the child is a join whose left input has one column, the
        condition is one key pair and nothing else, the one GROUP BY item is
        that left column and every aggregate argument resolves in the right
        input (Moerkotte & Neumann's groupjoin).  The right entries whose key
        is a left key are folded, each at its multiplicity times its key's
        left count, grouped by the right key; the groups are then put in left
        order and keyed by the left side's spelling of the value.  That is the
        join-then-aggregate result entry for entry: the join pairs each left
        entry (the left side is consolidated, so its keys are distinct) with
        its key's right entries in right order at the product of the counts,
        so each group folds the same values at the same multiplicities in the
        same order, its groups appear in left order, and merging the pairs'
        duplicates merges exactly the duplicate right rows of one key.
        """
        join = node.child
        if not isinstance(join, Join) or len(node.group_by) != 1:
            return None
        provider = self._provider
        left_schema = join.left.output_schema(provider)
        if len(left_schema) != 1:
            return None
        right_schema = join.right.output_schema(provider)
        pairs, residual = join.key_pairs(left_schema, right_schema)
        if len(pairs) != 1 or residual is not None:
            return None
        # Names resolve against the join's output, as the aggregation binds them.
        combined = left_schema.concat(right_schema)
        group = node.group_by[0]
        try:
            if not isinstance(group, ColumnRef) or combined.index_of(group.name) != 0:
                return None
            for aggregate in node.aggregates:
                if aggregate.argument is not None and 0 in {
                    combined.index_of(name) for name in aggregate.argument.columns()
                }:
                    return None
        except SchemaError:
            return None
        left = self._batch(join.left).consolidate()
        right = self._lookup_batch(join, left)
        if right is None:
            right = self._batch(join.right)
        (_, key_position), = pairs
        # Left key -> its one position; NULL and NaN keys have no partner.
        index = kernels.join_index(left.columns[0])
        kept = kernels.filter_batch(
            right, list(map(index.__contains__, right.columns[key_position])), True
        )
        counts = left.multiplicities
        if counts.count(1) != len(counts):
            count_of = dict(zip(left.columns[0], counts))
            keys = kept.columns[key_position]
            kept = ColumnBatch(
                kept.schema,
                kept.columns,
                [count_of[key] * count for key, count in zip(keys, kept.multiplicities)],
                kept.consolidated,
            )
        if _merges(kept, node.aggregates):
            kept = kept.consolidate()
        folded = self._fold(node, kept, kernels.groups_of([kept.columns[key_position]], len(kept)))
        # Groups come in right order, keyed by the right spelling.
        positions = [index[key][0] for key in folded.columns[0]]
        order = sorted(range(len(positions)), key=positions.__getitem__)
        left_keys = left.columns[0]
        columns = [[left_keys[positions[g]] for g in order]]
        columns.extend([column[g] for g in order] for column in folded.columns[1:])
        return ColumnBatch(folded.schema, columns, folded.multiplicities, consolidated=True)

    def _top_k_batch(self, node: TopK) -> ColumnBatch:
        # Consolidated like an aggregation's input: equal rows are one entry
        # at their first occurrence, so LIMIT ties are cut in that order.
        child = self._batch(node.child).consolidate()
        key_columns = [self._values(child, item.expression) for item in node.order_by]
        return kernels.top_k_batch(
            child, key_columns, [item.ascending for item in node.order_by], node.k
        )

    # -- decisions shared with the oracle ----------------------------------------

    def _index_choice(self, node: Selection) -> tuple[str, list] | None:
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
        return candidates[0]

    def _cardinality_estimator(self) -> CardinalityEstimator:
        if self._estimator is None:
            self._estimator = CardinalityEstimator(self._provider)
        return self._estimator
