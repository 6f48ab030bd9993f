"""Incremental relational algebra operators over sketch-annotated deltas.

Each operator implements the incremental semantics of Sec. 5.2 of the paper:
it consumes the annotated delta produced by its child (or the database delta,
for table access), updates its internal state, and produces an annotated
output delta.  The merge operator ``μ`` at the root turns the final annotated
delta into a sketch delta.

Operators are arranged in a tree mirroring the logical plan; both state
initialisation (which doubles as sketch capture) and delta processing are
single bottom-up passes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.bitset import BitSet
from repro.core.bloom import BloomFilter
from repro.relational.algebra import Aggregate, OrderItem, PlanNode
from repro.relational.evaluator import make_order_key
from repro.relational.expressions import (
    ColumnRef,
    CompiledBatchExpression,
    Expression,
    Literal,
    compile_batch_expression,
    compile_expression,
    compile_row_expressions,
)
from repro.relational.kernels import strict_boolean
from repro.relational.schema import Row, Schema
from repro.sketch.capture import AnnotatedEvaluator, AnnotatedRelation, annotated_scan
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import SketchDelta
from repro.storage.delta import DatabaseDelta
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import (
    AggregationState,
    DistinctState,
    MergeState,
    TopKState,
    make_accumulator,
)


def compile_batch_predicate(
    predicate: Expression, schema: Schema
) -> CompiledBatchExpression:
    """Batch form of a selection predicate whose value column can drive
    :func:`itertools.compress`: true exactly where the row form ``is True``."""
    evaluate = compile_batch_expression(predicate, schema)
    if strict_boolean(predicate):
        return evaluate
    return lambda columns, n: [value is True for value in evaluate(columns, n)]


@dataclass
class EngineStatistics:
    """Counters collected while maintaining a sketch.

    These drive the optimization experiments: how many delta tuples were
    fetched from the backend, how many were pruned by selection push-down or
    Bloom filters, and how many backend round trips the join operators needed.
    """

    delta_tuples_fetched: int = 0
    delta_tuples_filtered: int = 0
    bloom_filtered_tuples: int = 0
    backend_round_trips: int = 0
    tuples_shipped_to_backend: int = 0
    tuples_processed: int = 0
    maintenance_runs: int = 0
    recaptures: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "EngineStatistics") -> None:
        """Accumulate another statistics object into this one."""
        self.delta_tuples_fetched += other.delta_tuples_fetched
        self.delta_tuples_filtered += other.delta_tuples_filtered
        self.bloom_filtered_tuples += other.bloom_filtered_tuples
        self.backend_round_trips += other.backend_round_trips
        self.tuples_shipped_to_backend += other.tuples_shipped_to_backend
        self.tuples_processed += other.tuples_processed
        self.maintenance_runs += other.maintenance_runs
        self.recaptures += other.recaptures


class IncrementalOperator:
    """Base class of incremental operators."""

    def __init__(self, output_schema: Schema, statistics: EngineStatistics) -> None:
        self.output_schema = output_schema
        self.statistics = statistics
        self.needs_recapture = False

    # -- lifecycle -------------------------------------------------------------------

    def initialize(self) -> AnnotatedRelation:
        """Build operator state from the current database; return the operator's
        annotated output relation (used by the parent's initialisation)."""
        raise NotImplementedError

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        """Process a database delta and return this operator's output delta."""
        raise NotImplementedError

    def children(self) -> Sequence["IncrementalOperator"]:
        """Child operators."""
        return ()

    # -- bookkeeping ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated memory footprint of this operator's own state."""
        return 0

    def total_memory_bytes(self) -> int:
        """Memory footprint of this operator plus all children."""
        return self.memory_bytes() + sum(c.total_memory_bytes() for c in self.children())

    def recapture_needed(self) -> bool:
        """Whether this operator or any child requires a full recapture."""
        return self.needs_recapture or any(c.recapture_needed() for c in self.children())

    def describe(self) -> str:
        """One-line description for diagnostics."""
        return type(self).__name__


class IncrementalTableAccess(IncrementalOperator):
    """Incremental table access (Sec. 5.2.1).

    Pulls the table's delta out of the database delta, annotates each tuple
    with the range its partition-attribute value belongs to, and optionally
    pre-filters the delta with pushed-down selection conditions (Sec. 7.2,
    "Filtering Deltas Based On Selections").
    """

    def __init__(
        self,
        table: str,
        alias: str,
        base_schema: Schema,
        partition: DatabasePartition,
        provider,
        statistics: EngineStatistics,
        delta_filter: Expression | None = None,
    ) -> None:
        super().__init__(base_schema.qualify(alias), statistics)
        self.table = table.lower()
        self.alias = alias
        self.base_schema = base_schema
        self.partition = partition
        self.provider = provider
        self._delta_filter: Expression | None = None
        self._delta_filter_fn: CompiledBatchExpression | None = None
        self.delta_filter = delta_filter
        self._attribute_index: int | None = None
        if partition.has_table(self.table):
            attribute = partition.partition_of(self.table).attribute
            self._attribute_index = base_schema.index_of(attribute)

    @property
    def delta_filter(self) -> Expression | None:
        """Pushed-down selection applied to fetched delta tuples."""
        return self._delta_filter

    @delta_filter.setter
    def delta_filter(self, expression: Expression | None) -> None:
        # Compile eagerly on assignment: selection push-down installs the
        # filter after construction.
        self._delta_filter = expression
        self._delta_filter_fn = (
            None
            if expression is None
            else compile_batch_predicate(expression, self.output_schema)
        )

    def initialize(self) -> AnnotatedRelation:
        return annotated_scan(self.provider, self.partition, self.table, self.alias)

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        delta = db_delta.get(self.table)
        if not delta:
            return AnnotatedDelta(self.output_schema)
        # Entry order: inserts then deletes, each in the delta's own order.
        entries = list(delta.inserts())
        inserted = len(entries)
        entries.extend(delta.deletes())
        rows, counts = map(list, zip(*entries))
        counts[inserted:] = [-count for count in counts[inserted:]]
        # Annotated below, once the delta filter has dropped what it can.
        output = AnnotatedDelta(self.output_schema, rows, [0] * len(rows), counts)
        fetched = len(output)
        self.statistics.tuples_processed += fetched
        if self._delta_filter_fn is not None:
            output = output.filter(self._delta_filter_fn(output.columns(), len(rows)))
            self.statistics.delta_tuples_filtered += fetched - len(output)
            fetched = len(output)
        self.statistics.delta_tuples_fetched += fetched
        if self._attribute_index is not None:
            position = self._attribute_index
            fragments = self.partition.fragments_of(
                self.table, [row[position] for row in output.rows]
            )
            output.annotations = [
                0 if fragment is None else 1 << fragment for fragment in fragments
            ]
        return output

    def describe(self) -> str:
        suffix = " [delta filter]" if self.delta_filter is not None else ""
        return f"IncTableAccess({self.table}){suffix}"


class IncrementalSelection(IncrementalOperator):
    """Stateless incremental selection (Sec. 5.2.3)."""

    def __init__(
        self,
        child: IncrementalOperator,
        predicate: Expression,
        statistics: EngineStatistics,
    ) -> None:
        super().__init__(child.output_schema, statistics)
        self.child = child
        self.predicate = predicate
        self._predicate_fn = compile_expression(predicate, child.output_schema)
        self._predicate_batch = compile_batch_predicate(predicate, child.output_schema)

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        result = AnnotatedRelation(self.output_schema)
        predicate = self._predicate_fn
        for row, annotation, multiplicity in child.items():
            if predicate(row) is True:
                result.add(row, annotation, multiplicity)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        if not child:
            return child
        self.statistics.tuples_processed += len(child)
        return child.filter(self._predicate_batch(child.columns(), len(child.rows)))

    def describe(self) -> str:
        return f"IncSelection({self.predicate.canonical()})"


class IncrementalProjection(IncrementalOperator):
    """Stateless incremental projection (Sec. 5.2.2)."""

    def __init__(
        self,
        child: IncrementalOperator,
        expressions: Sequence[Expression],
        output_schema: Schema,
        statistics: EngineStatistics,
    ) -> None:
        super().__init__(output_schema, statistics)
        self.child = child
        self.expressions = list(expressions)
        self._project = compile_row_expressions(self.expressions, child.output_schema)
        self._project_batch = [
            compile_batch_expression(expression, child.output_schema)
            for expression in self.expressions
        ]

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        result = AnnotatedRelation(self.output_schema)
        project = self._project
        for row, annotation, multiplicity in child.items():
            result.add(project(row), annotation, multiplicity)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        if not child:
            return AnnotatedDelta(self.output_schema)
        self.statistics.tuples_processed += len(child)
        columns, n = child.columns(), len(child.rows)
        values = [evaluate(columns, n) for evaluate in self._project_batch]
        return child.with_rows(self.output_schema, list(zip(*values)) if values else [()] * n)

    def describe(self) -> str:
        return f"IncProjection({len(self.expressions)} expressions)"


class IncrementalJoin(IncrementalOperator):
    """Incremental join / cross product (Sec. 5.2.4, 7.2).

    The delta of a join combines three terms (using the state of both inputs
    *after* the update, which is what the backend serves)::

        Δ(Q1 ⋈ Q2) = ΔQ1 ⋈ Q2'  ∪  Q1' ⋈ ΔQ2  −  ΔQ1 ⋈ ΔQ2

    Joins of a delta with the full other side are outsourced to the backend
    database (a round trip); Bloom filters on the join attributes prune delta
    tuples without join partners and skip the round trip entirely when nothing
    survives.
    """

    def __init__(
        self,
        left: IncrementalOperator,
        right: IncrementalOperator,
        left_plan: PlanNode,
        right_plan: PlanNode,
        condition: Expression | None,
        equi_keys: tuple[list[str], list[str]] | None,
        provider,
        partition: DatabasePartition,
        statistics: EngineStatistics,
        use_bloom_filters: bool = True,
        bloom_false_positive_rate: float = 0.01,
    ) -> None:
        super().__init__(left.output_schema.concat(right.output_schema), statistics)
        self.left = left
        self.right = right
        self.left_plan = left_plan
        self.right_plan = right_plan
        self.condition = condition
        self._condition_fn = (
            None
            if condition is None
            else compile_expression(condition, self.output_schema)
        )
        self.provider = provider
        self.partition = partition
        self.use_bloom_filters = use_bloom_filters
        self.bloom_false_positive_rate = bloom_false_positive_rate
        # ``row -> join key tuple`` per side; None unless this is an equi-join.
        self._left_key: Callable[[Row], tuple] | None = None
        self._right_key: Callable[[Row], tuple] | None = None
        if equi_keys is not None:
            self._resolve_keys(equi_keys)
        self.left_bloom: BloomFilter | None = None
        self.right_bloom: BloomFilter | None = None

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.left, self.right)

    def _resolve_keys(self, equi_keys: tuple[list[str], list[str]]) -> None:
        first, second = equi_keys
        left_schema, right_schema = self.left.output_schema, self.right.output_schema
        if all(left_schema.has(k) for k in first) and all(right_schema.has(k) for k in second):
            left_keys, right_keys = first, second
        elif all(left_schema.has(k) for k in second) and all(right_schema.has(k) for k in first):
            left_keys, right_keys = second, first
        else:
            return
        self._left_key = compile_row_expressions([ColumnRef(k) for k in left_keys], left_schema)
        self._right_key = compile_row_expressions(
            [ColumnRef(k) for k in right_keys], right_schema
        )

    @property
    def is_equi_join(self) -> bool:
        """Whether the join condition is a conjunction of attribute equalities."""
        return self._left_key is not None

    # -- initialisation -------------------------------------------------------------------

    def initialize(self) -> AnnotatedRelation:
        left = self.left.initialize()
        right = self.right.initialize()
        if self.use_bloom_filters and self.is_equi_join:
            self._build_blooms(left, right)
        return self._join_annotated(left, right)

    def _build_blooms(self, left: AnnotatedRelation, right: AnnotatedRelation) -> None:
        left_keys = {self._left_key(row) for row, _a, _m in left.items()}
        right_keys = {self._right_key(row) for row, _a, _m in right.items()}
        self.left_bloom = BloomFilter(max(len(left_keys), 16), self.bloom_false_positive_rate)
        self.left_bloom.add_all(left_keys)
        self.right_bloom = BloomFilter(max(len(right_keys), 16), self.bloom_false_positive_rate)
        self.right_bloom.add_all(right_keys)

    def _join_annotated(
        self, left: AnnotatedRelation, right: AnnotatedRelation
    ) -> AnnotatedRelation:
        result = AnnotatedRelation(self.output_schema)
        condition = self._condition_fn
        if self.is_equi_join:
            index: dict[tuple, list[tuple[Row, BitSet, int]]] = {}
            for row, annotation, multiplicity in right.items():
                index.setdefault(self._right_key(row), []).append(
                    (row, annotation, multiplicity)
                )
            for row, annotation, multiplicity in left.items():
                for other_row, other_annotation, other_mult in index.get(
                    self._left_key(row), ()
                ):
                    combined = row + other_row
                    if condition is None or condition(combined) is True:
                        result.add(
                            combined, annotation | other_annotation, multiplicity * other_mult
                        )
            return result
        for row, annotation, multiplicity in left.items():
            for other_row, other_annotation, other_mult in right.items():
                combined = row + other_row
                if condition is None or condition(combined) is True:
                    result.add(
                        combined, annotation | other_annotation, multiplicity * other_mult
                    )
        return result

    # -- delta processing -------------------------------------------------------------------

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        left_delta = self.left.process(db_delta)
        right_delta = self.right.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not left_delta and not right_delta:
            return output

        # Refresh the Bloom filters with this batch's insertions FIRST: the
        # backend already holds the new state of both sides, so a delta tuple
        # may join with a row inserted on the other side within the same batch.
        # Pruning against stale filters would drop those combinations from the
        # ΔQ1 ⋈ Q2' / Q1' ⋈ ΔQ2 terms while the ΔQ1 ⋈ ΔQ2 correction still
        # subtracts them, breaking the over-approximation guarantee.
        self._update_bloom(self.left_bloom, left_delta, self._left_key)
        self._update_bloom(self.right_bloom, right_delta, self._right_key)
        # An insert and a delete of the same annotated tuple cancel before
        # anything is probed, shipped or joined.
        left_delta = left_delta.consolidated()
        right_delta = right_delta.consolidated()

        # Term A: ΔQ1 ⋈ Q2' (outsourced to the backend database).
        surviving = self._bloom_filter(left_delta, self._left_key, self.right_bloom)
        if surviving:
            self.statistics.tuples_processed += len(surviving)
            right_state = self._evaluate_side(self.right_plan, len(surviving.rows))
            self._join_pairs(surviving, _masked(right_state), output, delta_on_left=True)
        # Term B: Q1' ⋈ ΔQ2.
        surviving = self._bloom_filter(right_delta, self._right_key, self.left_bloom)
        if surviving:
            self.statistics.tuples_processed += len(surviving)
            left_state = self._evaluate_side(self.left_plan, len(surviving.rows))
            self._join_pairs(surviving, _masked(left_state), output, delta_on_left=False)
        # Term C: − ΔQ1 ⋈ ΔQ2 (computed in memory; corrects double counting).
        if left_delta and right_delta:
            negated = AnnotatedDelta(
                left_delta.schema,
                left_delta.rows,
                left_delta.annotations,
                [-count for count in left_delta.counts],
            )
            self._join_pairs(negated, right_delta.entries(), output, delta_on_left=True)
        # Entries of opposite sign cancel across the three terms.
        return output.consolidated()

    def _bloom_filter(
        self,
        delta: AnnotatedDelta,
        key: Callable[[Row], tuple] | None,
        other_bloom: BloomFilter | None,
    ) -> AnnotatedDelta:
        if not delta or not self.use_bloom_filters or other_bloom is None or key is None:
            return delta
        # Delta tuples share join keys: probe the filter once per distinct key.
        keys = list(map(key, delta.rows))
        passes = {k: k in other_bloom for k in set(keys)}
        surviving = delta.filter([passes[k] for k in keys])
        self.statistics.bloom_filtered_tuples += len(delta) - len(surviving)
        return surviving

    def _evaluate_side(self, plan: PlanNode, shipped: int) -> AnnotatedRelation:
        self.statistics.backend_round_trips += 1
        self.statistics.tuples_shipped_to_backend += shipped
        return AnnotatedEvaluator(self.provider, self.partition).evaluate(plan)

    def _join_pairs(
        self,
        delta: AnnotatedDelta,
        other: Iterable[tuple[Row, int, int]],
        output: AnnotatedDelta,
        delta_on_left: bool,
    ) -> None:
        """Append every combination of a delta tuple with an ``other`` tuple
        that satisfies the join condition.  An equi-join probes a hash index
        of ``other``, so only key matches are ever materialised."""
        if self.is_equi_join:
            delta_key, other_key = self._left_key, self._right_key
            if not delta_on_left:
                delta_key, other_key = other_key, delta_key
            index: dict[tuple, list[tuple[Row, int, int]]] = {}
            for entry in other:
                index.setdefault(other_key(entry[0]), []).append(entry)
            partners = [index.get(key, ()) for key in map(delta_key, delta.rows)]
        else:
            partners = [list(other)] * len(delta.rows)
        condition, append = self._condition_fn, output.append
        for (row, annotation, count), matches in zip(delta.entries(), partners):
            for other_row, other_annotation, multiplicity in matches:
                joined = row + other_row if delta_on_left else other_row + row
                if condition is None or condition(joined) is True:
                    append(joined, annotation | other_annotation, count * multiplicity)

    def _update_bloom(
        self,
        bloom: BloomFilter | None,
        delta: AnnotatedDelta,
        key: Callable[[Row], tuple] | None,
    ) -> None:
        if bloom is None or key is None or not self.use_bloom_filters:
            return
        bloom.add_all({key(row) for row, count in zip(delta.rows, delta.counts) if count > 0})

    def memory_bytes(self) -> int:
        total = 0
        if self.left_bloom is not None:
            total += self.left_bloom.byte_size()
        if self.right_bloom is not None:
            total += self.right_bloom.byte_size()
        return total

    def describe(self) -> str:
        kind = "equi" if self.is_equi_join else ("cross" if self.condition is None else "theta")
        return f"IncJoin({kind}, bloom={'on' if self.use_bloom_filters else 'off'})"


class IncrementalAggregation(IncrementalOperator):
    """Incremental group-by aggregation (Sec. 5.2.5, 5.2.6)."""

    def __init__(
        self,
        child: IncrementalOperator,
        group_by: Sequence[Expression],
        aggregates: Sequence[Aggregate],
        output_schema: Schema,
        statistics: EngineStatistics,
        min_max_buffer: int | None = None,
    ) -> None:
        super().__init__(output_schema, statistics)
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.min_max_buffer = min_max_buffer
        self.state = AggregationState()
        child_schema = child.output_schema
        self._group_key = compile_row_expressions(self.group_by, child_schema)
        # COUNT(*) has no argument; a constant placeholder keeps the value
        # tuple aligned with the accumulators (CountStarAccumulator ignores it).
        self._argument_values = compile_row_expressions(
            [
                Literal(0) if aggregate.argument is None else aggregate.argument
                for aggregate in self.aggregates
            ],
            child_schema,
        )

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def _accumulator_factory(self) -> Callable[[], list]:
        def factory() -> list:
            return [
                make_accumulator(
                    aggregate.function,
                    aggregate.argument is not None,
                    self.min_max_buffer,
                )
                for aggregate in self.aggregates
            ]

        return factory

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        factory = self._accumulator_factory()
        for row, annotation, multiplicity in child.items():
            key = self._group_key(row)
            group = self.state.get_or_create(key, factory)
            group.apply(self._argument_values(row), annotation.mask, multiplicity)
        result = AnnotatedRelation(self.output_schema)
        for group in self.state:
            result.add(group.key + group.output_values(), group.sketch(), 1)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        self.statistics.tuples_processed += len(child)
        state = self.state
        factory = self._accumulator_factory()
        # Output values and sketch mask each touched group had before the batch
        # (None: the group produced no output tuple).
        snapshots: dict[tuple, tuple[tuple, int] | None] = {}
        for key, values, annotation, count in zip(
            map(self._group_key, child.rows),
            map(self._argument_values, child.rows),
            child.annotations,
            child.counts,
        ):
            group = state.get_or_create(key, factory)
            if key not in snapshots:
                snapshots[key] = (
                    (group.output_values(), group.mask)
                    if group.exists and not group.exhausted()
                    else None
                )
            group.apply(values, annotation, count)
        for key, snapshot in snapshots.items():
            group = state.groups[key]
            exhausted = group.exhausted()
            if exhausted:
                self.needs_recapture = True
            if snapshot is not None:
                output.append(key + snapshot[0], snapshot[1], -1)
            if not group.exists:
                state.drop(key)
            elif not exhausted:
                output.append(key + group.output_values(), group.mask, 1)
        return output

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        aggregates = ", ".join(repr(a) for a in self.aggregates)
        return f"IncAggregation({aggregates})"


class IncrementalDistinct(IncrementalOperator):
    """Incremental duplicate elimination (``δ``), kept as per-row counts."""

    def __init__(self, child: IncrementalOperator, statistics: EngineStatistics) -> None:
        super().__init__(child.output_schema, statistics)
        self.child = child
        self.state = DistinctState()

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        for row, annotation, multiplicity in child.items():
            self.state.get_or_create(row).apply((), annotation.mask, multiplicity)
        result = AnnotatedRelation(self.output_schema)
        for row, group in self.state.rows.items():
            result.add(row, group.sketch(), 1)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        self.statistics.tuples_processed += len(child)
        # Sketch mask each touched row had before the batch (None: absent).
        snapshots: dict[Row, int | None] = {}
        for row, annotation, count in child.entries():
            group = self.state.get_or_create(row)
            if row not in snapshots:
                snapshots[row] = group.mask if group.exists else None
            group.apply((), annotation, count)
        for row, old_mask in snapshots.items():
            group = self.state.rows[row]
            if old_mask is not None:
                output.append(row, old_mask, -1)
            if group.exists:
                output.append(row, group.mask, 1)
            else:
                self.state.drop(row)
        return output

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()


class IncrementalTopK(IncrementalOperator):
    """Incremental top-k (Sec. 5.2.7, with the top-``l`` buffer of Sec. 7.2)."""

    def __init__(
        self,
        child: IncrementalOperator,
        k: int,
        order_by: Sequence[OrderItem],
        statistics: EngineStatistics,
        buffer_limit: int | None = None,
    ) -> None:
        super().__init__(child.output_schema, statistics)
        self.child = child
        self.k = k
        self.order_by = list(order_by)
        if buffer_limit is not None and buffer_limit < k:
            buffer_limit = k
        self.buffer_limit = buffer_limit
        self.state = TopKState(buffer_limit)
        self._sort_key = make_order_key(
            self.order_by,
            [
                compile_expression(item.expression, child.output_schema)
                for item in self.order_by
            ],
        )

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        entries = sorted(child.items(), key=lambda entry: self._sort_key(entry[0]))
        remaining = self.buffer_limit
        for row, annotation, multiplicity in entries:
            if remaining is None:
                self.state.add(self._sort_key(row), row, annotation.mask, multiplicity)
                continue
            if remaining > 0:
                take = min(multiplicity, remaining)
                self.state.add(self._sort_key(row), row, annotation.mask, take)
                remaining -= take
                overflow = multiplicity - take
            else:
                overflow = multiplicity
            self.state.overflow_count += overflow
        result = AnnotatedRelation(self.output_schema)
        for row, annotation, multiplicity in self.state.top_k(self.k):
            result.add(row, BitSet.from_mask(annotation), multiplicity)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        self.statistics.tuples_processed += len(child)
        state = self.state
        old_top = state.top_k(self.k) if state.can_answer(self.k) else []
        for sort_key, row, annotation, count in zip(
            map(self._sort_key, child.rows), child.rows, child.annotations, child.counts
        ):
            if count > 0:
                state.add(sort_key, row, annotation, count)
            else:
                state.remove(sort_key, row, annotation, -count)
        if not state.can_answer(self.k):
            self.needs_recapture = True
            return output
        old_bag = _to_bag(old_top)
        new_bag = _to_bag(state.top_k(self.k))
        for (row, annotation), multiplicity in old_bag.items():
            dropped = multiplicity - new_bag.get((row, annotation), 0)
            if dropped > 0:
                output.append(row, annotation, -dropped)
        for (row, annotation), multiplicity in new_bag.items():
            added = multiplicity - old_bag.get((row, annotation), 0)
            if added > 0:
                output.append(row, annotation, added)
        return output

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        buffer = self.buffer_limit if self.buffer_limit is not None else "all"
        return f"IncTopK(k={self.k}, buffer={buffer})"


def _masked(relation: AnnotatedRelation) -> Iterator[tuple[Row, int, int]]:
    """The relation's ``(row, annotation mask, multiplicity)`` triples."""
    return ((row, annotation.mask, m) for row, annotation, m in relation.items())


def _to_bag(entries: list[tuple[Row, int, int]]) -> dict[tuple[Row, int], int]:
    bag: dict[tuple[Row, int], int] = {}
    for row, annotation, multiplicity in entries:
        key = (row, annotation)
        bag[key] = bag.get(key, 0) + multiplicity
    return bag


class MergeOperator(IncrementalOperator):
    """The merge operator ``μ`` turning result deltas into sketch deltas (Sec. 5.1)."""

    def __init__(self, child: IncrementalOperator, statistics: EngineStatistics) -> None:
        super().__init__(child.output_schema, statistics)
        self.child = child
        self.state = MergeState()

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def initialize(self) -> AnnotatedRelation:
        child = self.child.initialize()
        self.state.apply(
            (annotation.mask, multiplicity) for _row, annotation, multiplicity in child.items()
        )
        return child

    def current_fragments(self) -> set[int]:
        """The fragments currently justified by at least one result tuple."""
        return self.state.active_fragments()

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:  # pragma: no cover
        raise NotImplementedError("use process_to_sketch_delta for the merge operator")

    def process_to_sketch_delta(self, db_delta: DatabaseDelta) -> SketchDelta:
        """Process a database delta and return the resulting sketch delta."""
        child = self.child.process(db_delta)
        return SketchDelta(*self.state.apply(zip(child.annotations, child.counts)))

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()
