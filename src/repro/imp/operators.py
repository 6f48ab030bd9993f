"""Incremental relational algebra operators over sketch-annotated deltas.

Each operator implements the incremental semantics of Sec. 5.2 of the paper
as one transformation: it consumes the annotated delta produced by its child
(or the database, for table access), updates its internal state, and produces
an annotated output delta.  The merge operator ``μ`` at the root turns the
final annotated delta into a sketch delta.

Operators are arranged in a tree mirroring the logical plan, and a
:class:`Pass` is one bottom-up run of that tree.  There are two kinds, and
they share every line of operator code but the join's choice of terms and
the row a scalar aggregate has over empty input:

* a *delta pass* propagates a :class:`~repro.storage.delta.DatabaseDelta`
  through state built earlier (incremental maintenance);
* a *from-scratch pass* propagates the whole database as one insert delta
  through empty state.  That is the paper's capture query: it fills the state
  of every stateful operator and its output at ``μ`` is the sketch, so it
  serves state initialisation, sketch capture, the full-maintenance baseline
  and the side of a join the paper outsources to the backend.

Annotations are plain ``int`` fragment masks throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

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


@dataclass
class Pass:
    """One bottom-up run of an operator tree.

    ``Pass(db_delta, statistics)`` is a *delta pass*: it propagates a database
    delta through existing state and counts its work into ``statistics``.
    ``Pass.scratch()`` is a *from-scratch pass*: every table access emits its
    whole table as an insert delta, which is only meaningful on empty state.
    The counters measure delta work, so it counts into a throwaway object.
    """

    db_delta: DatabaseDelta | None
    statistics: EngineStatistics

    @classmethod
    def scratch(cls) -> "Pass":
        """A from-scratch pass."""
        return cls(None, EngineStatistics())

    @property
    def from_scratch(self) -> bool:
        """Whether the pass reads the whole database instead of a delta."""
        return self.db_delta is None


class IncrementalOperator:
    """Base class of incremental operators."""

    def __init__(self, output_schema: Schema) -> None:
        self.output_schema = output_schema
        self.needs_recapture = False

    # -- lifecycle -------------------------------------------------------------------

    def process(self, run: Pass) -> AnnotatedDelta:
        """Turn the child's output for this pass into this operator's output
        delta, updating operator state on the way."""
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

    Reads the table's delta out of the database delta -- or, on a from-scratch
    pass, the whole table as an insert delta -- pre-filters it with pushed-down
    selection conditions (Sec. 7.2, "Filtering Deltas Based On Selections") and
    annotates each surviving tuple with the range its partition-attribute
    value belongs to.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        base_schema: Schema,
        partition: DatabasePartition,
        provider,
        delta_filter: Expression | None = None,
    ) -> None:
        super().__init__(base_schema.qualify(alias))
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

    def process(self, run: Pass) -> AnnotatedDelta:
        # Entry order: table order from scratch; otherwise inserts then
        # deletes, each in the delta's own order.
        if run.from_scratch:
            entries = list(self.provider.relation(self.table).items())
            inserted = len(entries)
        else:
            delta = run.db_delta.get(self.table)
            if not delta:
                return AnnotatedDelta(self.output_schema)
            entries = list(delta.inserts())
            inserted = len(entries)
            entries.extend(delta.deletes())
        if not entries:
            return AnnotatedDelta(self.output_schema)
        rows, counts = map(list, zip(*entries))
        counts[inserted:] = [-count for count in counts[inserted:]]
        # Annotated below, once the delta filter has dropped what it can.
        output = AnnotatedDelta(self.output_schema, rows, [0] * len(rows), counts)
        fetched = len(output)
        run.statistics.tuples_processed += fetched
        if self._delta_filter_fn is not None:
            output = output.filter(self._delta_filter_fn(output.columns(), len(rows)))
            run.statistics.delta_tuples_filtered += fetched - len(output)
            fetched = len(output)
        run.statistics.delta_tuples_fetched += fetched
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

    def __init__(self, child: IncrementalOperator, predicate: Expression) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.predicate = predicate
        self._predicate_batch = compile_batch_predicate(predicate, child.output_schema)

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        if not child:
            return child
        run.statistics.tuples_processed += len(child)
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
    ) -> None:
        super().__init__(output_schema)
        self.child = child
        self.expressions = list(expressions)
        self._project_batch = [
            compile_batch_expression(expression, child.output_schema)
            for expression in self.expressions
        ]

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        if not child:
            return AnnotatedDelta(self.output_schema)
        run.statistics.tuples_processed += len(child)
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
    survives.  The backend's answer is a from-scratch pass over a throwaway
    operator tree for the side's plan (``compile_side``).

    On a from-scratch pass the old state of both sides is empty, ``Q1' = ΔQ1``
    and ``Q2' = ΔQ2``, so the three terms collapse to ``ΔQ1 ⋈ ΔQ2`` and no
    round trip is needed.
    """

    def __init__(
        self,
        left: IncrementalOperator,
        right: IncrementalOperator,
        left_plan: PlanNode,
        right_plan: PlanNode,
        condition: Expression | None,
        equi_keys: tuple[list[str], list[str]] | None,
        compile_side: Callable[[PlanNode], IncrementalOperator],
        use_bloom_filters: bool = True,
        bloom_false_positive_rate: float = 0.01,
    ) -> None:
        super().__init__(left.output_schema.concat(right.output_schema))
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
        self._compile_side = compile_side
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

    def process(self, run: Pass) -> AnnotatedDelta:
        left_delta = self.left.process(run)
        right_delta = self.right.process(run)
        output = AnnotatedDelta(self.output_schema)
        if run.from_scratch:
            # The old state is ∅: the child outputs are the complete sides, so
            # they seed the filters and ΔQ1 ⋈ ΔQ2 is the whole join.
            self.left_bloom = self._seed_bloom(left_delta, self._left_key)
            self.right_bloom = self._seed_bloom(right_delta, self._right_key)
            self._join_pairs(left_delta, right_delta.entries(), output, delta_on_left=True)
            return output
        if not left_delta and not right_delta:
            return output

        # Refresh the Bloom filters with this batch's insertions FIRST: the
        # backend already holds the new state of both sides, so a delta tuple
        # may join with a row inserted on the other side within the same batch.
        # Pruning against stale filters would drop those combinations from the
        # ΔQ1 ⋈ Q2' / Q1' ⋈ ΔQ2 terms while the ΔQ1 ⋈ ΔQ2 correction still
        # subtracts them, breaking the over-approximation guarantee.
        if self.left_bloom is not None:
            self.left_bloom.add_all(_inserted_keys(left_delta, self._left_key))
        if self.right_bloom is not None:
            self.right_bloom.add_all(_inserted_keys(right_delta, self._right_key))
        # An insert and a delete of the same annotated tuple cancel before
        # anything is probed, shipped or joined.
        left_delta = left_delta.consolidated()
        right_delta = right_delta.consolidated()

        # A filter missing here (persisted state carries none) is seeded from
        # the first evaluation of its side, which is that side's whole state.
        # Term A: ΔQ1 ⋈ Q2' (outsourced to the backend database).
        surviving = self._bloom_filter(left_delta, self._left_key, self.right_bloom, run)
        if surviving:
            right_state = self._evaluate_side(self.right_plan, surviving, run)
            if self.right_bloom is None:
                self.right_bloom = self._seed_bloom(right_state, self._right_key)
            self._join_pairs(surviving, right_state.entries(), output, delta_on_left=True)
        # Term B: Q1' ⋈ ΔQ2.
        surviving = self._bloom_filter(right_delta, self._right_key, self.left_bloom, run)
        if surviving:
            left_state = self._evaluate_side(self.left_plan, surviving, run)
            if self.left_bloom is None:
                self.left_bloom = self._seed_bloom(left_state, self._left_key)
            self._join_pairs(surviving, left_state.entries(), output, delta_on_left=False)
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

    def _seed_bloom(
        self, side: AnnotatedDelta, key: Callable[[Row], tuple] | None
    ) -> BloomFilter | None:
        """A filter over the join keys of one side's whole state."""
        if key is None or not self.use_bloom_filters:
            return None
        keys = _inserted_keys(side, key)
        bloom = BloomFilter(max(len(keys), 16), self.bloom_false_positive_rate)
        bloom.add_all(keys)
        return bloom

    def _bloom_filter(
        self,
        delta: AnnotatedDelta,
        key: Callable[[Row], tuple] | None,
        other_bloom: BloomFilter | None,
        run: Pass,
    ) -> AnnotatedDelta:
        if not delta or other_bloom is None:
            return delta
        # Delta tuples share join keys: probe the filter once per distinct key.
        keys = list(map(key, delta.rows))
        passes = {k: k in other_bloom for k in set(keys)}
        surviving = delta.filter([passes[k] for k in keys])
        run.statistics.bloom_filtered_tuples += len(delta) - len(surviving)
        return surviving

    def _evaluate_side(
        self, plan: PlanNode, shipped: AnnotatedDelta, run: Pass
    ) -> AnnotatedDelta:
        """The current result of one side's plan, to join ``shipped`` with:
        a from-scratch pass over a throwaway operator tree."""
        run.statistics.tuples_processed += len(shipped)
        run.statistics.backend_round_trips += 1
        run.statistics.tuples_shipped_to_backend += len(shipped.rows)
        return self._compile_side(plan).process(Pass.scratch())

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


def _inserted_keys(delta: AnnotatedDelta, key: Callable[[Row], tuple]) -> set[tuple]:
    """The join keys of the delta's insertions."""
    return {key(row) for row, count in zip(delta.rows, delta.counts) if count > 0}


class IncrementalAggregation(IncrementalOperator):
    """Incremental group-by aggregation (Sec. 5.2.5, 5.2.6)."""

    def __init__(
        self,
        child: IncrementalOperator,
        group_by: Sequence[Expression],
        aggregates: Sequence[Aggregate],
        output_schema: Schema,
        min_max_buffer: int | None = None,
    ) -> None:
        super().__init__(output_schema)
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
        # The aggregates over no input tuples: what new accumulators report.
        self._over_nothing = tuple(
            accumulator.result() for accumulator in self._new_accumulators()
        )

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def _new_accumulators(self) -> list:
        return [
            make_accumulator(
                aggregate.function, aggregate.argument is not None, self.min_max_buffer
            )
            for aggregate in self.aggregates
        ]

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        output = AnnotatedDelta(self.output_schema)
        # Without GROUP BY the single group ``()`` is part of the result even
        # over empty input, as ``_over_nothing`` annotated with no fragment.
        # It is not stored: an absent group stands for it.
        scalar = not self.group_by
        if not child:
            if scalar and run.from_scratch:
                output.append(self._over_nothing, 0, 1)
            return output
        run.statistics.tuples_processed += len(child)
        state = self.state
        factory = self._new_accumulators
        # Output values and sketch mask each touched group had before the batch
        # (None: the group produced no output tuple).  From scratch nothing was
        # produced before, not even the scalar group.
        absent = (self._over_nothing, 0) if scalar and not run.from_scratch else None
        snapshots: dict[tuple, tuple[tuple, int] | None] = {}
        for key, values, annotation, count in zip(
            map(self._group_key, child.rows),
            map(self._argument_values, child.rows),
            child.annotations,
            child.counts,
        ):
            group = state.get_or_create(key, factory)
            if key not in snapshots:
                if not group.exists:
                    snapshots[key] = absent
                elif group.exhausted():
                    snapshots[key] = None
                else:
                    snapshots[key] = (group.output_values(), group.mask)
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
                if scalar:
                    output.append(self._over_nothing, 0, 1)
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

    def __init__(self, child: IncrementalOperator) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.state = DistinctState()

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        run.statistics.tuples_processed += len(child)
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
        buffer_limit: int | None = None,
    ) -> None:
        super().__init__(child.output_schema)
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

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        run.statistics.tuples_processed += len(child)
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


def _to_bag(entries: list[tuple[Row, int, int]]) -> dict[tuple[Row, int], int]:
    bag: dict[tuple[Row, int], int] = {}
    for row, annotation, multiplicity in entries:
        key = (row, annotation)
        bag[key] = bag.get(key, 0) + multiplicity
    return bag


class MergeOperator(IncrementalOperator):
    """The merge operator ``μ`` turning result deltas into sketch deltas (Sec. 5.1)."""

    def __init__(self, child: IncrementalOperator) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.state = MergeState()

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def current_fragments(self) -> set[int]:
        """The fragments currently justified by at least one result tuple."""
        return self.state.active_fragments()

    def process(self, run: Pass) -> AnnotatedDelta:  # pragma: no cover
        raise NotImplementedError("use process_to_sketch_delta for the merge operator")

    def process_to_sketch_delta(self, run: Pass) -> SketchDelta:
        """Run one pass over the tree and return the resulting sketch delta."""
        child = self.child.process(run)
        return SketchDelta(*self.state.apply(zip(child.annotations, child.counts)))

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()
