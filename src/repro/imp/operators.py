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
  and the *first* evaluation of a join side -- the paper's round trip to the
  backend.  A join keeps what that returns as a key index and brings it
  forward by the side's own deltas, so no delta pass after it reads a whole
  table again.

Annotations are plain ``int`` fragment masks throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter

from repro.core.bloom import BloomFilter
from repro.core.errors import AggregateError
from repro.relational.algebra import Aggregate, OrderItem, PlanNode
from repro.relational.expressions import (
    CompiledBatchExpression,
    Expression,
    compile_batch_expression,
    strict_boolean,
)
from repro.relational.kernels import order_keys, over_nothing
from repro.relational.schema import Row, Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import SketchDelta
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import AggregationState, JoinSideState, MergeState, TopKState


def compile_batch_predicate(
    predicate: Expression, schema: Schema
) -> CompiledBatchExpression:
    """Batch form of a selection predicate whose value column can drive
    :func:`itertools.compress`: true exactly where the predicate ``is True``."""
    evaluate = compile_batch_expression(predicate, schema)
    if strict_boolean(predicate):
        return evaluate
    return lambda columns, n: [value is True for value in evaluate(columns, n)]


def _row_tuples(value_columns: list[list], n: int) -> Iterable[tuple]:
    """The ``n`` entries of parallel value columns as tuples (``()`` each when
    there is no column)."""
    return zip(*value_columns) if value_columns else [()] * n


@dataclass
class EngineStatistics:
    """Counters collected while maintaining a sketch.

    These drive the optimization experiments: how many delta tuples were
    fetched from the backend, how many were pruned by selection push-down or
    Bloom filters, and how often a join had to evaluate a whole side.

    ``backend_round_trips`` counts join-side builds: a join evaluates a side
    from scratch the first time a delta tuple of the other side gets past the
    side's Bloom filter, and keeps the result, so between two
    (re)initialisations of an engine the counter is bounded by the number of
    join sides in its plan.  ``tuples_shipped_to_backend`` counts the delta
    tuples that were looking for partners when those builds happened;
    ``bloom_filtered_tuples`` the ones a filter pruned while its side was not
    built yet (a built side answers exactly and needs no filter).
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

    ``Pass(db_delta, statistics, version)`` is a *delta pass*: it propagates a
    database delta through existing state, bringing it to ``version`` (the
    delta covers every commit up to it), and counts its work into
    ``statistics``.  ``Pass.scratch(version)`` is a *from-scratch pass*: every
    table access emits its whole table as of ``version`` as an insert delta,
    which is only meaningful on empty state.  The counters measure delta
    work, so a from-scratch pass counts into a throwaway object.

    Either way nothing newer than ``version`` is read: a commit that lands
    while the pass runs is left, whole, to the next delta.
    """

    db_delta: DatabaseDelta | None
    statistics: EngineStatistics
    version: int

    @classmethod
    def scratch(cls, version: int) -> "Pass":
        """A from-scratch pass over the database as of ``version``."""
        return cls(None, EngineStatistics(), version)

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
    pass, the whole table as of the pass's version as an insert delta --
    pre-filters it with pushed-down selection conditions (Sec. 7.2, "Filtering
    Deltas Based On Selections") and annotates each surviving tuple with the
    range its partition-attribute value belongs to.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        base_schema: Schema,
        partition: DatabasePartition,
        database: Database,
        delta_filter: Expression | None = None,
    ) -> None:
        super().__init__(base_schema.qualify(alias))
        self.table = table.lower()
        self.alias = alias
        self.base_schema = base_schema
        self.partition = partition
        self.database = database
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
            table = self.database.snapshot_relation(self.table, run.version)
            rows = list(table.distinct_rows())
            counts = list(map(itemgetter(1), table.items()))
        else:
            delta = run.db_delta.get(self.table)
            rows, counts = delta.signed_entries() if delta else ([], [])
        if not rows:
            return AnnotatedDelta(self.output_schema)
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
        return child.with_rows(self.output_schema, list(_row_tuples(values, n)))

    def describe(self) -> str:
        return f"IncProjection({len(self.expressions)} expressions)"


@dataclass
class JoinSide:
    """One input of an incremental join: the plan that computes it, the join
    key of its rows (``()`` for every row of a theta or cross join) and what
    the join keeps of its current result."""

    plan: PlanNode
    key: Callable[[Row], tuple]
    state: JoinSideState = field(default_factory=JoinSideState)


def _no_key(_row: Row) -> tuple:
    return ()


# Candidate pairs a join hands to its condition at a time: enough to amortise
# a kernel call, few enough that a batch's tuples stay cache-resident (theta
# capture over 1500 x 1500 rows: 0.9 s at 512, 1.35 s at 4096).
_PAIR_BATCH = 512


def _key_getter(schema: Schema, names: Sequence[str]) -> Callable[[Row], tuple]:
    """``row -> join key tuple`` over the named attributes (at least one)."""
    positions = [schema.index_of(name) for name in names]
    if len(positions) > 1:
        return itemgetter(*positions)
    (position,) = positions
    return lambda row: (row[position],)


class IncrementalJoin(IncrementalOperator):
    """Incremental join / cross product (Sec. 5.2.4, 7.2).

    The delta of a join combines three terms, using the state of both inputs
    *after* the update::

        Δ(Q1 ⋈ Q2) = ΔQ1 ⋈ Q2'  ∪  Q1' ⋈ ΔQ2  −  ΔQ1 ⋈ ΔQ2

    Each side's ``Q'`` is a :class:`~repro.imp.state.JoinSideState`.  While no
    delta tuple of the other side has needed a partner, the side is only
    summarised by a Bloom filter on its join keys, which prunes delta tuples
    without partners and costs nothing when everything is pruned.  The first
    surviving delta tuple makes the join evaluate the side once -- the paper's
    round trip to the backend: a from-scratch pass, as of the delta pass's
    version, over a throwaway operator tree for the side's plan
    (``compile_side``) -- and keep the result as a key index.  From then on
    every delta pass first brings the index forward by the side's own child
    delta, and terms A and B are key probes of it: a round costs
    ``O(|Δ| · fan-out)``, whatever the size of the sides.

    On a from-scratch pass the old state of both sides is empty, ``Q1' = ΔQ1``
    and ``Q2' = ΔQ2``, so the three terms collapse to ``ΔQ1 ⋈ ΔQ2``; the two
    child outputs, being the complete sides, seed the filters.
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
        self.condition = condition
        self._condition_batch = (
            None
            if condition is None
            else compile_batch_predicate(condition, self.output_schema)
        )
        self._compile_side = compile_side
        self.use_bloom_filters = use_bloom_filters
        self.bloom_false_positive_rate = bloom_false_positive_rate
        keys = None if equi_keys is None else self._resolve_keys(equi_keys)
        # Whether the condition is a conjunction of attribute equalities.
        self.is_equi_join = keys is not None
        left_key, right_key = keys or (_no_key, _no_key)
        self.sides = (JoinSide(left_plan, left_key), JoinSide(right_plan, right_key))

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.left, self.right)

    def _resolve_keys(
        self, equi_keys: tuple[list[str], list[str]]
    ) -> tuple[Callable[[Row], tuple], Callable[[Row], tuple]] | None:
        """``row -> join key tuple`` for the left and the right input."""
        first, second = equi_keys
        left_schema, right_schema = self.left.output_schema, self.right.output_schema
        if all(left_schema.has(k) for k in first) and all(right_schema.has(k) for k in second):
            left_keys, right_keys = first, second
        elif all(left_schema.has(k) for k in second) and all(right_schema.has(k) for k in first):
            left_keys, right_keys = second, first
        else:
            return None
        return _key_getter(left_schema, left_keys), _key_getter(right_schema, right_keys)

    def forget_sides(self) -> None:
        """Drop what is kept of both sides (filters and indexes are derived
        from the database; the next delta pass rebuilds what it needs)."""
        for side in self.sides:
            side.state = JoinSideState()

    def process(self, run: Pass) -> AnnotatedDelta:
        left, right = self.sides
        left_delta = self.left.process(run)
        right_delta = self.right.process(run)
        output = AnnotatedDelta(self.output_schema)
        if run.from_scratch:
            # The old state is ∅: the child outputs are the complete sides, so
            # they seed the filters and ΔQ1 ⋈ ΔQ2 is the whole join.
            if self.is_equi_join and self.use_bloom_filters:
                for side, whole in ((left, left_delta), (right, right_delta)):
                    side.state.summarise(side.key, whole, self.bloom_false_positive_rate)
            self._join_pairs(
                left_delta, left.key, _indexed(right_delta, right.key), output, True
            )
            return output
        if not left_delta and not right_delta:
            return output
        # An insert and a delete of the same annotated tuple cancel before
        # anything is probed, shipped or joined.
        left_delta = left_delta.consolidated()
        right_delta = right_delta.consolidated()
        # Bring both sides forward FIRST: terms A and B join with the *new*
        # state of the other side, so a delta tuple may join with a row that
        # arrives on the other side within the same batch.  Probing (or
        # pruning against) the old state would drop those combinations while
        # the ΔQ1 ⋈ ΔQ2 correction still subtracts them, breaking the
        # over-approximation guarantee.
        left.state.apply(left.key, left_delta)
        right.state.apply(right.key, right_delta)
        # Term A: ΔQ1 ⋈ Q2'.
        self._join_with_side(left_delta, left.key, right, output, run, delta_on_left=True)
        # Term B: Q1' ⋈ ΔQ2.
        self._join_with_side(right_delta, right.key, left, output, run, delta_on_left=False)
        # Term C: − ΔQ1 ⋈ ΔQ2 (corrects double counting).
        if left_delta and right_delta:
            negated = AnnotatedDelta(
                left_delta.schema,
                left_delta.rows,
                left_delta.annotations,
                [-count for count in left_delta.counts],
            )
            self._join_pairs(
                negated, left.key, _indexed(right_delta, right.key), output, True
            )
        # Entries of opposite sign cancel across the three terms.
        return output.consolidated()

    def _join_with_side(
        self,
        delta: AnnotatedDelta,
        delta_key: Callable[[Row], tuple],
        other: JoinSide,
        output: AnnotatedDelta,
        run: Pass,
        delta_on_left: bool,
    ) -> None:
        """Append ``delta`` joined with the new state of the ``other`` side,
        materialising that side if a delta tuple gets past its filter."""
        state = other.state
        if state.buckets is None:
            delta = self._bloom_filter(delta, delta_key, state.bloom, run)
            if delta:
                state.materialise(other.key, self._evaluate_side(other.plan, delta, run))
        if delta:
            run.statistics.tuples_processed += len(delta)
            self._join_pairs(delta, delta_key, state.buckets, output, delta_on_left)

    def _bloom_filter(
        self,
        delta: AnnotatedDelta,
        key: Callable[[Row], tuple],
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
        """The whole result of one side's plan as of the pass's version, for
        ``shipped`` to find partners in: a from-scratch pass over a throwaway
        operator tree.  Only called to materialise a side."""
        run.statistics.backend_round_trips += 1
        run.statistics.tuples_shipped_to_backend += len(shipped.rows)
        return self._compile_side(plan).process(Pass.scratch(run.version))

    def _join_pairs(
        self,
        delta: AnnotatedDelta,
        delta_key: Callable[[Row], tuple],
        buckets: dict[tuple, dict[tuple[Row, int], int]],
        output: AnnotatedDelta,
        delta_on_left: bool,
    ) -> None:
        """Append every combination of a delta tuple with a tuple in its join
        key's bucket that satisfies the join condition.

        The condition filters the candidate pairs a batch at a time, and at
        most ``_PAIR_BATCH`` of them exist at once: a theta join's only
        bucket is the whole other side, so a term has ``|Δ| · |side|``
        candidates however few survive."""
        condition = self._condition_batch
        candidates = self._candidate_pairs(delta, delta_key, buckets, delta_on_left)
        while batch := list(islice(candidates, _PAIR_BATCH)):
            if condition is not None:
                columns = list(zip(*[joined for joined, _annotation, _count in batch]))
                batch = compress(batch, condition(columns, len(batch)))
            for entry in batch:
                output.append(*entry)

    @staticmethod
    def _candidate_pairs(
        delta: AnnotatedDelta,
        delta_key: Callable[[Row], tuple],
        buckets: dict[tuple, dict[tuple[Row, int], int]],
        delta_on_left: bool,
    ) -> Iterator[tuple[Row, int, int]]:
        """``(joined row, annotation, count)`` of every delta tuple with every
        tuple in its join key's bucket, delta order then bucket order."""
        for key, (row, annotation, count) in zip(
            map(delta_key, delta.rows), delta.entries()
        ):
            bucket = buckets.get(key)
            if bucket is None:
                continue
            for (other_row, other_annotation), multiplicity in bucket.items():
                joined = row + other_row if delta_on_left else other_row + row
                yield joined, annotation | other_annotation, count * multiplicity

    def memory_bytes(self) -> int:
        return sum(side.state.memory_bytes() for side in self.sides)

    def describe(self) -> str:
        kind = "equi" if self.is_equi_join else ("cross" if self.condition is None else "theta")
        return f"IncJoin({kind}, bloom={'on' if self.use_bloom_filters else 'off'})"


def _indexed(
    side: AnnotatedDelta, key: Callable[[Row], tuple]
) -> dict[tuple, dict[tuple[Row, int], int]]:
    """A throwaway key index of ``side``."""
    state = JoinSideState()
    state.materialise(key, side)
    return state.buckets


class IncrementalAggregation(IncrementalOperator):
    """Incremental group-by aggregation (Sec. 5.2.5, 5.2.6).

    A pass numbers its entries by group slot and folds them into the slot
    lists of :class:`~repro.imp.state.AggregationState` with the batch
    kernel's fold at signed counts -- from scratch the same fold over the
    whole input into empty state.  Each touched group is snapshotted once
    before the fold and emits ``-old, +new`` after it.
    """

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
        self.state = AggregationState(self.aggregates, min_max_buffer)
        child_schema = child.output_schema
        self._group_key = [
            compile_batch_expression(expression, child_schema)
            for expression in self.group_by
        ]
        # COUNT(*) reads no column.
        self._argument_values = [
            None
            if aggregate.argument is None
            else compile_batch_expression(aggregate.argument, child_schema)
            for aggregate in self.aggregates
        ]
        # The aggregates over no input tuples: what an absent group stands for.
        self._over_nothing = tuple(over_nothing(aggregate) for aggregate in self.aggregates)

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        # Without GROUP BY the single group ``()`` is part of the result even
        # over empty input, as ``_over_nothing`` annotated with no fragment.
        # It is not stored: an absent group stands for it.
        scalar = not self.group_by
        if not child:
            output = AnnotatedDelta(self.output_schema)
            if scalar and run.from_scratch:
                output.append(self._over_nothing, 0, 1)
            return output
        run.statistics.tuples_processed += len(child)
        state = self.state
        columns, n = child.columns(), len(child.rows)
        ids = state.slot_ids(
            _row_tuples([evaluate(columns, n) for evaluate in self._group_key], n)
        )
        # The touched groups in first-touch order, and the output tuple each
        # had before the batch.  From scratch nothing was output before, not
        # even the scalar group.
        touched = list(dict.fromkeys(ids))
        absent = (self._over_nothing, 0) if scalar else None
        before = self._outputs(touched, None if run.from_scratch else absent)
        arguments = [
            None if evaluate is None else evaluate(columns, n)
            for evaluate in self._argument_values
        ]
        try:
            state.fold(ids, arguments, child.annotations, child.counts)
        except AggregateError:
            # Free the slots this batch allocated (still empty).  The other
            # touched groups may be folded in part, which only a recapture
            # repairs: the engine reports one as needed from now on.
            for slot in touched:
                if state.total_count[slot] <= 0:
                    state.drop(slot)
            self.needs_recapture = True
            raise
        after = self._outputs(touched, absent)
        if state.exhausted(touched):
            self.needs_recapture = True
        entries = []
        keys, total_count = state.keys, state.total_count
        for slot, old, new in zip(touched, before, after):
            key = keys[slot]
            if old is not None:
                entries.append((key + old[0], old[1], -1))
            if new is not None:
                entries.append((key + new[0], new[1], 1))
            if total_count[slot] <= 0:
                state.drop(slot)
        return AnnotatedDelta(self.output_schema, *map(list, zip(*entries)))

    def _outputs(self, slots: list[int], absent: tuple | None) -> list[tuple | None]:
        """The output tuple's ``(values, mask)`` of each group in ``slots``:
        ``absent`` for a group without input tuples, None for one whose
        min/max lost track of its extreme."""
        state = self.state
        total_count, mask = state.total_count, state.mask
        exhausted = state.exhausted(slots)
        shown = [slot for slot in slots if total_count[slot] > 0 and slot not in exhausted]
        outputs = dict(zip(shown, zip(state.values(shown), [mask[slot] for slot in shown])))
        return [
            outputs.get(slot, absent if total_count[slot] <= 0 else None) for slot in slots
        ]

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        aggregates = ", ".join(repr(a) for a in self.aggregates)
        return f"IncAggregation({aggregates})"


class IncrementalDistinct(IncrementalOperator):
    """Incremental duplicate elimination (``δ``): per-row counts, kept as
    aggregation slots with no aggregate."""

    def __init__(self, child: IncrementalOperator) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.state = AggregationState()

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        run.statistics.tuples_processed += len(child)
        state = self.state
        ids = state.slot_ids(child.rows)
        touched = list(dict.fromkeys(ids))
        total_count, mask = state.total_count, state.mask
        # Sketch mask each touched row had before the batch (None: absent).
        old_masks = [mask[slot] if total_count[slot] > 0 else None for slot in touched]
        state.fold(ids, (), child.annotations, child.counts)
        for slot, old_mask in zip(touched, old_masks):
            row = state.keys[slot]
            if old_mask is not None:
                output.append(row, old_mask, -1)
            if total_count[slot] > 0:
                output.append(row, mask[slot], 1)
            else:
                state.drop(slot)
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
        self._sort_values = [
            compile_batch_expression(item.expression, child.output_schema)
            for item in self.order_by
        ]
        self._ascending = [item.ascending for item in self.order_by]

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
        columns, n = child.columns(), len(child.rows)
        sort_keys = order_keys(
            [evaluate(columns, n) for evaluate in self._sort_values], self._ascending
        )
        for sort_key, row, annotation, count in zip(
            sort_keys, child.rows, child.annotations, child.counts
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
