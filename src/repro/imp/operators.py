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

An engine's outermost stateful operator and everything below it form a
:class:`SharedNode`, read through an :class:`IncrementalShared` view: engines
the sketch store hands one node process it once per pass, through the pass's
memo.  A from-scratch pass over a node another engine's pass just built reads
the node's result back from its state (``replay()``) and folds nothing.

Annotations are plain ``int`` fragment masks throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, is_not, itemgetter, or_

from repro.core.bloom import BloomFilter
from repro.core.errors import AggregateError, StateError
from repro.core.timing import MemoryMeter
from repro.relational.algebra import Aggregate, Join, OrderItem, PlanNode
from repro.relational.columnar import ColumnBatch, LazyColumns, merged_counts
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    compile_batch_expression,
    strict_boolean,
)
from repro.relational.kernels import (
    filter_batch,
    join_index,
    join_positions,
    key_column,
    order_keys,
    over_nothing,
    project_batch,
)
from repro.relational.schema import Row, Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import SketchDelta, iter_bits
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import AggregationState, JoinSideState, TopKState, fold_fragments


def compile_filter(
    predicate: Expression, schema: Schema
) -> Callable[[ColumnBatch], ColumnBatch]:
    """The selection ``predicate`` over batches of ``schema``: the engine's
    filter kernel, told whether the values are strict booleans as the query
    evaluator tells it."""
    evaluate = compile_batch_expression(predicate, schema)
    strict = strict_boolean(predicate)
    return lambda batch: filter_batch(batch, evaluate(batch.columns, len(batch)), strict)


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

    ``memo`` holds the table accesses' annotated entries by source (a
    :class:`~repro.storage.delta.Delta`, which hashes by identity, or a table
    name from scratch) and partition value, and each :class:`SharedNode`'s
    output; a maintenance round shares one between all its engines' passes,
    every other pass has its own.
    """

    db_delta: DatabaseDelta | None
    statistics: EngineStatistics
    version: int
    memo: dict[object, object] = field(default_factory=dict)

    @classmethod
    def scratch(cls, version: int) -> "Pass":
        """A from-scratch pass over the database as of ``version``."""
        return cls(None, EngineStatistics(), version)

    @property
    def from_scratch(self) -> bool:
        """Whether the pass reads the whole database instead of a delta."""
        return self.db_delta is None


def memo_counts(memo: dict) -> tuple[int, int]:
    """What a round's memo holds: its annotation passes (one per distinct
    (delta, partition)) and its stateful-operator passes (each shared node's
    stateful operators, once)."""
    annotations = sum(isinstance(key, tuple) for key in memo)
    folds = sum(key.stateful for key in memo if isinstance(key, SharedNode))
    return annotations, folds


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
    annotates each tuple with the range its partition-attribute value belongs
    to (the table's outside fragment for NULL and NaN), and pre-filters the
    annotated entries with pushed-down selection conditions (Sec. 7.2,
    "Filtering Deltas Based On Selections").  The entries and their masks come
    from the pass's memo: engines of one round whose partitions agree on this
    table read the same lists, which are therefore never modified, each
    through its own fork of the memo's lazy pivot.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        base_schema: Schema,
        partition: DatabasePartition,
        database: Database,
    ) -> None:
        super().__init__(base_schema.qualify(alias))
        self.table = table.lower()
        self.alias = alias
        self.base_schema = base_schema
        self.partition = partition
        self.database = database
        self._delta_filter: Expression | None = None
        self._delta_filter_fn: Callable[[ColumnBatch], ColumnBatch] | None = None
        self._attribute_index: int | None = None
        self._memo_key: tuple = (self.table,)
        if partition.has_table(self.table):
            attribute = partition.partition_of(self.table).attribute
            self._attribute_index = base_schema.index_of(attribute)
            self._memo_key = partition.masks_key(self.table)

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
            None if expression is None else compile_filter(expression, self.output_schema)
        )

    def process(self, run: Pass) -> AnnotatedDelta:
        # From scratch the delta filter runs before the annotation (no other
        # engine reads that pass's memo); a delta's entries are annotated
        # whole, once for every engine of the round, and filtered after.
        prefiltered = run.from_scratch and self._delta_filter is not None
        columns, masks, counts = self._annotated(run, prefiltered)
        if not counts:
            return AnnotatedDelta.empty(self.output_schema)
        # A table's rows are distinct, and so are they annotated.
        output = AnnotatedDelta.annotate(
            self.output_schema, columns.fork().__getitem__, masks, counts, run.from_scratch
        )
        fetched = output.tuple_count
        run.statistics.tuples_processed += fetched
        if self._delta_filter_fn is not None and not prefiltered:
            output = self._delta_filter_fn(output)
            run.statistics.delta_tuples_filtered += fetched - output.tuple_count
            fetched = output.tuple_count
        run.statistics.delta_tuples_fetched += fetched
        return output

    def _annotated(
        self, run: Pass, prefiltered: bool
    ) -> tuple[LazyColumns | tuple[()], list[int], list[int]]:
        """The lazily pivoted value columns of the pass's rows of the table
        (only those passing the delta filter when ``prefiltered``), their
        masks and signed counts, from the memo or annotated into it.  Entry
        order: table order from scratch; otherwise inserts then deletes, each
        in the delta's own order."""
        schema = self.output_schema
        source = self.table if run.from_scratch else run.db_delta.get(self.table)
        if not source:
            return (), [], []
        key = (source, self._memo_key, self._delta_filter.canonical() if prefiltered else None)
        if key not in run.memo:
            if run.from_scratch:
                table = self.database.snapshot_relation(self.table, run.version)
                rows, counts = list(table.distinct_rows()), list(map(itemgetter(1), table.items()))
            else:
                rows, counts = source.signed_entries()
            entries = ColumnBatch.from_fetched_rows(schema, rows, counts)
            if prefiltered:
                entries = self._delta_filter_fn(entries)
            position = self._attribute_index
            if position is None:
                masks = [0] * len(entries)
            else:
                masks = self.partition.masks_of(self.table, entries.columns[position])
            run.memo[key] = entries.columns, masks, entries.multiplicities
        return run.memo[key]

    def describe(self) -> str:
        suffix = " [delta filter]" if self.delta_filter is not None else ""
        return f"IncTableAccess({self.table}){suffix}"


class IncrementalSelection(IncrementalOperator):
    """Stateless incremental selection (Sec. 5.2.3)."""

    def __init__(self, child: IncrementalOperator, predicate: Expression) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.predicate = predicate
        self._filter = compile_filter(predicate, child.output_schema)

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        if not child:
            return child
        run.statistics.tuples_processed += child.tuple_count
        return self._filter(child)

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
            return AnnotatedDelta.empty(self.output_schema)
        run.statistics.tuples_processed += child.tuple_count
        columns, n = child.columns, len(child)
        values = [evaluate(columns, n) for evaluate in self._project_batch]
        values.append(child.annotations)
        return project_batch(child, self.output_schema, values)

    def describe(self) -> str:
        return f"IncProjection({len(self.expressions)} expressions)"


@dataclass
class JoinSide:
    """One input of an incremental join: the plan that computes it, the
    positions of its join key columns (none for a join without a key pair)
    and what the join keeps of its current result."""

    plan: PlanNode
    positions: list[int]
    state: JoinSideState = field(default_factory=JoinSideState)

    def keys(self, delta: AnnotatedDelta) -> list:
        """The join key of each entry of ``delta`` (one of this side's)."""
        return key_column(delta.columns, self.positions, len(delta))


# A join without a key pair probes a delta in slices of at most this many
# candidate pairs (at least one entry a slice): its one bucket is the whole
# other side, so a term has |Δ| · |side| candidates however few survive.  A
# memory bound, not a fast path: without it a 1500 x 1500 theta capture would
# hold all 2.25 million candidate pairs at once.
_PAIR_BATCH = 512

# The candidate pairs of a join term as a batch of positions: the probe
# entry's and the build entry's, which the residual filters.
_PAIR_POSITIONS = Schema(["probe", "build"])

# False-positive rate of the Bloom filter summarising a join side.
_BLOOM_FALSE_POSITIVE_RATE = 0.01


class IncrementalJoin(IncrementalOperator):
    """Incremental join / cross product (Sec. 5.2.4, 7.2).

    The delta of a join combines three terms, using the state of both inputs
    *after* the update::

        Δ(Q1 ⋈ Q2) = ΔQ1 ⋈ Q2'  ∪  Q1' ⋈ ΔQ2  −  ΔQ1 ⋈ ΔQ2

    Each term is the query engine's hash join: the condition is split by
    :meth:`~repro.relational.algebra.Join.key_pairs`, the delta's entries
    probe the other operand with :func:`~repro.relational.kernels.join_positions`
    (delta entries outer, the other operand's entries of the key in their
    order inner), rows are concatenated left to right, masks OR-ed, counts
    multiplied, and only the residual is checked on the pairs -- by the
    engine's filter kernel, over columns gathered through the pair positions.

    Each side's ``Q'`` is a :class:`~repro.imp.state.JoinSideState`.  While no
    delta tuple of the other side has needed a partner, the side is only
    summarised by a Bloom filter on its join keys, which prunes delta tuples
    without partners and costs nothing when everything is pruned.  The first
    surviving delta tuple makes the join evaluate the side once -- the paper's
    round trip to the backend: a from-scratch pass, as of the delta pass's
    version, over a throwaway operator tree for the side's plan
    (``compile_side``) -- and keep the result as a key index.  From then on
    every delta pass first brings the index forward by the side's own child
    delta, and terms A and B probe the index's buckets of the delta's keys
    (:meth:`~repro.imp.state.JoinSideState.partners`): a round costs
    ``O(|Δ| · fan-out)``, whatever the size of the sides.

    On a from-scratch pass the old state of both sides is empty, ``Q1' = ΔQ1``
    and ``Q2' = ΔQ2``, so the three terms collapse to ``ΔQ1 ⋈ ΔQ2``; the two
    child outputs, being the complete sides, seed the filters.
    """

    def __init__(
        self,
        left: IncrementalOperator,
        right: IncrementalOperator,
        node: Join,
        compile_side: Callable[[PlanNode], IncrementalOperator],
        use_bloom_filters: bool = True,
    ) -> None:
        super().__init__(left.output_schema.concat(right.output_schema))
        self.left = left
        self.right = right
        pairs, residual = node.key_pairs(left.output_schema, right.output_schema)
        self._residual_batch = (
            None if residual is None else compile_batch_expression(residual, self.output_schema)
        )
        self._residual_strict = residual is not None and strict_boolean(residual)
        self._compile_side = compile_side
        self.use_bloom_filters = use_bloom_filters
        # Whether the condition has an equality key pair.
        self.is_equi_join = bool(pairs)
        self.sides = (
            JoinSide(node.left, [p for p, _ in pairs]),
            JoinSide(node.right, [p for _, p in pairs]),
        )

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.left, self.right)

    def process(self, run: Pass) -> AnnotatedDelta:
        left, right = self.sides
        left_delta = self.left.process(run)
        right_delta = self.right.process(run)
        if run.from_scratch:
            # The old state is ∅: the child outputs are the complete sides, so
            # they seed the filters and ΔQ1 ⋈ ΔQ2 is the whole join.
            right_delta = right_delta.consolidate()
            left_keys, right_keys = left.keys(left_delta), right.keys(right_delta)
            if self.is_equi_join and self.use_bloom_filters:
                left.state.summarise(left_keys, _BLOOM_FALSE_POSITIVE_RATE)
                right.state.summarise(right_keys, _BLOOM_FALSE_POSITIVE_RATE)
            return self._join(left_delta, left_keys, right_delta, right_keys, True)
        if not left_delta and not right_delta:
            return AnnotatedDelta.empty(self.output_schema)
        # An insert and a delete of the same annotated tuple cancel before
        # anything is probed, shipped or joined.
        left_delta = left_delta.consolidate()
        right_delta = right_delta.consolidate()
        left_keys, right_keys = left.keys(left_delta), right.keys(right_delta)
        # Bring both sides forward FIRST: terms A and B join with the *new*
        # state of the other side, so a delta tuple may join with a row that
        # arrives on the other side within the same batch.  Probing (or
        # pruning against) the old state would drop those combinations while
        # the ΔQ1 ⋈ ΔQ2 correction still subtracts them, breaking the
        # over-approximation guarantee.
        left.state.apply(left_keys, left_delta)
        right.state.apply(right_keys, right_delta)
        terms = [
            # Term A: ΔQ1 ⋈ Q2'.
            self._join_with_side(left_delta, left_keys, right, run, delta_on_left=True),
            # Term B: Q1' ⋈ ΔQ2.
            self._join_with_side(right_delta, right_keys, left, run, delta_on_left=False),
        ]
        # Term C: − ΔQ1 ⋈ ΔQ2 (corrects double counting).
        if left_delta and right_delta:
            negated = AnnotatedDelta(
                left_delta.schema,
                left_delta.columns,
                [-count for count in left_delta.multiplicities],
            )
            terms.append(self._join(negated, left_keys, right_delta, right_keys, True))
        # Entries of opposite sign cancel across the three terms.
        return _union(self.output_schema, terms).consolidate()

    def _join_with_side(
        self,
        delta: AnnotatedDelta,
        keys: list,
        other: JoinSide,
        run: Pass,
        delta_on_left: bool,
    ) -> AnnotatedDelta:
        """``delta`` joined with the new state of the ``other`` side,
        materialising that side if a delta tuple gets past its filter."""
        state = other.state
        if state.buckets is None:
            delta, keys = self._bloom_filter(delta, keys, state.bloom, run)
            if delta:
                whole = self._evaluate_side(other.plan, delta, run)
                state.materialise(other.keys(whole), whole)
        if not delta:
            return AnnotatedDelta.empty(self.output_schema)
        run.statistics.tuples_processed += delta.tuple_count
        partner_keys, *entries = state.partners(dict.fromkeys(keys))
        schema = (self.right if delta_on_left else self.left).output_schema
        partners = AnnotatedDelta.from_rows(schema, *entries)
        return self._join(delta, keys, partners, partner_keys, delta_on_left)

    def _bloom_filter(
        self,
        delta: AnnotatedDelta,
        keys: list,
        other_bloom: BloomFilter | None,
        run: Pass,
    ) -> tuple[AnnotatedDelta, list]:
        """The entries of ``delta`` whose join key may be in ``other_bloom``,
        and their keys."""
        if not delta or other_bloom is None:
            return delta, keys
        # Delta tuples share join keys: probe the filter once per distinct key.
        passes = {key: key in other_bloom for key in set(keys)}
        keep = list(map(passes.__getitem__, keys))
        surviving = filter_batch(delta, keep, True)
        run.statistics.bloom_filtered_tuples += delta.tuple_count - surviving.tuple_count
        return surviving, list(compress(keys, keep))

    def _evaluate_side(
        self, plan: PlanNode, shipped: AnnotatedDelta, run: Pass
    ) -> AnnotatedDelta:
        """The whole result of one side's plan as of the pass's version, for
        ``shipped`` to find partners in: a from-scratch pass over a throwaway
        operator tree.  Only called to materialise a side."""
        run.statistics.backend_round_trips += 1
        run.statistics.tuples_shipped_to_backend += len(shipped)
        return self._compile_side(plan).process(Pass.scratch(run.version))

    def _join(
        self,
        probe: AnnotatedDelta,
        probe_keys: list,
        build: AnnotatedDelta,
        build_keys: list,
        probe_on_left: bool,
    ) -> AnnotatedDelta:
        """Every pair of a ``probe`` entry and a ``build`` entry with an equal
        join key whose residual holds, in the matcher's order.  The residual
        reads its columns through the candidates' positions (:meth:`_pairs`)
        and filters the positions.  Without a key pair every probe entry meets
        every build entry, so the probe goes in slices of at most
        ``_PAIR_BATCH`` candidate pairs (or of one entry)."""
        index = join_index(build_keys)
        residual = self._residual_batch

        def pairs(take: list[int], partner: list[int], counts: list[int]) -> AnnotatedDelta:
            sides = ((probe.columns, take), (build.columns, partner))
            return self._pairs(*(sides if probe_on_left else sides[::-1]), counts)

        n = len(probe)
        step = n or 1
        if not self.is_equi_join:
            step = max(1, _PAIR_BATCH // max(1, len(build)))
        slices = []
        for start in range(0, n, step):
            stop = start + step
            take, partner, counts = join_positions(
                probe_keys[start:stop], index, probe.multiplicities[start:stop],
                build.multiplicities,
            )
            if start:
                take = list(map(start.__add__, take))
            if residual is not None and take:
                values = residual(pairs(take, partner, counts).columns, len(take))
                positions = ColumnBatch(_PAIR_POSITIONS, (take, partner), counts)
                kept = filter_batch(positions, values, self._residual_strict)
                (take, partner), counts = kept.columns, kept.multiplicities
            slices.append(pairs(take, partner, counts))
        return _union(self.output_schema, slices)

    def _pairs(self, left: tuple, right: tuple, counts: list[int]) -> AnnotatedDelta:
        """The pairs of ``left`` and ``right`` entries, each side given as its
        columns and its entry's position in each pair: rows concatenated,
        masks OR-ed, each column gathered when first read."""
        (left, left_take), (right, right_take) = left, right
        split, width = len(self.left.output_schema), len(self.output_schema)

        def gather(position: int) -> list:
            if position < split:
                return list(map(left[position].__getitem__, left_take))
            if position < width:
                return list(map(right[position - split].__getitem__, right_take))
            left_masks = map(left[split].__getitem__, left_take)
            return list(map(or_, left_masks, map(right[width - split].__getitem__, right_take)))

        return AnnotatedDelta(self.output_schema, LazyColumns(width + 1, gather), counts)

    def memory_bytes(self) -> int:
        return sum(side.state.memory_bytes() for side in self.sides)

    def describe(self) -> str:
        kind = "cross" if self._residual_batch is None else "theta"
        kind = "equi" if self.is_equi_join else kind
        return f"IncJoin({kind}, bloom={'on' if self.use_bloom_filters else 'off'})"


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
        """Fold the child's batch, then emit each touched group's ``-old,
        +new`` pair in first-touch order (an absent side left out) as whole
        lists; a group left with no tuple is then dropped and its slot
        freed."""
        child = self.child.process(run)
        # Without GROUP BY the single group ``()`` is part of the result even
        # over empty input, as ``_over_nothing`` annotated with no fragment.
        # It is not stored: an absent group stands for it.
        scalar = not self.group_by
        if not child:
            if scalar and run.from_scratch:
                return AnnotatedDelta.from_rows(self.output_schema, [self._over_nothing], [0], [1])
            return AnnotatedDelta.empty(self.output_schema)
        run.statistics.tuples_processed += child.tuple_count
        state = self.state
        columns, n = child.columns, len(child)
        key_columns = [evaluate(columns, n) for evaluate in self._group_key]
        if len(key_columns) == 1:
            ids = state.column_slot_ids(key_columns[0])
        else:
            ids = state.slot_ids(zip(*key_columns) if key_columns else [()] * n)
        # The touched groups in first-touch order, and the output tuple each
        # had before the batch.  From scratch nothing was output before, not
        # even the scalar group.
        touched = list(dict.fromkeys(ids))
        absent = (self._over_nothing, 0) if scalar else None
        before = [None] * len(touched) if run.from_scratch else self._outputs(touched, absent)
        arguments = [
            None if evaluate is None else evaluate(columns, n)
            for evaluate in self._argument_values
        ]
        try:
            state.fold(ids, arguments, child.annotations, child.multiplicities)
        except AggregateError:
            # Free the slots this batch allocated (still empty).  The other
            # touched groups may be folded in part, which only a recapture
            # repairs: the engine reports one as needed from now on.
            for slot in touched:
                if state.total_count[slot] <= 0:
                    state.drop(slot)
            self.needs_recapture = True
            raise
        if state.exhausted(touched):
            self.needs_recapture = True
        keys = list(map(state.keys.__getitem__, touched))
        output = _changes(self.output_schema, keys, before, self._outputs(touched, absent))
        total_count = state.total_count
        for slot in touched:
            if total_count[slot] <= 0:
                state.drop(slot)
        return output

    def replay(self) -> AnnotatedDelta:
        """The output of the from-scratch pass that built the state, entry for
        entry, read back from the state: each live group in first-touch order
        (the order of ``state.slots``) at count +1, an exhausted min/max left
        out as that pass left it out, and without GROUP BY over no input the
        row over nothing.  Valid only while no pass has moved the state on
        (:attr:`SharedNode.built_at`)."""
        state = self.state
        slots = list(state.slots.values())
        if not slots and not self.group_by:
            return AnnotatedDelta.from_rows(self.output_schema, [self._over_nothing], [0], [1])
        keys = list(map(state.keys.__getitem__, slots))
        return _changes(self.output_schema, keys, [None] * len(slots), self._outputs(slots, None))

    def _outputs(self, slots: list[int], absent: tuple | None) -> list[tuple | None]:
        """The output tuple's ``(values, mask)`` of each group in ``slots``:
        ``absent`` for a group without input tuples, None for one whose
        min/max lost track of its extreme.  Only the groups with tuples are
        looked up."""
        state = self.state
        total_count, mask = state.total_count, state.mask
        held = [slot for slot in slots if total_count[slot] > 0]
        exhausted = state.exhausted(held)
        shown = [slot for slot in held if slot not in exhausted] if exhausted else held
        outputs = zip(state.values(shown), map(mask.__getitem__, shown))
        if len(shown) == len(slots):
            return list(outputs)
        outputs = dict(zip(shown, outputs))
        return [
            outputs.get(slot, absent if total_count[slot] <= 0 else None) for slot in slots
        ]

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        aggregates = ", ".join(repr(a) for a in self.aggregates)
        return f"IncAggregation({aggregates})"


class IncrementalDistinct(IncrementalAggregation):
    """Incremental duplicate elimination (``δ``): the aggregation grouped by
    every column with no aggregate, so per-row counts kept as its slots and
    each touched row's ``-old, +new`` pair as its output."""

    def __init__(self, child: IncrementalOperator) -> None:
        schema = child.output_schema
        super().__init__(child, [ColumnRef(name) for name in schema], (), schema)

    def describe(self) -> str:
        return "IncrementalDistinct"


def _changes(schema: Schema, keys: list, before: list, after: list) -> AnnotatedDelta:
    """Each group's key twice, beside its output ``(values, mask)`` before
    and after a batch at counts -1 and +1, an absent output (None) left out."""
    keys = list(chain.from_iterable(zip(keys, keys)))
    outputs = list(chain.from_iterable(zip(before, after)))
    counts = [-1, 1] * len(before)
    if None in outputs:
        shown = list(map(is_not, outputs, repeat(None)))
        keys = list(compress(keys, shown))
        outputs = list(compress(outputs, shown))
        counts = list(compress(counts, shown))
    rows = list(map(add, keys, map(itemgetter(0), outputs)))
    return AnnotatedDelta.from_rows(schema, rows, list(map(itemgetter(1), outputs)), counts)


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
        """Apply the child's batch to the buffer, then emit the difference
        of the old and the new top-k bags: the annotated tuples that lost
        copies in the old top-k's order, then those that gained copies in the
        new one's."""
        child = self.child.process(run)
        if not child:
            return AnnotatedDelta.empty(self.output_schema)
        run.statistics.tuples_processed += child.tuple_count
        state = self.state
        old_top = state.top_k(self.k) if state.can_answer(self.k) else []
        columns, n = child.columns, len(child)
        sort_keys = order_keys(
            [evaluate(columns, n) for evaluate in self._sort_values], self._ascending
        )
        for sort_key, row, annotation, count in zip(
            sort_keys, child.rows(), child.annotations, child.multiplicities
        ):
            if count > 0:
                state.add(sort_key, row, annotation, count)
            else:
                state.remove(sort_key, row, annotation, -count)
        if not state.can_answer(self.k):
            self.needs_recapture = True
            return AnnotatedDelta.empty(self.output_schema)
        old_bag, new_bag = _bag(old_top), _bag(state.top_k(self.k))
        changes = [new_bag.get(key, 0) - count for key, count in old_bag.items()]
        shown = [change < 0 for change in changes]
        added = [count - old_bag.get(key, 0) for key, count in new_bag.items()]
        shown += [change > 0 for change in added]
        keys = list(compress([*old_bag, *new_bag], shown))
        return AnnotatedDelta.from_rows(
            self.output_schema,
            list(map(itemgetter(0), keys)),
            list(map(itemgetter(1), keys)),
            list(compress(changes + added, shown)),
        )

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        buffer = self.buffer_limit if self.buffer_limit is not None else "all"
        return f"IncTopK(k={self.k}, buffer={buffer})"


class SharedNode:
    """The operators of one stateful subplan, as a unit several engines can
    hold.

    ``operator`` is the root of the subtree -- the outermost stateful operator
    of an engine's plan, with everything below it -- and ``fingerprint`` says
    what it computes (:meth:`~repro.imp.engine.IncrementalEngine.fingerprint`).
    The sketch store hands one node to every engine whose fingerprint and
    state agree (and keeps the list of them: a node refers to no engine); a
    pass computes its output once into :attr:`Pass.memo`.  ``built_at`` is
    the version of the from-scratch pass that built its state, or None once a
    delta pass has moved it on: a node is handed on only while its state is
    bit for bit what any capture at that version builds.

    A new engine is handed a built node *before* its capture when the node's
    root can :attr:`replay` that pass's output from its state (an aggregation
    or a duplicate elimination; a join's state does not hold its result, and
    neither does a top-k's buffer): the capture then reads the output back
    instead of scanning and folding the tables again.
    """

    def __init__(self, operator: IncrementalOperator, fingerprint: tuple) -> None:
        self.operator = operator
        self.fingerprint = fingerprint
        self.built_at: int | None = None
        self.stateful = sum(isinstance(op, _STATEFUL) for op in _subtree(operator))

    @property
    def replayable(self) -> bool:
        """Whether the root can give back the output of the from-scratch pass
        that built it."""
        return isinstance(self.operator, IncrementalAggregation)

    def memory_bytes(self) -> int:
        """Footprint of the subtree's state."""
        return self.operator.total_memory_bytes()


class IncrementalShared(IncrementalOperator):
    """An engine's view of a :class:`SharedNode`: the node's output delta once
    per pass, under the engine's own output schema (engines that share a node
    may name its columns differently).  The lists are the node's, which the
    stateless operators above it only read; the columns not built yet each
    view builds for itself (:meth:`~repro.relational.columnar.LazyColumns.fork`)."""

    def __init__(self, node: SharedNode, output_schema: Schema) -> None:
        super().__init__(output_schema)
        self.node = node

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.node.operator,)

    def process(self, run: Pass) -> AnnotatedDelta:
        node = self.node
        output = run.memo.get(node)
        if output is None:
            if run.from_scratch and node.built_at is not None:
                # An adopted node: its state is this pass's result already,
                # and folding the tables into it again would count them twice.
                if node.built_at != run.version or not node.replayable:
                    raise StateError(
                        f"a from-scratch pass at version {run.version} cannot read "
                        f"back {node.operator.describe()} built at version {node.built_at}"
                    )
                output = node.operator.replay()
            else:
                output = node.operator.process(run)
                node.built_at = run.version if run.from_scratch else None
            run.memo[node] = output
        columns = output.columns
        if type(columns) is LazyColumns:
            # Each engine's view builds what it reads itself: a lazy delta
            # belongs to one pass.
            columns = columns.fork()
        return AnnotatedDelta(self.output_schema, columns, output.multiplicities)

    def describe(self) -> str:
        return "IncShared"


def _union(schema: Schema, parts: list[AnnotatedDelta]) -> AnnotatedDelta:
    """The entries of ``parts`` one after the other (one part: itself)."""
    if len(parts) == 1:
        return parts[0]
    columns = [
        list(chain.from_iterable(part.columns[position] for part in parts))
        for position in range(len(schema) + 1)
    ]
    counts = list(chain.from_iterable(part.multiplicities for part in parts))
    return AnnotatedDelta(schema, columns, counts)


def _subtree(root: IncrementalOperator) -> Iterator[IncrementalOperator]:
    stack = [root]
    while stack:
        operator = stack.pop()
        yield operator
        stack.extend(operator.children())


_STATEFUL = (IncrementalAggregation, IncrementalJoin, IncrementalTopK)


def _bag(entries: list[tuple[Row, int, int]]) -> dict[tuple[Row, int], int]:
    """Top-k ``(row, annotation, multiplicity)`` entries as one bag keyed by
    ``(row, annotation)``, by the one merge."""
    pairs = [(row, annotation) for row, annotation, _ in entries]
    return merged_counts(pairs, [multiplicity for *_, multiplicity in entries])


class MergeOperator(IncrementalOperator):
    """The merge operator ``μ`` turning result deltas into sketch deltas (Sec. 5.1).

    ``counts`` maps each fragment to the number of result tuples carrying it,
    and ``mask``, the current sketch, holds the fragments counted positive:
    one slot of :func:`~repro.imp.state.fold_fragments`.
    """

    def __init__(self, child: IncrementalOperator) -> None:
        super().__init__(child.output_schema)
        self.child = child
        self.counts: dict[int, int] = {}
        self.mask = 0

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.child,)

    def process(self, run: Pass) -> AnnotatedDelta:  # pragma: no cover
        raise NotImplementedError("use process_to_sketch_delta for the merge operator")

    def process_to_sketch_delta(self, run: Pass) -> SketchDelta:
        """Run one pass over the tree and return the fragments that entered
        and that left the sketch."""
        child = self.child.process(run)
        before = self.mask
        masks = [before]
        counts = child.multiplicities
        fold_fragments([0] * len(counts), child.annotations, counts, [self.counts], masks)
        self.mask = after = masks[0]
        return SketchDelta(
            frozenset(iter_bits(after & ~before)), frozenset(iter_bits(before & ~after))
        )

    def memory_bytes(self) -> int:
        return MemoryMeter().measure(self.counts)
