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

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, is_not, itemgetter, or_

from repro.core.bloom import BloomFilter
from repro.core.errors import AggregateError, StateError
from repro.core.timing import MemoryMeter
from repro.relational.algebra import Aggregate, Join, OrderItem, PlanNode
from repro.relational.columnar import LazyColumns
from repro.relational.expressions import (
    CompiledBatchExpression,
    Expression,
    compile_batch_expression,
    strict_boolean,
)
from repro.relational.kernels import (
    join_index,
    join_positions,
    key_column,
    order_keys,
    over_nothing,
)
from repro.relational.schema import Row, Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import SketchDelta, iter_bits
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import AggregationState, JoinSideState, TopKState, fold_fragments


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
    "Filtering Deltas Based On Selections").  The annotated entries come from
    the pass's memo: engines of one round whose partitions agree on this
    table read the same lists, which are therefore never modified.
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
        self._delta_filter_fn: CompiledBatchExpression | None = None
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
            None
            if expression is None
            else compile_batch_predicate(expression, self.output_schema)
        )

    def process(self, run: Pass) -> AnnotatedDelta:
        # From scratch the delta filter runs before the annotation (no other
        # engine reads that pass's memo); a delta's entries are annotated
        # whole, once for every engine of the round, and filtered after.
        prefiltered = run.from_scratch and self._delta_filter is not None
        rows, masks, counts = self._annotated(run, prefiltered)
        if not rows:
            return AnnotatedDelta(self.output_schema)
        output = AnnotatedDelta(self.output_schema, rows, masks, counts)
        fetched = len(output)
        run.statistics.tuples_processed += fetched
        if self._delta_filter_fn is not None and not prefiltered:
            output = output.filter(self._delta_filter_fn(output.columns(), len(rows)))
            run.statistics.delta_tuples_filtered += fetched - len(output)
            fetched = len(output)
        run.statistics.delta_tuples_fetched += fetched
        return output

    def _annotated(
        self, run: Pass, prefiltered: bool
    ) -> tuple[list[Row], list[int], list[int]]:
        """The pass's rows of the table (only those passing the delta filter
        when ``prefiltered``), their masks and signed counts, from the memo or
        annotated into it.  Entry order: table order from scratch; otherwise
        inserts then deletes, each in the delta's own order."""
        source = self.table if run.from_scratch else run.db_delta.get(self.table)
        if not source:
            return [], [], []
        key = (source, self._memo_key, self._delta_filter.canonical() if prefiltered else None)
        if key not in run.memo:
            if run.from_scratch:
                table = self.database.snapshot_relation(self.table, run.version)
                rows = list(table.distinct_rows())
                counts = list(map(itemgetter(1), table.items()))
            else:
                rows, counts = source.signed_entries()
            if prefiltered:
                columns = AnnotatedDelta(self.output_schema, rows).columns()
                keep = self._delta_filter_fn(columns, len(rows))
                rows, counts = list(compress(rows, keep)), list(compress(counts, keep))
            position = self._attribute_index
            if position is None:
                masks = [0] * len(rows)
            else:
                masks = self.partition.masks_of(self.table, list(map(itemgetter(position), rows)))
            run.memo[key] = rows, masks, counts
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
    """One input of an incremental join: the plan that computes it, the
    positions of its join key columns (none for a join without a key pair)
    and what the join keeps of its current result."""

    plan: PlanNode
    positions: list[int]
    state: JoinSideState = field(default_factory=JoinSideState)

    def keys(self, delta: AnnotatedDelta) -> list:
        """The join key of each entry of ``delta`` (one of this side's)."""
        return key_column(delta.columns(), self.positions, len(delta.rows))


# A join without a key pair probes a delta in slices of at most this many
# candidate pairs (at least one entry a slice): its one bucket is the whole
# other side, so a term has |Δ| · |side| candidates however few survive.  A
# memory bound, not a fast path: without it a 1500 x 1500 theta capture would
# hold all 2.25 million candidate pairs at once.
_PAIR_BATCH = 512

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
    multiplied, and only the residual is checked on the pairs.

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
            None if residual is None else compile_batch_predicate(residual, self.output_schema)
        )
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
        output = AnnotatedDelta(self.output_schema)
        if run.from_scratch:
            # The old state is ∅: the child outputs are the complete sides, so
            # they seed the filters and ΔQ1 ⋈ ΔQ2 is the whole join.
            right_delta = right_delta.consolidated()
            left_keys, right_keys = left.keys(left_delta), right.keys(right_delta)
            if self.is_equi_join and self.use_bloom_filters:
                left.state.summarise(left_keys, _BLOOM_FALSE_POSITIVE_RATE)
                right.state.summarise(right_keys, _BLOOM_FALSE_POSITIVE_RATE)
            self._join(left_delta, left_keys, right_delta, right_keys, output, True)
            return output
        if not left_delta and not right_delta:
            return output
        # An insert and a delete of the same annotated tuple cancel before
        # anything is probed, shipped or joined.
        left_delta = left_delta.consolidated()
        right_delta = right_delta.consolidated()
        left_keys, right_keys = left.keys(left_delta), right.keys(right_delta)
        # Bring both sides forward FIRST: terms A and B join with the *new*
        # state of the other side, so a delta tuple may join with a row that
        # arrives on the other side within the same batch.  Probing (or
        # pruning against) the old state would drop those combinations while
        # the ΔQ1 ⋈ ΔQ2 correction still subtracts them, breaking the
        # over-approximation guarantee.
        left.state.apply(left_keys, left_delta)
        right.state.apply(right_keys, right_delta)
        # Term A: ΔQ1 ⋈ Q2'.
        self._join_with_side(left_delta, left_keys, right, output, run, delta_on_left=True)
        # Term B: Q1' ⋈ ΔQ2.
        self._join_with_side(right_delta, right_keys, left, output, run, delta_on_left=False)
        # Term C: − ΔQ1 ⋈ ΔQ2 (corrects double counting).
        if left_delta and right_delta:
            negated = AnnotatedDelta(
                left_delta.schema,
                left_delta.rows,
                left_delta.annotations,
                [-count for count in left_delta.counts],
            )
            self._join(negated, left_keys, right_delta, right_keys, output, True)
        # Entries of opposite sign cancel across the three terms.
        return output.consolidated()

    def _join_with_side(
        self,
        delta: AnnotatedDelta,
        keys: list,
        other: JoinSide,
        output: AnnotatedDelta,
        run: Pass,
        delta_on_left: bool,
    ) -> None:
        """Append ``delta`` joined with the new state of the ``other`` side,
        materialising that side if a delta tuple gets past its filter."""
        state = other.state
        if state.buckets is None:
            delta, keys = self._bloom_filter(delta, keys, state.bloom, run)
            if delta:
                whole = self._evaluate_side(other.plan, delta, run)
                state.materialise(other.keys(whole), whole)
        if delta:
            run.statistics.tuples_processed += len(delta)
            partner_keys, *entries = state.partners(dict.fromkeys(keys))
            schema = (self.right if delta_on_left else self.left).output_schema
            partners = AnnotatedDelta(schema, *entries)
            self._join(delta, keys, partners, partner_keys, output, delta_on_left)

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
        keep = [passes[key] for key in keys]
        surviving = delta.filter(keep)
        run.statistics.bloom_filtered_tuples += len(delta) - len(surviving)
        return surviving, list(compress(keys, keep))

    def _evaluate_side(
        self, plan: PlanNode, shipped: AnnotatedDelta, run: Pass
    ) -> AnnotatedDelta:
        """The whole result of one side's plan as of the pass's version, for
        ``shipped`` to find partners in: a from-scratch pass over a throwaway
        operator tree.  Only called to materialise a side."""
        run.statistics.backend_round_trips += 1
        run.statistics.tuples_shipped_to_backend += len(shipped.rows)
        return self._compile_side(plan).process(Pass.scratch(run.version))

    def _join(
        self,
        probe: AnnotatedDelta,
        probe_keys: list,
        build: AnnotatedDelta,
        build_keys: list,
        output: AnnotatedDelta,
        probe_on_left: bool,
    ) -> None:
        """Append every pair of a ``probe`` entry and a ``build`` entry with an
        equal join key whose residual holds, in the matcher's order.

        The residual reads the pairs' columns through the take lists, so only
        the pairs it keeps become rows.  Without a key pair every probe entry
        meets every build entry, so the probe goes in slices of at most
        ``_PAIR_BATCH`` candidate pairs."""
        index = join_index(build_keys)
        residual = self._residual_batch
        build_columns = build.columns()
        n = len(probe.rows)
        step = n or 1
        if not self.is_equi_join:
            step = max(1, _PAIR_BATCH // max(1, len(build.rows)))
        for start in range(0, n, step):
            stop = start + step
            rows, masks = probe.rows[start:stop], probe.annotations[start:stop]
            take, partner, counts = join_positions(
                probe_keys[start:stop], index, probe.counts[start:stop], build.counts
            )
            if residual is not None and take:
                sides = (
                    (AnnotatedDelta(probe.schema, rows).columns(), take),
                    (build_columns, partner),
                )
                (left, left_take), (right, right_take) = sides if probe_on_left else sides[::-1]
                split = len(left)
                columns = LazyColumns(
                    len(self.output_schema),
                    lambda p: list(map(left[p].__getitem__, left_take))
                    if p < split
                    else list(map(right[p - split].__getitem__, right_take)),
                )
                keep = residual(columns, len(take))
                take, partner, counts = (
                    list(compress(taken, keep)) for taken in (take, partner, counts)
                )
            mine = map(rows.__getitem__, take)
            theirs = map(build.rows.__getitem__, partner)
            output.rows += map(add, mine, theirs) if probe_on_left else map(add, theirs, mine)
            output.annotations += map(
                or_, map(masks.__getitem__, take), map(build.annotations.__getitem__, partner)
            )
            output.counts += counts

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
        # Each group's key twice beside its old and new output, counts -1, +1;
        # absent outputs (None) leave through one selector.  Building no
        # tuple per entry also spares the collector.
        keys = list(map(state.keys.__getitem__, touched))
        keys = list(chain.from_iterable(zip(keys, keys)))
        outputs = list(chain.from_iterable(zip(before, after)))
        counts = [-1, 1] * len(touched)
        if None in outputs:
            shown = list(map(is_not, outputs, repeat(None)))
            keys = list(compress(keys, shown))
            outputs = list(compress(outputs, shown))
            counts = list(compress(counts, shown))
        total_count = state.total_count
        for slot in touched:
            if total_count[slot] <= 0:
                state.drop(slot)
        return AnnotatedDelta(
            self.output_schema,
            list(map(add, keys, map(itemgetter(0), outputs))),
            list(map(itemgetter(1), outputs)),
            counts,
        )

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
            return AnnotatedDelta(self.output_schema, [self._over_nothing], [0], [1])
        keys = state.keys
        entries = [
            (keys[slot] + new[0], new[1], 1)
            for slot, new in zip(slots, self._outputs(slots, None))
            if new is not None
        ]
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

    def replay(self) -> AnnotatedDelta:
        """The output of the from-scratch pass that built the state, entry for
        entry: each row in first-touch order at count +1 (see
        :meth:`IncrementalAggregation.replay`)."""
        state = self.state
        slots = list(state.slots.values())
        keys, mask = state.keys, state.mask
        return AnnotatedDelta(
            self.output_schema,
            [keys[slot] for slot in slots],
            [mask[slot] for slot in slots],
            [1] * len(slots),
        )

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
        return isinstance(self.operator, (IncrementalAggregation, IncrementalDistinct))

    def memory_bytes(self) -> int:
        """Footprint of the subtree's state."""
        return self.operator.total_memory_bytes()


class IncrementalShared(IncrementalOperator):
    """An engine's view of a :class:`SharedNode`: the node's output delta once
    per pass, under the engine's own output schema (engines that share a node
    may name its columns differently).  The lists are the node's, which the
    stateless operators above it only read."""

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
        return AnnotatedDelta(
            self.output_schema, output.rows, output.annotations, output.counts
        )

    def describe(self) -> str:
        return "IncShared"


def _subtree(root: IncrementalOperator) -> Iterator[IncrementalOperator]:
    stack = [root]
    while stack:
        operator = stack.pop()
        yield operator
        stack.extend(operator.children())


_STATEFUL = (IncrementalAggregation, IncrementalDistinct, IncrementalJoin, IncrementalTopK)


def _to_bag(entries: list[tuple[Row, int, int]]) -> dict[tuple[Row, int], int]:
    bag: dict[tuple[Row, int], int] = {}
    for row, annotation, multiplicity in entries:
        key = (row, annotation)
        bag[key] = bag.get(key, 0) + multiplicity
    return bag


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
        counts = child.counts
        fold_fragments([0] * len(counts), child.annotations, counts, [self.counts], masks)
        self.mask = after = masks[0]
        return SketchDelta(
            frozenset(iter_bits(after & ~before)), frozenset(iter_bits(before & ~after))
        )

    def memory_bytes(self) -> int:
        return MemoryMeter().measure(self.counts)
