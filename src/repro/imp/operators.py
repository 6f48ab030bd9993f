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

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.bitset import BitSet
from repro.core.bloom import BloomFilter
from repro.core.timing import MemoryMeter
from repro.relational.algebra import Aggregate, OrderItem, PlanNode
from repro.relational.evaluator import make_order_key
from repro.relational.expressions import (
    CompiledExpression,
    Expression,
    Literal,
    compile_expression,
    compile_row_expressions,
)
from repro.relational.schema import Row, Schema
from repro.sketch.capture import AnnotatedEvaluator, AnnotatedRelation
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import SketchDelta
from repro.storage.delta import DELETE, INSERT, DatabaseDelta
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import (
    AggregationState,
    DistinctState,
    MergeState,
    MinMaxAccumulator,
    TopKState,
    make_accumulator,
)


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
        self._delta_filter_fn: CompiledExpression | None = None
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
        # Compile eagerly on assignment so the per-tuple loop stays lookup-free
        # even when selection push-down installs the filter after construction.
        self._delta_filter = expression
        self._delta_filter_fn = (
            None
            if expression is None
            else compile_expression(expression, self.output_schema)
        )

    def initialize(self) -> AnnotatedRelation:
        base = self.provider.relation(self.table)
        result = AnnotatedRelation(self.output_schema)
        for row, multiplicity in base.items():
            result.add(row, self._annotate(row), multiplicity)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        output = AnnotatedDelta(self.output_schema)
        delta = db_delta.get(self.table)
        if delta is None:
            return output
        for sign, rows in ((INSERT, delta.inserts()), (DELETE, delta.deletes())):
            for row, multiplicity in rows:
                self.statistics.tuples_processed += multiplicity
                if self._delta_filter_fn is not None:
                    if self._delta_filter_fn(row) is not True:
                        self.statistics.delta_tuples_filtered += multiplicity
                        continue
                self.statistics.delta_tuples_fetched += multiplicity
                output.add(sign, row, self._annotate(row), multiplicity)
        return output

    def _annotate(self, row: Row) -> BitSet:
        annotation = BitSet()
        if self._attribute_index is not None:
            value = row[self._attribute_index]
            if value is not None:
                annotation.add(self.partition.fragment_of(self.table, value))
        return annotation

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
        output = AnnotatedDelta(self.output_schema)
        predicate = self._predicate_fn
        for entry in child.tuples():
            self.statistics.tuples_processed += entry.multiplicity
            if predicate(entry.row) is True:
                output.add(entry.sign, entry.row, entry.annotation, entry.multiplicity)
        return output

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
        output = AnnotatedDelta(self.output_schema)
        project = self._project
        for entry in child.tuples():
            self.statistics.tuples_processed += entry.multiplicity
            output.add(entry.sign, project(entry.row), entry.annotation, entry.multiplicity)
        return output

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
        self._left_key_positions: list[int] | None = None
        self._right_key_positions: list[int] | None = None
        if equi_keys is not None:
            self._resolve_key_positions(equi_keys)
        self.left_bloom: BloomFilter | None = None
        self.right_bloom: BloomFilter | None = None

    def children(self) -> Sequence[IncrementalOperator]:
        return (self.left, self.right)

    def _resolve_key_positions(self, equi_keys: tuple[list[str], list[str]]) -> None:
        first, second = equi_keys
        left_schema, right_schema = self.left.output_schema, self.right.output_schema
        if all(left_schema.has(k) for k in first) and all(right_schema.has(k) for k in second):
            left_keys, right_keys = first, second
        elif all(left_schema.has(k) for k in second) and all(right_schema.has(k) for k in first):
            left_keys, right_keys = second, first
        else:
            return
        self._left_key_positions = [left_schema.index_of(k) for k in left_keys]
        self._right_key_positions = [right_schema.index_of(k) for k in right_keys]

    @property
    def is_equi_join(self) -> bool:
        """Whether the join condition is a conjunction of attribute equalities."""
        return self._left_key_positions is not None

    # -- initialisation -------------------------------------------------------------------

    def initialize(self) -> AnnotatedRelation:
        left = self.left.initialize()
        right = self.right.initialize()
        if self.use_bloom_filters and self.is_equi_join:
            self._build_blooms(left, right)
        return self._join_annotated(left, right)

    def _build_blooms(self, left: AnnotatedRelation, right: AnnotatedRelation) -> None:
        left_keys = {self._key_of(row, self._left_key_positions) for row, _a, _m in left.items()}
        right_keys = {self._key_of(row, self._right_key_positions) for row, _a, _m in right.items()}
        self.left_bloom = BloomFilter(max(len(left_keys), 16), self.bloom_false_positive_rate)
        self.left_bloom.add_all(left_keys)
        self.right_bloom = BloomFilter(max(len(right_keys), 16), self.bloom_false_positive_rate)
        self.right_bloom.add_all(right_keys)

    @staticmethod
    def _key_of(row: Row, positions: list[int] | None) -> tuple:
        assert positions is not None
        return tuple(row[p] for p in positions)

    def _join_annotated(
        self, left: AnnotatedRelation, right: AnnotatedRelation
    ) -> AnnotatedRelation:
        result = AnnotatedRelation(self.output_schema)
        condition = self._condition_fn
        if self.is_equi_join:
            index: dict[tuple, list[tuple[Row, BitSet, int]]] = {}
            for row, annotation, multiplicity in right.items():
                index.setdefault(self._key_of(row, self._right_key_positions), []).append(
                    (row, annotation, multiplicity)
                )
            for row, annotation, multiplicity in left.items():
                for other_row, other_annotation, other_mult in index.get(
                    self._key_of(row, self._left_key_positions), ()
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
        combined: dict[tuple[Row, BitSet], int] = {}
        if not left_delta and not right_delta:
            return AnnotatedDelta(self.output_schema)

        left_signed = left_delta.signed_entries()
        right_signed = right_delta.signed_entries()

        # Refresh the Bloom filters with this batch's insertions FIRST: the
        # backend already holds the new state of both sides, so a delta tuple
        # may join with a row inserted on the other side within the same batch.
        # Pruning against stale filters would drop those combinations from the
        # ΔQ1 ⋈ Q2' / Q1' ⋈ ΔQ2 terms while the ΔQ1 ⋈ ΔQ2 correction still
        # subtracts them, breaking the over-approximation guarantee.
        self._update_blooms(left_delta, right_delta)

        # Term A: ΔQ1 ⋈ Q2' (outsourced to the backend database).
        surviving_left = self._bloom_filter(left_signed, self._left_key_positions, self.right_bloom)
        if surviving_left:
            right_state = self._evaluate_side(self.right_plan, len(surviving_left))
            self._join_delta_with_state(
                surviving_left, right_state, combined, delta_on_left=True
            )
        # Term B: Q1' ⋈ ΔQ2.
        surviving_right = self._bloom_filter(
            right_signed, self._right_key_positions, self.left_bloom
        )
        if surviving_right:
            left_state = self._evaluate_side(self.left_plan, len(surviving_right))
            self._join_delta_with_state(
                surviving_right, left_state, combined, delta_on_left=False
            )
        # Term C: − ΔQ1 ⋈ ΔQ2 (computed in memory; corrects double counting).
        if left_signed and right_signed:
            self._join_deltas(left_signed, right_signed, combined)

        return AnnotatedDelta.from_signed(self.output_schema, combined)

    def _bloom_filter(
        self,
        signed: dict[tuple[Row, BitSet], int],
        positions: list[int] | None,
        other_bloom: BloomFilter | None,
    ) -> dict[tuple[Row, BitSet], int]:
        if not signed:
            return signed
        if not self.use_bloom_filters or other_bloom is None or positions is None:
            return signed
        surviving: dict[tuple[Row, BitSet], int] = {}
        for (row, annotation), multiplicity in signed.items():
            key = self._key_of(row, positions)
            if key in other_bloom:
                surviving[(row, annotation)] = multiplicity
            else:
                self.statistics.bloom_filtered_tuples += abs(multiplicity)
        return surviving

    def _evaluate_side(self, plan: PlanNode, shipped: int) -> AnnotatedRelation:
        self.statistics.backend_round_trips += 1
        self.statistics.tuples_shipped_to_backend += shipped
        return AnnotatedEvaluator(self.provider, self.partition).evaluate(plan)

    def _join_delta_with_state(
        self,
        signed: dict[tuple[Row, BitSet], int],
        state: AnnotatedRelation,
        combined: dict[tuple[Row, BitSet], int],
        delta_on_left: bool,
    ) -> None:
        if self.is_equi_join:
            state_positions = (
                self._right_key_positions if delta_on_left else self._left_key_positions
            )
            delta_positions = (
                self._left_key_positions if delta_on_left else self._right_key_positions
            )
            index: dict[tuple, list[tuple[Row, BitSet, int]]] = {}
            for row, annotation, multiplicity in state.items():
                index.setdefault(self._key_of(row, state_positions), []).append(
                    (row, annotation, multiplicity)
                )
            for (row, annotation), signed_mult in signed.items():
                self.statistics.tuples_processed += abs(signed_mult)
                for other_row, other_annotation, other_mult in index.get(
                    self._key_of(row, delta_positions), ()
                ):
                    self._emit(
                        combined, row, other_row, annotation, other_annotation,
                        signed_mult * other_mult, delta_on_left,
                    )
            return
        for (row, annotation), signed_mult in signed.items():
            self.statistics.tuples_processed += abs(signed_mult)
            for other_row, other_annotation, other_mult in state.items():
                self._emit(
                    combined, row, other_row, annotation, other_annotation,
                    signed_mult * other_mult, delta_on_left,
                )

    def _join_deltas(
        self,
        left_signed: dict[tuple[Row, BitSet], int],
        right_signed: dict[tuple[Row, BitSet], int],
        combined: dict[tuple[Row, BitSet], int],
    ) -> None:
        for (left_row, left_annotation), left_mult in left_signed.items():
            for (right_row, right_annotation), right_mult in right_signed.items():
                # Subtracted term of the delta identity.
                self._emit(
                    combined, left_row, right_row, left_annotation, right_annotation,
                    -(left_mult * right_mult), delta_on_left=True,
                )

    def _emit(
        self,
        combined: dict[tuple[Row, BitSet], int],
        row: Row,
        other_row: Row,
        annotation: BitSet,
        other_annotation: BitSet,
        signed_multiplicity: int,
        delta_on_left: bool,
    ) -> None:
        if delta_on_left:
            joined = row + other_row
        else:
            joined = other_row + row
        if self._condition_fn is not None and self._condition_fn(joined) is not True:
            return
        key = (joined, annotation | other_annotation)
        combined[key] = combined.get(key, 0) + signed_multiplicity
        if combined[key] == 0:
            del combined[key]

    def _update_blooms(self, left_delta: AnnotatedDelta, right_delta: AnnotatedDelta) -> None:
        if not self.use_bloom_filters or not self.is_equi_join:
            return
        if self.left_bloom is not None:
            for entry in left_delta.inserts():
                self.left_bloom.add(self._key_of(entry.row, self._left_key_positions))
        if self.right_bloom is not None:
            for entry in right_delta.inserts():
                self.right_bloom.add(self._key_of(entry.row, self._right_key_positions))

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
            group.apply(self._argument_values(row), annotation, multiplicity)
        result = AnnotatedRelation(self.output_schema)
        for group in self.state:
            result.add(group.key + group.output_values(), group.sketch(), 1)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        factory = self._accumulator_factory()
        snapshots: dict[tuple, tuple[bool, tuple, BitSet]] = {}
        for entry in child.tuples():
            self.statistics.tuples_processed += entry.multiplicity
            key = self._group_key(entry.row)
            group = self.state.get_or_create(key, factory)
            if key not in snapshots:
                if group.exists and not group.exhausted():
                    snapshots[key] = (True, group.output_values(), group.sketch())
                else:
                    snapshots[key] = (False, (), BitSet())
            signed = entry.multiplicity if entry.is_insert else -entry.multiplicity
            group.apply(self._argument_values(entry.row), entry.annotation, signed)
        for key, (existed, old_values, old_sketch) in snapshots.items():
            group = self.state.get(key)
            assert group is not None
            if group.exhausted():
                self.needs_recapture = True
            new_exists = group.exists and not group.exhausted()
            if existed:
                output.add_delete(key + old_values, old_sketch, 1)
            if new_exists:
                output.add_insert(key + group.output_values(), group.sketch(), 1)
            if not group.exists:
                self.state.drop(key)
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
            self.state.get_or_create(row).apply([], annotation, multiplicity)
        result = AnnotatedRelation(self.output_schema)
        for row, group in self.state.rows.items():
            result.add(row, group.sketch(), 1)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        snapshots: dict[Row, tuple[bool, BitSet]] = {}
        for entry in child.tuples():
            self.statistics.tuples_processed += entry.multiplicity
            group = self.state.get_or_create(entry.row)
            if entry.row not in snapshots:
                snapshots[entry.row] = (group.exists, group.sketch())
            signed = entry.multiplicity if entry.is_insert else -entry.multiplicity
            group.apply([], entry.annotation, signed)
        for row, (existed, old_sketch) in snapshots.items():
            group = self.state.rows[row]
            if existed:
                output.add_delete(row, old_sketch, 1)
            if group.exists:
                output.add_insert(row, group.sketch(), 1)
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
                self.state.add(self._sort_key(row), row, annotation, multiplicity)
                continue
            if remaining > 0:
                take = min(multiplicity, remaining)
                self.state.add(self._sort_key(row), row, annotation, take)
                remaining -= take
                overflow = multiplicity - take
            else:
                overflow = multiplicity
            self.state.overflow_count += overflow
        result = AnnotatedRelation(self.output_schema)
        for row, annotation, multiplicity in self.state.top_k(self.k):
            result.add(row, annotation, multiplicity)
        return result

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:
        child = self.child.process(db_delta)
        output = AnnotatedDelta(self.output_schema)
        if not child:
            return output
        old_top = self.state.top_k(self.k) if self.state.can_answer(self.k) else []
        for entry in child.tuples():
            self.statistics.tuples_processed += entry.multiplicity
            key = self._sort_key(entry.row)
            if entry.is_insert:
                self.state.add(key, entry.row, entry.annotation, entry.multiplicity)
            else:
                self.state.remove(key, entry.row, entry.annotation, entry.multiplicity)
        if not self.state.can_answer(self.k):
            self.needs_recapture = True
            return output
        new_top = self.state.top_k(self.k)
        old_bag = _to_bag(old_top)
        new_bag = _to_bag(new_top)
        for key, multiplicity in old_bag.items():
            surviving = min(multiplicity, new_bag.get(key, 0))
            if multiplicity > surviving:
                output.add_delete(key[0], key[1], multiplicity - surviving)
        for key, multiplicity in new_bag.items():
            surviving = min(multiplicity, old_bag.get(key, 0))
            if multiplicity > surviving:
                output.add_insert(key[0], key[1], multiplicity - surviving)
        return output

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()

    def describe(self) -> str:
        buffer = self.buffer_limit if self.buffer_limit is not None else "all"
        return f"IncTopK(k={self.k}, buffer={buffer})"


def _to_bag(entries: list[tuple[Row, BitSet, int]]) -> dict[tuple[Row, BitSet], int]:
    bag: dict[tuple[Row, BitSet], int] = {}
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
        for _row, annotation, multiplicity in child.items():
            for fragment in annotation:
                self.state.update(fragment, multiplicity)
        return child

    def current_fragments(self) -> set[int]:
        """The fragments currently justified by at least one result tuple."""
        return self.state.active_fragments()

    def process(self, db_delta: DatabaseDelta) -> AnnotatedDelta:  # pragma: no cover
        raise NotImplementedError("use process_to_sketch_delta for the merge operator")

    def process_to_sketch_delta(self, db_delta: DatabaseDelta) -> SketchDelta:
        """Process a database delta and return the resulting sketch delta."""
        child = self.child.process(db_delta)
        before: dict[int, int] = {}
        for entry in child.tuples():
            signed = entry.multiplicity if entry.is_insert else -entry.multiplicity
            for fragment in entry.annotation:
                if fragment not in before:
                    before[fragment] = self.state.count(fragment)
                self.state.update(fragment, signed)
        added = set()
        removed = set()
        for fragment, old_count in before.items():
            new_count = self.state.count(fragment)
            if old_count <= 0 < new_count:
                added.add(fragment)
            elif old_count > 0 >= new_count:
                removed.add(fragment)
        return SketchDelta(frozenset(added), frozenset(removed))

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()
