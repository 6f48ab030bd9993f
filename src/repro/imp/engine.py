"""The IMP incremental engine.

:class:`IncrementalEngine` compiles a logical query plan into a tree of
incremental operators (Sec. 5.2) topped by the merge operator ``μ`` (Sec. 5.1),
builds operator state by evaluating the query once under annotated semantics
(which doubles as sketch capture), and afterwards turns database deltas into
sketch deltas in time proportional to the delta size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import PlanError
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
from repro.relational.expressions import Expression, conjuncts, conjunction
from repro.relational.schema import Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch, SketchDelta
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta
from repro.imp.operators import (
    EngineStatistics,
    IncrementalAggregation,
    IncrementalDistinct,
    IncrementalJoin,
    IncrementalOperator,
    IncrementalProjection,
    IncrementalSelection,
    IncrementalTableAccess,
    IncrementalTopK,
    MergeOperator,
)


@dataclass
class IMPConfig:
    """Tuning knobs of the incremental engine (Sec. 7.2 optimizations).

    ``use_bloom_filters``
        Maintain Bloom filters on equi-join attributes and use them to prune
        delta tuples before outsourcing join deltas to the backend.
    ``selection_pushdown``
        Pre-filter deltas fetched from the backend with selection conditions
        whose subtree contains only stateless operators.
    ``min_max_buffer`` / ``topk_buffer``
        Keep only the best ``l`` values / tuples in min-max and top-k operator
        state; ``None`` stores everything.  Smaller buffers save memory but may
        force a recapture when deletions exhaust them.
    """

    use_bloom_filters: bool = True
    selection_pushdown: bool = True
    min_max_buffer: int | None = None
    topk_buffer: int | None = None
    bloom_false_positive_rate: float = 0.01


@dataclass
class MaintenanceOutcome:
    """Result of one incremental maintenance run."""

    sketch_delta: SketchDelta
    needs_recapture: bool = False
    statistics: EngineStatistics = field(default_factory=EngineStatistics)


class IncrementalEngine:
    """Compiles and drives the incremental operator tree for one query."""

    def __init__(
        self,
        plan: PlanNode,
        partition: DatabasePartition,
        database: Database,
        config: IMPConfig | None = None,
    ) -> None:
        self.plan = plan
        self.partition = partition
        self.database = database
        self.config = config or IMPConfig()
        self.statistics = EngineStatistics()
        self._root_child = self._compile(plan)
        self._merge = MergeOperator(self._root_child, self.statistics)
        self._initialized = False
        self.initialized_at_version: int | None = None

    # -- compilation ---------------------------------------------------------------

    def _compile(self, node: PlanNode) -> IncrementalOperator:
        if isinstance(node, TableScan):
            return IncrementalTableAccess(
                node.table,
                node.alias,
                self.database.schema_of(node.table),
                self.partition,
                self.database,
                self.statistics,
            )
        if isinstance(node, Selection):
            child = self._compile(node.child)
            if self.config.selection_pushdown:
                self._push_delta_filter(node, child)
            return IncrementalSelection(child, node.predicate, self.statistics)
        if isinstance(node, Projection):
            child = self._compile(node.child)
            schema = Schema(item.alias for item in node.items)
            return IncrementalProjection(
                child, [item.expression for item in node.items], schema, self.statistics
            )
        if isinstance(node, Join):
            left = self._compile(node.left)
            right = self._compile(node.right)
            return IncrementalJoin(
                left,
                right,
                node.left,
                node.right,
                node.condition,
                node.equi_join_keys(),
                self.database,
                self.partition,
                self.statistics,
                use_bloom_filters=self.config.use_bloom_filters,
                bloom_false_positive_rate=self.config.bloom_false_positive_rate,
            )
        if isinstance(node, Aggregation):
            child = self._compile(node.child)
            return IncrementalAggregation(
                child,
                node.group_by,
                node.aggregates,
                node.output_schema(self.database),
                self.statistics,
                min_max_buffer=self.config.min_max_buffer,
            )
        if isinstance(node, Distinct):
            return IncrementalDistinct(self._compile(node.child), self.statistics)
        if isinstance(node, TopK):
            return IncrementalTopK(
                self._compile(node.child),
                node.k,
                node.order_by,
                self.statistics,
                buffer_limit=self.config.topk_buffer,
            )
        raise PlanError(
            f"IMP does not support incremental maintenance of {type(node).__name__}; "
            "fall back to full maintenance"
        )

    def _push_delta_filter(self, node: Selection, child: IncrementalOperator) -> None:
        """Push selection conditions down to delta fetching (Sec. 7.2).

        Only applies when every operator below the selection is stateless,
        i.e. the chain down to the table access consists of selections only.
        """
        target = child
        while isinstance(target, IncrementalSelection):
            target = target.child
        if not isinstance(target, IncrementalTableAccess):
            return
        pushable: list[Expression] = []
        for predicate in conjuncts(node.predicate):
            if all(target.output_schema.has(column) for column in predicate.columns()):
                pushable.append(predicate)
        if not pushable:
            return
        combined = conjunction(pushable + conjuncts(target.delta_filter))
        target.delta_filter = combined

    # -- lifecycle ----------------------------------------------------------------------

    def initialize(self) -> ProvenanceSketch:
        """Build all operator state and capture the initial sketch.

        This corresponds to executing the capture query: one pass over the data
        under annotated semantics that simultaneously fills the state of every
        stateful operator.
        """
        self._merge.initialize()
        self._initialized = True
        self.initialized_at_version = self.database.version
        return self.current_sketch()

    @property
    def is_initialized(self) -> bool:
        """Whether operator state has been built."""
        return self._initialized

    def current_sketch(self) -> ProvenanceSketch:
        """The sketch justified by the current operator state."""
        return ProvenanceSketch(self.partition, self._merge.current_fragments())

    def maintain(self, db_delta: DatabaseDelta) -> MaintenanceOutcome:
        """Incrementally maintain the sketch for a database delta."""
        if not self._initialized:
            raise PlanError("engine must be initialized before maintenance")
        self.statistics.maintenance_runs += 1
        sketch_delta = self._merge.process_to_sketch_delta(db_delta)
        needs_recapture = self._merge.recapture_needed()
        if needs_recapture:
            self.statistics.recaptures += 1
        return MaintenanceOutcome(
            sketch_delta=sketch_delta,
            needs_recapture=needs_recapture,
            statistics=self.statistics,
        )

    def restrict_delta(self, db_delta: DatabaseDelta) -> DatabaseDelta:
        """Project a (possibly shared, multi-table) delta onto this plan.

        Shared-delta maintenance rounds fetch one delta per base table and
        hand the same :class:`DatabaseDelta` to several engines; restricting
        keeps each engine's work -- and its ``delta_tuples`` accounting --
        proportional to the tables its plan actually references.  The
        per-table :class:`~repro.storage.delta.Delta` objects are shared, not
        copied.
        """
        tables = self.plan.referenced_tables()
        restricted = DatabaseDelta()
        for table, delta in db_delta.items():
            if table in tables and delta:
                restricted.set_delta(table, delta)
        return restricted

    def reset(self) -> None:
        """Discard all operator state (e.g. before a recapture)."""
        self.statistics = EngineStatistics()
        self._root_child = self._compile(self.plan)
        self._merge = MergeOperator(self._root_child, self.statistics)
        self._initialized = False
        self.initialized_at_version = None

    # -- diagnostics ---------------------------------------------------------------------

    @property
    def needs_recapture(self) -> bool:
        """Whether any operator lost the state needed for exact maintenance."""
        return self._merge.recapture_needed()

    def memory_bytes(self) -> int:
        """Estimated memory footprint of all operator state."""
        return self._merge.total_memory_bytes()

    def explain(self) -> str:
        """Readable rendering of the incremental operator tree."""
        lines: list[str] = []

        def walk(operator: IncrementalOperator, indent: int) -> None:
            lines.append(" " * indent + operator.describe())
            for child in operator.children():
                walk(child, indent + 2)

        walk(self._merge, 0)
        return "\n".join(lines)
