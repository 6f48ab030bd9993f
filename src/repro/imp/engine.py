"""The IMP incremental engine.

:func:`compile_plan` turns a logical query plan into a tree of incremental
operators (Sec. 5.2); :class:`IncrementalEngine` compiles the plan
:func:`prune_plan` leaves of it -- only what ``μ`` reads, cut by the query
optimizer's pruning pass, which here narrows no join input -- tops the tree
with the merge operator ``μ`` (Sec. 5.1) and runs it in two ways.
``initialize`` is one from-scratch pass -- the whole database as an insert delta through
empty state -- which builds operator state and doubles as sketch capture;
``maintain`` is a delta pass that turns a database delta into a sketch delta
in time proportional to the delta size.  The engine's stateful operators form
one :class:`~repro.imp.operators.SharedNode`, which the sketch store may hand
to several engines.

:func:`capture_sketch` is the same from-scratch pass over a tree that is
thrown away afterwards.  It is the only annotated evaluation of a plan in
``src/``; the row-at-a-time oracle it is tested against lives in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

from repro.core.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
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
from repro.relational.expressions import Expression, conjuncts, conjunction
from repro.relational.optimizer import PlanOptimizer
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
    IncrementalShared,
    IncrementalTableAccess,
    IncrementalTopK,
    MergeOperator,
    Pass,
    SharedNode,
)


@dataclass
class IMPConfig:
    """Tuning knobs of the incremental engine (Sec. 7.2 optimizations).

    ``use_bloom_filters``
        Summarise each equi-join side by a Bloom filter on its join keys and
        prune delta tuples of the other side with it, so a side whose partners
        are never needed is never evaluated.  Without filters every side is
        evaluated (once) at the first delta of the other side.
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


@dataclass
class MaintenanceOutcome:
    """Result of one incremental maintenance run."""

    sketch_delta: SketchDelta
    needs_recapture: bool = False


def prune_plan(plan: PlanNode, catalog: SchemaProvider) -> PlanNode:
    """The plan an engine compiles for ``plan``: what ``μ`` reads of it.

    ``μ`` reads masks and counts only, so the projections directly under it
    go, and :meth:`~repro.relational.optimizer.PlanOptimizer.prune` runs on
    the rest with no column needed at its root: every aggregate and projected
    column that no operator between it and ``μ`` reads is dropped, a GROUP BY
    left without an aggregate becomes ``Distinct`` over its keys, and a top-k
    subtree stays whole.  Unlike a query's, no join input is narrowed.  The
    query's own plan -- which the use rewrite and the query answers run on --
    is left as it is.
    """
    while isinstance(plan, Projection):
        plan = plan.child
    return PlanOptimizer(catalog).prune(plan, set())


def compile_plan(
    node: PlanNode, partition: DatabasePartition, database: Database, config: IMPConfig
) -> IncrementalOperator:
    """Compile a logical plan into a tree of incremental operators (without ``μ``)."""

    def compile_child(plan: PlanNode) -> IncrementalOperator:
        return compile_plan(plan, partition, database, config)

    if isinstance(node, TableScan):
        return IncrementalTableAccess(
            node.table, node.alias, database.schema_of(node.table), partition, database
        )
    if isinstance(node, Selection):
        child = compile_child(node.child)
        if config.selection_pushdown:
            _push_delta_filter(node, child)
        return IncrementalSelection(child, node.predicate)
    if isinstance(node, Projection):
        return IncrementalProjection(
            compile_child(node.child),
            [item.expression for item in node.items],
            Schema(item.alias for item in node.items),
        )
    if isinstance(node, Join):
        # The tree a join evaluates a whole side on is thrown away after one
        # from-scratch pass: it never prunes, so it needs no Bloom filters.
        side_config = replace(config, use_bloom_filters=False)
        return IncrementalJoin(
            compile_child(node.left),
            compile_child(node.right),
            node,
            lambda plan: compile_plan(plan, partition, database, side_config),
            use_bloom_filters=config.use_bloom_filters,
        )
    if isinstance(node, Aggregation):
        return IncrementalAggregation(
            compile_child(node.child),
            node.group_by,
            node.aggregates,
            node.output_schema(database),
            min_max_buffer=config.min_max_buffer,
        )
    if isinstance(node, Distinct):
        return IncrementalDistinct(compile_child(node.child))
    if isinstance(node, TopK):
        return IncrementalTopK(
            compile_child(node.child), node.k, node.order_by, buffer_limit=config.topk_buffer
        )
    raise PlanError(
        f"IMP does not support incremental maintenance of {type(node).__name__}; "
        "fall back to full maintenance"
    )


def _push_delta_filter(node: Selection, child: IncrementalOperator) -> None:
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
    target.delta_filter = conjunction(pushable + conjuncts(target.delta_filter))


def capture_sketch(
    plan: PlanNode, partition: DatabasePartition, database: Database
) -> ProvenanceSketch:
    """Capture a provenance sketch for ``plan`` over the current database state:
    one from-scratch pass over an operator tree that is thrown away."""
    return IncrementalEngine(
        plan, partition, database, IMPConfig(use_bloom_filters=False)
    ).initialize()


class IncrementalEngine:
    """Compiles and drives the incremental operator tree for one query.

    The tree is compiled from :func:`prune_plan`'s plan, and the outermost
    stateful operator with everything below it is a :class:`SharedNode` that
    the sketch store may replace by an equal one other engines hold
    (:meth:`share`); ``μ`` and the stateless operators above the node are the
    engine's own.
    """

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
        self.pruned = prune_plan(plan, database)
        self._merge = self._compile()
        self._initialized = False
        self.initialized_at_version: int | None = None

    def _compile(self) -> MergeOperator:
        """The operator tree, with a view of a :class:`SharedNode` put under
        the selections and projections that sit above the first stateful
        operator (the only one on that path: every binary operator is
        stateful)."""
        merge = MergeOperator(
            compile_plan(self.pruned, self.partition, self.database, self.config)
        )
        above, plan = merge, self.pruned
        while isinstance(above.child, (IncrementalSelection, IncrementalProjection)):
            above, plan = above.child, plan.child
        self._view: IncrementalShared | None = None
        if isinstance(plan, (Aggregation, Distinct, Join, TopK)):
            operator = above.child
            self._view = IncrementalShared(
                SharedNode(operator, self.fingerprint(plan)), operator.output_schema
            )
            above.child = self._view
        return merge

    def fingerprint(self, node: PlanNode) -> tuple:
        """What the stateful subplan ``node`` of this engine computes: the
        subplan with its output aliases replaced by positions, the partition
        of every table it reads (:meth:`DatabasePartition.masks_key`) and the
        configuration."""
        if isinstance(node, Aggregation):
            width = len(node.group_by)
            aggregates = [
                Aggregate(a.function, a.argument, f"#{width + i}")
                for i, a in enumerate(node.aggregates)
            ]
            node = Aggregation(node.child, node.group_by, aggregates)
        elif isinstance(node, Distinct) and isinstance(node.child, Projection):
            items = [
                ProjectionItem(item.expression, f"#{i}") for i, item in enumerate(node.child.items)
            ]
            node = Distinct(Projection(node.child.child, items))
        partition = self.partition
        tables = tuple(
            partition.masks_key(table) if partition.has_table(table) else (table,)
            for table in sorted(node.referenced_tables())
        )
        return node.explain(), tables, astuple(self.config)

    @property
    def shared(self) -> SharedNode | None:
        """The node holding the engine's stateful operators (None for a plan
        without any)."""
        return None if self._view is None else self._view.node

    def share(self, node: SharedNode) -> None:
        """Read ``node`` -- equal to the engine's own in fingerprint, and in
        state to what the engine's own holds, or will hold once the engine
        has captured -- in place of the engine's own node."""
        assert self._view is not None and node.fingerprint == self._view.node.fingerprint
        self._view.node = node

    # -- lifecycle ----------------------------------------------------------------------

    def initialize(self) -> ProvenanceSketch:
        """Build all operator state and capture the initial sketch.

        This corresponds to executing the capture query: one from-scratch pass
        that simultaneously fills the state of every stateful operator, which
        must be empty (a new engine, or one that was :meth:`reset`) -- or be a
        node the engine was handed (:meth:`share`) that a pass built at this
        version, whose result the pass reads back.  It is not delta work, so
        the engine's counters stay as they are.
        """
        version = self.database.version
        self._merge.process_to_sketch_delta(Pass.scratch(version))
        self._initialized = True
        self.initialized_at_version = version
        return self.current_sketch()

    @property
    def is_initialized(self) -> bool:
        """Whether operator state has been built."""
        return self._initialized

    def current_sketch(self) -> ProvenanceSketch:
        """The sketch justified by the current operator state."""
        return ProvenanceSketch.of_mask(self.partition, self._merge.mask)

    def maintain(
        self, db_delta: DatabaseDelta, target_version: int, memo: dict | None = None
    ) -> MaintenanceOutcome:
        """Incrementally maintain the sketch for a database delta.

        ``db_delta`` brings the referenced tables to ``target_version``.
        Whatever the pass has to read beside the delta -- a join side it
        evaluates for the first time -- is read as of that version, so commits
        that land while the pass runs are left, whole, to the next delta.
        ``memo`` is the :attr:`Pass.memo` a maintenance round shares between
        the engines it feeds the same deltas to (a new one when None).
        """
        if not self._initialized:
            raise PlanError("engine must be initialized before maintenance")
        if db_delta is None:
            raise PlanError("maintenance needs a database delta")
        self.statistics.maintenance_runs += 1
        sketch_delta = self._merge.process_to_sketch_delta(
            Pass(db_delta, self.statistics, target_version, {} if memo is None else memo)
        )
        return MaintenanceOutcome(
            sketch_delta=sketch_delta,
            needs_recapture=self._merge.recapture_needed(),
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
        """Discard all operator state (e.g. before a recapture) -- a shared
        node is left to its other consumers; the counters are cumulative over
        the engine's lifetime and stay."""
        self._merge = self._compile()
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
