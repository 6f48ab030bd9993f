"""External tracing: spans around the layers' public callables.

Nothing under ``src/repro`` knows about this module.  :class:`Tracer.install`
replaces a fixed table of *public* callables with recording wrappers -- class
methods on the class, module functions in the namespace that looks them up
(``repro.imp.middleware.instrument_plan`` is the name the middleware calls,
not ``repro.sketch.use.instrument_plan``) -- and :meth:`Tracer.uninstall` puts
every original back.  Only coarse boundaries are wrapped (a few dozen spans
per operation, nothing per row).

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op_id`` numbers the workload operation
(one ``run_query`` / ``apply_update`` call) it belongs to, -1 outside any.
Spans are kept in memory; the driver writes them out after the run.

A span's **self time** is its duration minus the time covered by its direct
children.  The benchmark is single-threaded, so spans nest properly and the
self times of one operation add up to the operation's wall time exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

import repro.imp.middleware as middleware
import repro.relational.kernels as kernels
import repro.sql.template as sql_template
import repro.sql.translator as sql_translator
import repro.storage.wal as wal
from repro.imp.engine import IncrementalEngine
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.scheduler import MaintenanceScheduler
from repro.relational.evaluator import Evaluator
from repro.relational.optimizer import PlanOptimizer
from repro.storage.database import Database
from repro.storage.delta import Delta
from repro.storage.recovery import DurabilityManager
from repro.storage.wal import OsFile, WriteAheadLog

OP_QUERY = "op.query"
OP_UPDATE = "op.update"


@dataclass(frozen=True)
class Patch:
    """One wrapped callable: ``owner.attribute`` recorded as span ``name``.

    ``measure(tracer, args, result)`` optionally feeds counters on every call
    (rows a scan returned, bytes a checkpoint wrote).
    """

    name: str
    owner: object
    attribute: str
    measure: Callable[["Tracer", tuple, object], None] | None = None


def _count_length(counter: str) -> Callable[["Tracer", tuple, object], None]:
    def measure(tracer: "Tracer", _args: tuple, result: object) -> None:
        tracer.counters[counter] += len(result)  # type: ignore[arg-type]

    return measure


def _count_column_batch(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counters["relational.rows_scanned"] += len(result)  # type: ignore[arg-type]
    # The per-version cache hands out the same batch object until a commit
    # drops it, so a new object is a rebuild.  The last batch is kept alive
    # here so its identity cannot be reused by the next one.
    table = args[1]
    if tracer.last_batch.get(table) is not result:
        tracer.last_batch[table] = result
        tracer.counters["storage.column_batch_rebuilds"] += 1


def _count_checkpoint_bytes(tracer: "Tracer", _args: tuple, result: object) -> None:
    tracer.counters["storage.checkpoint_bytes"] += os.path.getsize(result)  # type: ignore[arg-type]


def _count_maintained_tuples(tracer: "Tracer", _args: tuple, result: object) -> None:
    tracer.counters["imp.maintained_delta_tuples"] += result.delta_tuples  # type: ignore[attr-defined]


_rows_scanned = _count_length("relational.rows_scanned")
_rows_returned = _count_length("relational.rows_returned")

PATCHES: tuple[Patch, ...] = (
    # Operation roots: one span per workload operation.
    Patch(OP_QUERY, middleware.SketchBasedSystem, "run_query", _rows_returned),
    Patch(OP_QUERY, middleware.NoSketchSystem, "run_query", _rows_returned),
    Patch(OP_UPDATE, middleware.WorkloadSystem, "apply_update"),
    # sql
    Patch("sql.parse", sql_translator, "parse_select"),
    Patch("sql.parse", sql_template, "parse_select"),
    Patch("sql.translate", sql_translator.Translator, "translate"),
    Patch("sql.template", middleware, "template_of"),
    # relational
    Patch("relational.optimize", PlanOptimizer, "optimize"),
    Patch("relational.evaluate", Evaluator, "evaluate"),
    Patch("relational.kernel_filter", kernels, "filter_batch"),
    Patch("relational.kernel_project", kernels, "project_batch"),
    Patch("relational.kernel_join", kernels, "hash_join_batch"),
    Patch("relational.kernel_aggregate", kernels, "aggregate_batch"),
    Patch("relational.kernel_distinct", kernels, "distinct_batch"),
    # sketch
    Patch("sketch.partition", middleware, "build_database_partition"),
    Patch("sketch.capture", IncrementalMaintainer, "capture"),
    Patch("sketch.instrument", middleware, "instrument_plan"),
    # imp
    Patch("imp.ensure", MaintenanceScheduler, "ensure_entry"),
    Patch("imp.round", MaintenanceScheduler, "run_round"),
    Patch("imp.maintain", IncrementalMaintainer, "maintain_with", _count_maintained_tuples),
    Patch("imp.restrict", IncrementalEngine, "restrict_delta"),
    # storage
    Patch("storage.commit", Database, "apply_database_delta"),
    Patch("storage.delta_fetch", Database, "delta_since"),
    Patch("storage.delta_compact", Delta, "compacted"),
    Patch("storage.index_scan", Database, "index_scan", _rows_scanned),
    Patch("storage.column_batch", Database, "column_batch", _count_column_batch),
    Patch("storage.row_scan", Database, "relation", _rows_scanned),
    Patch("storage.wal_append", WriteAheadLog, "append"),
    # ``frame`` runs inside ``append``; its result is exactly the bytes appended.
    Patch("storage.wal_frame", wal, "frame", _count_length("storage.wal_bytes")),
    Patch("storage.fsync", OsFile, "sync"),
    Patch("storage.checkpoint", DurabilityManager, "checkpoint", _count_checkpoint_bytes),
)

Span = tuple[str, float, float, int, int]


class Tracer:
    """Records spans for the callables in :data:`PATCHES` while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._next_op = 0
        self._originals: list[tuple[Patch, object]] = []
        self.last_batch: dict[str, object] = {}

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`PATCHES`."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for patch in PATCHES:
            original = getattr(patch.owner, patch.attribute)
            self._originals.append((patch, original))
            setattr(patch.owner, patch.attribute, self._wrap(patch, original))

    def uninstall(self) -> None:
        """Restore every original callable."""
        while self._originals:
            patch, original = self._originals.pop()
            setattr(patch.owner, patch.attribute, original)

    @staticmethod
    def installed_patches() -> list[str]:
        """Patched callables currently in place (empty when fully restored)."""
        return [
            f"{getattr(patch.owner, '__name__', patch.owner)}.{patch.attribute}"
            for patch in PATCHES
            if getattr(getattr(patch.owner, patch.attribute), "_bench_span", False)
        ]

    def _wrap(self, patch: Patch, original: Callable) -> Callable:
        name = patch.name
        spans = self.spans
        stack = self._stack
        measure = patch.measure
        is_root = name in (OP_QUERY, OP_UPDATE)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # Only the outermost run_query/apply_update opens an operation.
            opens_op = is_root and not stack
            if opens_op:
                self._op_id = self._next_op
                self._next_op += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # type: ignore[arg-type]  # reserves the parent's slot
            stack.append(index)
            started = clock()
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    measure(self, args, result)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (name, started, ended, parent, self._op_id)
                if opens_op:
                    self._op_id = -1

        wrapper._bench_span = True  # type: ignore[attr-defined]
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus its direct children's."""
    result = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def aggregate(spans: list[Span], own: list[float], first: int = 0) -> dict[str, tuple[int, float]]:
    """``{span name: (calls, total self seconds)}`` over ``spans[first:]``,
    given ``own = self_times(spans)``.

    Children always follow their parent in the list, so slicing at an
    operation boundary never separates a span from its children.
    """
    totals: dict[str, tuple[int, float]] = {}
    for index in range(first, len(spans)):
        name = spans[index][0]
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + own[index])
    return totals
