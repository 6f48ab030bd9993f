"""The sketch store: IMP's catalog of managed sketches.

IMP stores sketches in a hash table keyed by the query template of the query
they were captured for (paper Sec. 7.1).  Each entry holds the sketch itself,
the query and plan, the partition it is defined over, the database version it
is valid for, and the maintainer (whose incremental operator state can also be
persisted into the backend database so maintenance can resume after a restart
or after state eviction, Sec. 2).

The store supports two eviction modes that can be combined:

* ``capacity`` bounds the number of entries; the victim is the least useful
  entry (lowest ``use_count``, least recently used on ties).
* ``max_bytes`` bounds the total memory of sketches plus maintenance state;
  victims are chosen by recency (least recently used first, lowest
  ``use_count`` on ties) until the store fits the budget again.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass

from repro.imp.maintenance import BaseMaintainer
from repro.relational.algebra import PlanNode, walk_plan
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.sql.template import QueryTemplate


@dataclass
class SketchEntry:
    """One managed sketch and everything needed to maintain and reuse it."""

    template: QueryTemplate
    sql: str
    plan: PlanNode
    partition: DatabasePartition
    maintainer: BaseMaintainer
    use_count: int = 0
    maintenance_count: int = 0
    capture_seconds: float = 0.0
    maintenance_seconds: float = 0.0
    last_used_tick: int = 0
    # Cache of the (optimized) instrumented plan, valid while the sketch
    # equals ``instrumented_sketch``: the rewritten plan is a function of
    # ``(plan, sketch)``, and most maintenance leaves the sketch as it was.
    # Avoids re-running the use rewrite and the optimizer on every sketch-hit
    # query.  Set via :meth:`set_instrumented` so the plan counts toward the
    # store's memory budget.
    instrumented_plan: PlanNode | None = None
    instrumented_sketch: ProvenanceSketch | None = None
    instrumented_bytes: int = 0

    def set_instrumented(self, plan: PlanNode, sketch: ProvenanceSketch) -> None:
        """Cache the instrumented plan built for ``sketch``.

        The plan's footprint is estimated once (node overhead plus rendered
        operator descriptions, which include the sketch's BETWEEN disjunction)
        so ``max_bytes`` eviction sees it.
        """
        self.instrumented_plan = plan
        self.instrumented_sketch = sketch
        self.instrumented_bytes = sum(
            64 + 2 * len(node.describe()) for node in walk_plan(plan)
        )

    @property
    def sketch(self) -> ProvenanceSketch | None:
        """The latest sketch version (None before the first capture)."""
        return self.maintainer.sketch

    @property
    def valid_at_version(self) -> int | None:
        """Database version the sketch is valid for."""
        return self.maintainer.valid_at_version

    def referenced_tables(self) -> set[str]:
        """Tables whose updates can make this sketch stale."""
        return self.plan.referenced_tables()

    def memory_bytes(self) -> int:
        """Memory used by the sketch, its maintenance state and the cached
        instrumented plan."""
        sketch_bytes = self.sketch.byte_size() if self.sketch is not None else 0
        return sketch_bytes + self.maintainer.memory_bytes() + self.instrumented_bytes


@dataclass
class StoreStatistics:
    """Aggregate counters of the sketch store."""

    hits: int = 0
    misses: int = 0
    captures: int = 0
    maintenances: int = 0
    evictions: int = 0
    bytes_evictions: int = 0


class SketchStore:
    """A template-keyed collection of :class:`SketchEntry` objects.

    Thread-safe: lookups, recency ticks, use-counts and eviction run under
    one internal lock, so the query path and the background maintenance
    thread can touch the store concurrently without losing ticks or counts
    (interleaved ``tick += 1`` / ``use_count += 1`` updates are not atomic in
    CPython).  The lock is reentrant because registration re-checks the
    memory budget.
    """

    def __init__(
        self, capacity: int | None = None, max_bytes: int | None = None
    ) -> None:
        self._entries: dict[str, SketchEntry] = {}
        self._capacity = capacity
        self._max_bytes = max_bytes
        self._tick = 0
        self._lock = threading.RLock()
        self.statistics = StoreStatistics()

    @property
    def max_bytes(self) -> int | None:
        """Memory budget for sketches plus maintenance state (None = unbounded)."""
        return self._max_bytes

    # -- lookup --------------------------------------------------------------------

    def get(self, template: QueryTemplate) -> SketchEntry | None:
        """Look up the entry for a query template (tracks hit/miss counters)."""
        with self._lock:
            entry = self._entries.get(template.text)
            if entry is None:
                self.statistics.misses += 1
            else:
                self.statistics.hits += 1
                self.touch(entry)
            return entry

    def peek(self, template: QueryTemplate) -> SketchEntry | None:
        """Look up an entry without touching hit/miss counters or recency.

        Used by capture paths that re-check the store under their own lock: a
        double-checked re-read must not inflate the hit statistics.
        """
        with self._lock:
            return self._entries.get(template.text)

    def touch(self, entry: SketchEntry) -> None:
        """Mark ``entry`` as just used (feeds recency-aware eviction)."""
        with self._lock:
            self._tick += 1
            entry.last_used_tick = self._tick

    def record_use(self, entry: SketchEntry) -> None:
        """Count one sketch use and refresh recency, atomically.

        The query path and the background maintenance thread both mutate
        entry metadata; doing the increment under the store lock keeps
        ``use_count`` (an eviction input) exact under concurrency.
        """
        with self._lock:
            entry.use_count += 1
            self.touch(entry)

    def __contains__(self, template: QueryTemplate) -> bool:
        return template.text in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[SketchEntry]:
        """Iterate over all managed sketches.

        Returns an iterator over a point-in-time copy, so callers can walk it
        while other threads register or evict entries.
        """
        with self._lock:
            return iter(list(self._entries.values()))

    def entries_for_table(self, table: str) -> list[SketchEntry]:
        """Entries whose query references ``table`` (candidates for maintenance)."""
        table = table.lower()
        with self._lock:
            candidates = list(self._entries.values())
        return [
            entry for entry in candidates if table in entry.referenced_tables()
        ]

    # -- mutation --------------------------------------------------------------------

    def put(self, entry: SketchEntry) -> None:
        """Register a new entry, evicting the least recently useful one if full.

        Re-putting an existing template replaces the entry without counting a
        new capture or triggering capacity eviction.
        """
        with self._lock:
            is_new = entry.template.text not in self._entries
            if (
                is_new
                and self._capacity is not None
                and len(self._entries) >= self._capacity
            ):
                self._evict_one()
            self.touch(entry)
            self._entries[entry.template.text] = entry
            if is_new:
                self.statistics.captures += 1
            self.enforce_memory_budget(protect=entry)

    def remove(self, template: QueryTemplate) -> None:
        """Drop the entry for a template (no error when absent)."""
        with self._lock:
            self._entries.pop(template.text, None)

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()

    def _evict_one(self) -> None:
        # Least useful first; least recently used breaks use_count ties so the
        # choice is deterministic (dict order would silently depend on
        # insertion history otherwise).
        victim = min(
            self._entries.values(),
            key=lambda entry: (entry.use_count, entry.last_used_tick),
        )
        del self._entries[victim.template.text]
        self.statistics.evictions += 1

    def enforce_memory_budget(self, protect: SketchEntry | None = None) -> int:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        ``protect`` (typically the entry that was just registered) is never
        evicted, so a budget smaller than one sketch degenerates to keeping
        exactly the hottest entry rather than thrashing.  Returns the number of
        entries evicted.  Callers may also invoke this after maintenance
        rounds, when operator state -- not registration -- grew the footprint.
        """
        if self._max_bytes is None:
            return 0
        with self._lock:
            # Size each entry once and evict cheapest-first from a sorted
            # victim list, keeping a running total: evicting k of N entries
            # costs one footprint walk, not one per eviction.
            sizes = {
                entry.template.text: entry.memory_bytes()
                for entry in self._entries.values()
            }
            total = sum(sizes.values())
            victims = sorted(
                (entry for entry in self._entries.values() if entry is not protect),
                key=lambda entry: (entry.last_used_tick, entry.use_count),
            )
            evicted = 0
            for victim in victims:
                if total <= self._max_bytes:
                    break
                del self._entries[victim.template.text]
                total -= sizes[victim.template.text]
                self.statistics.evictions += 1
                self.statistics.bytes_evictions += 1
                evicted += 1
            return evicted

    # -- reporting ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Total memory used by sketches and their maintenance state."""
        with self._lock:
            return sum(entry.memory_bytes() for entry in self._entries.values())

    def summary(self) -> dict[str, object]:
        """A compact report used by the examples and the benchmark harness."""
        return {
            "sketches": len(self._entries),
            "hits": self.statistics.hits,
            "misses": self.statistics.misses,
            "captures": self.statistics.captures,
            "maintenances": self.statistics.maintenances,
            "evictions": self.statistics.evictions,
            "memory_bytes": self.memory_bytes(),
        }
