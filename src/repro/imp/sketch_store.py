"""The sketch store: IMP's catalog of managed sketches.

IMP stores sketches in a hash table keyed by the query template of the query
they were captured for (paper Sec. 7.1).  Each entry holds the sketch itself,
the query and plan, the partition it is defined over, the database version it
is valid for, and the maintainer with its incremental operator state.  The
paper can persist that state so maintenance resumes after a restart or an
eviction (Sec. 2); here it lives in memory only, and an entry that leaves the
store, like any entry after a restart, is captured again when next queried.

Under memory pressure the store evicts (Sec. 2): ``max_bytes`` bounds the
total memory of sketches plus maintenance state, and the least recently used
entries leave until the store fits the budget again.  Every registration and
use takes a fresh tick, so recency alone orders the victims.

The store also interns the engines' stateful subplans: entries whose engines
compute the same subplan over the same partition
(:meth:`~repro.imp.engine.IncrementalEngine.fingerprint`) from the same
from-scratch state read one :class:`~repro.imp.operators.SharedNode`, which a
maintenance round processes once for all of them.  Which node an entry reads
is its engine's (``engine.shared``) and nothing else; the entries in the
store that read one node are its share group.  Shared state is charged once,
and stays while any of its consumers does.

A new entry is interned before its capture when the store holds an equal
node built at the current version whose root can replay its result from its
state: the capture then reads that result instead of building the same state
again.  Other nodes -- a join's state does not hold its result -- are
interned after the capture, as are recaptured ones.

Every entry was captured under the catalog the store records: its version
and the creation version of each table in it.  The first query or round that
reads a newer catalog (a DDL change) retires the entries over a table created,
dropped or recreated since (:meth:`SketchStore.retire`): no state built from a
dropped table meets a recreated one's deltas, and those templates' next
queries capture again.  Entries over other tables stay.

The store has no lock of its own: every caller holds the maintenance
scheduler's round lock (:attr:`~repro.imp.scheduler.MaintenanceScheduler.round_lock`),
which guards the store, the engines and the scheduler together.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from repro.imp.maintenance import BaseMaintainer
from repro.imp.operators import SharedNode
from repro.relational.algebra import PlanNode, walk_plan
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.sql.template import QueryTemplate
from repro.storage.table import Catalog


@dataclass
class SketchEntry:
    """One managed sketch and everything needed to maintain and reuse it."""

    template: QueryTemplate
    sql: str
    plan: PlanNode
    partition: DatabasePartition
    maintainer: BaseMaintainer
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
    # Whether the use rewrite filtered no scan for ``instrumented_sketch``:
    # the cached plan is then the plain plan, right at every version.
    skips_nothing: bool = False
    # ``(valid_at_version, delta tuples committed to the entry's tables,
    # rows they held)`` when a query last found the sketch current: the
    # query path answers a sketch that skips nothing without maintaining it
    # while the tuples committed since stay fewer than those rows.
    caught_up: tuple[int, int, int] | None = None

    def set_instrumented(
        self, plan: PlanNode, sketch: ProvenanceSketch, skips_nothing: bool
    ) -> None:
        """Cache the instrumented plan built for ``sketch``, and whether the
        rewrite left the plan as it was
        (:func:`~repro.sketch.use.skips_nothing`).

        The plan's footprint is estimated once (node overhead plus rendered
        operator descriptions, which include the sketch's BETWEEN disjunction)
        so ``max_bytes`` eviction sees it.
        """
        self.instrumented_plan = plan
        self.instrumented_sketch = sketch
        self.skips_nothing = skips_nothing
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

    def referenced_tables(self) -> frozenset[str]:
        """Tables whose updates can make this sketch stale."""
        return self.plan.referenced_tables()

    def memory_bytes(self) -> int:
        """Memory used by the sketch, its maintenance state (a shared node's
        included) and the cached instrumented plan."""
        sketch_bytes = self.sketch.byte_size() if self.sketch is not None else 0
        return sketch_bytes + self.maintainer.memory_bytes() + self.instrumented_bytes

    @property
    def shared(self) -> SharedNode | None:
        """The node holding the entry's stateful operators (None under full
        maintenance, or for a plan without any)."""
        engine = self.maintainer.engine
        return None if engine is None else engine.shared


@dataclass
class StoreStatistics:
    """Aggregate counters of the sketch store."""

    hits: int = 0
    misses: int = 0
    captures: int = 0
    evictions: int = 0


class SketchStore:
    """A template-keyed collection of :class:`SketchEntry` objects.

    Not thread-safe on its own: callers hold the scheduler's round lock
    (the query path, rounds, lazy ensures and the middleware's summary), so
    no two threads move ticks, entries or operator state at once.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        self._entries: dict[str, SketchEntry] = {}
        self._max_bytes = max_bytes
        self._tick = 0
        self.statistics = StoreStatistics()
        # The catalog of every entry (None until :meth:`retire`): its
        # version, and each table's creation version -- ints only, so no
        # dropped table stays alive through the store.
        self.catalog_version: int | None = None
        self._created: dict[str, int] = {}

    @property
    def max_bytes(self) -> int | None:
        """Memory budget for sketches plus maintenance state (None = unbounded)."""
        return self._max_bytes

    # -- lookup --------------------------------------------------------------------

    def get(self, template: QueryTemplate) -> SketchEntry | None:
        """Look up the entry for a query template (tracks hit/miss counters)."""
        entry = self._entries.get(template.text)
        if entry is None:
            self.statistics.misses += 1
        else:
            self.statistics.hits += 1
            self.touch(entry)
        return entry

    def touch(self, entry: SketchEntry) -> None:
        """Mark ``entry`` as just used (feeds recency-aware eviction)."""
        self._tick += 1
        entry.last_used_tick = self._tick

    def __contains__(self, template: QueryTemplate) -> bool:
        return template.text in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[SketchEntry]:
        """Iterate over all managed sketches.

        Returns an iterator over a point-in-time copy, so callers can walk it
        while they register, evict or retire entries.
        """
        return iter(list(self._entries.values()))

    # -- mutation --------------------------------------------------------------------

    def put(self, entry: SketchEntry) -> None:
        """Register a new entry, then evict down to the memory budget.

        Re-putting an existing template replaces the entry without counting a
        new capture.
        """
        previous = self._entries.get(entry.template.text)
        self.touch(entry)
        self._entries[entry.template.text] = entry
        if previous is not None and previous is not entry:
            self._release(previous)
        self.intern(entry)
        if previous is None:
            self.statistics.captures += 1
        self.enforce_memory_budget(protect=entry)

    def intern(self, entry: SketchEntry, version: int | None = None) -> None:
        """Hand ``entry``'s engine the node of another entry in the store
        that has the same fingerprint and was built by a from-scratch pass at
        the version the entry's own was, and has not been maintained since.

        Its state is then bit for bit the entry's own, so the entry's ``μ``
        stays consistent with it.  Called on registration and again after
        the entry's engine was recaptured.

        With ``version``, ``entry`` is a new entry that has not captured yet
        and will capture at ``version``: it is handed such a node built at
        ``version`` whose root can replay its output, and the capture reads
        that output from the node's state
        (:meth:`~repro.imp.operators.IncrementalShared.process`) instead of
        building the same state again.  Until the entry is registered, no
        commit may move the version on: the caller holds the database lock.

        Either way the caller holds the round lock, so no round runs
        meanwhile: a node must not move on without one of its consumers.
        """
        own = entry.shared
        if own is None:
            return
        if version is None:
            version = own.built_at
            if version is None or self._entries.get(entry.template.text) is not entry:
                return
        for other in self._entries.values():
            node = other.shared
            if (
                node is not None
                and node is not own
                and node.fingerprint == own.fingerprint
                and node.built_at == version
                # An engine yet to capture reads the node's output back.
                and (own.built_at is not None or node.replayable)
            ):
                entry.maintainer.engine.share(node)
                return

    def share_group(self, entry: SketchEntry) -> list[SketchEntry]:
        """The entries in the store whose engines read ``entry``'s shared
        node, in registration order (``[entry]`` for an entry not in the
        store): they are maintained together."""
        node = entry.shared
        if node is None or self._entries.get(entry.template.text) is not entry:
            return [entry]
        return [other for other in self._entries.values() if other.shared is node]

    def _release(self, entry: SketchEntry) -> None:
        """Detach ``entry``, which just left the store, from a node entries
        in the store still read: its engine starts over, and recaptures when
        the entry is next ensured, so it can never move the node on without
        them.  The last consumer to leave keeps the node."""
        node = entry.shared
        if node is not None and any(other.shared is node for other in self._entries.values()):
            entry.maintainer.engine.reset()

    def remove(self, template: QueryTemplate) -> None:
        """Drop the entry for a template (no error when absent)."""
        entry = self._entries.pop(template.text, None)
        if entry is not None:
            self._release(entry)

    def retire(self, catalog: Catalog) -> None:
        """Record ``catalog`` if it is newer than the entries', dropping the
        entries over a table created, dropped or recreated since theirs."""
        if self.catalog_version is not None and catalog.version <= self.catalog_version:
            return
        created = {name: stored.created_version for name, stored in catalog.tables.items()}
        if self.catalog_version is not None:
            moved = {name for name, _version in created.items() ^ self._created.items()}
            for entry in self.entries():
                if entry.referenced_tables() & moved:
                    self.remove(entry.template)
        self.catalog_version, self._created = catalog.version, created

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
        # Size each entry once and evict cheapest-first from a sorted
        # victim list, keeping a running total: evicting k of N entries
        # costs one footprint walk, not one per eviction.  A victim frees
        # a shared node's state only as its last consumer.
        sizes, consumers, total = self._footprint()
        victims = sorted(
            (entry for entry in self._entries.values() if entry is not protect),
            key=lambda entry: entry.last_used_tick,
        )
        evicted = 0
        for victim in victims:
            if total <= self._max_bytes:
                break
            node = victim.shared
            kept = node.memory_bytes() if node is not None and consumers[node] > 1 else 0
            consumers[node] -= 1
            del self._entries[victim.template.text]
            self._release(victim)
            total -= sizes[victim.template.text] - kept
            self.statistics.evictions += 1
            evicted += 1
        return evicted

    def _footprint(self) -> tuple[dict[str, int], Counter, int]:
        """Each entry's memory (its shared node's included), each node's
        number of consumers in the store, and the store's total, which
        charges a shared node once."""
        sizes = {text: entry.memory_bytes() for text, entry in self._entries.items()}
        consumers = Counter(entry.shared for entry in self._entries.values())
        total = sum(sizes.values()) - sum(
            node.memory_bytes() * (count - 1)
            for node, count in consumers.items()
            if node is not None and count > 1
        )
        return sizes, consumers, total

    # -- reporting ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Total memory used by sketches and their maintenance state, shared
        state counted once."""
        return self._footprint()[2]

    def summary(self) -> dict[str, object]:
        """A compact report used by the examples and the benchmark harness."""
        return {
            "sketches": len(self._entries),
            "hits": self.statistics.hits,
            "misses": self.statistics.misses,
            "captures": self.statistics.captures,
            "evictions": self.statistics.evictions,
            "memory_bytes": self.memory_bytes(),
        }
