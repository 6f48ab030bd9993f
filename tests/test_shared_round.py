"""A maintenance round annotates each shared delta once per partition and
processes each shared stateful subplan once.

A :class:`~repro.imp.scheduler.MaintenanceScheduler` round hands one memo
(:attr:`~repro.imp.operators.Pass.memo`) to the passes of every engine it
feeds, so the engines whose partitions agree on a table read one list of
signed entries and one list of fragment masks per fetched delta, and the
engines the sketch store gave one :class:`~repro.imp.operators.SharedNode`
read its output delta, computed once.  The differential holds a store of K
sketches -- pruned, interned and maintained in lockstep by rounds and lazy
ensures over insert/delete/re-insert commits -- to the same K sketches each
maintained on its own, and to a fresh capture: the sketch, the persisted
engine state and (for an engine that shares nothing) every engine counter,
after every step.  It also checks that no operator writes to the shared
lists.  The cases after it pin what the sharing must get right: a lazy ensure
advances its whole share group, a join consumer changes alone, recaptured
consumers share again, and evicting one consumer leaves the others their
state, charged once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.imp.engine import IMPConfig, capture_sketch
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import IncrementalAggregation, IncrementalTableAccess
from repro.imp.persistence import dump_engine_state
from repro.imp.scheduler import MaintenanceScheduler
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.relational.algebra import Distinct, Projection
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sql.template import template_of
from repro.storage.database import Database

NAN = math.nan

# ``v{i}`` makes every spec its own template (the store is keyed by template);
# the engines of one query share their stateful subplan whatever ``i`` is.
QUERIES = [
    "SELECT a, sum(b) AS v{i} FROM r GROUP BY a HAVING sum(b) > 40",
    # Selections straight over the scan: pushed down as delta filters.
    "SELECT a, count(*) AS v{i} FROM r WHERE b < 50 GROUP BY a HAVING count(*) > 1",
    "SELECT DISTINCT a AS v{i}, c FROM r WHERE c >= 2",
    "SELECT c, max(b) AS v{i} FROM r WHERE a >= 3 GROUP BY c HAVING max(b) < 60",
    "SELECT r.a AS v{i}, s.y FROM r JOIN s ON r.c = s.x WHERE s.y > 1",
    # Nothing reads the aggregate: the engine keeps Distinct on c.
    "SELECT c, max(b) AS v{i} FROM r WHERE a >= 3 GROUP BY c",
]


def _r(attribute: str, boundaries: list[float]) -> RangePartition:
    return RangePartition.from_boundaries("r", attribute, boundaries)


def _s() -> RangePartition:
    return RangePartition.from_boundaries("s", "x", [0, 2, 4])


# Fresh objects per call: engines share annotations by the partition's value.
# The first and the fourth agree on r's ranges and offsets but not on r's
# outside id, so they must not share r's masks.
PARTITIONS = [
    lambda: DatabasePartition([_r("a", [0, 3, 6, 10])]),
    lambda: DatabasePartition([_r("a", [0, 5, 10])]),
    lambda: DatabasePartition([_r("b", [0, 25, 50, 75, 100])]),
    lambda: DatabasePartition([_r("a", [0, 3, 6, 10]), _s()]),
    lambda: DatabasePartition([_s(), _r("a", [0, 3, 6, 10])]),
]


def _database() -> Database:
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    database.create_table("s", ["x", "y"])
    return database


def _r_row(rng: random.Random, row_id: int) -> tuple:
    a = rng.choice([None, NAN, *map(float, range(10))])
    b = rng.choice([None, 10.5, 30.0, 49.75, 60.0, 99.0])
    return (row_id, a, b, rng.randrange(5))


def _entry(database: Database, sql: str, partition: DatabasePartition, config=None):
    maintainer = IncrementalMaintainer(database, database.plan(sql), partition, config)
    maintainer.capture()
    return SketchEntry(
        template=template_of(sql), sql=sql, plan=maintainer.plan,
        partition=partition, maintainer=maintainer,
    )


def assert_fresh(entries, database: Database) -> None:
    """Every maintained sketch is the one a capture gives now."""
    for entry in entries:
        fresh = capture_sketch(entry.plan, entry.partition, database)
        assert entry.sketch.mask == fresh.mask, entry.sql
        assert entry.valid_at_version == database.version


class _Sides:
    """Two identical databases: every spec's sketch in one store behind one
    scheduler on the first, and in a store and behind a scheduler of its own
    on the second."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.databases = (_database(), _database())
        self.next_id = 0
        self.deleted: list[tuple] = []
        self.commit(inserts=30, deletes=0, s_rows=6)
        self.store = SketchStore()
        self.shared = MaintenanceScheduler(self.databases[0], self.store)
        self.pairs: list[tuple[SketchEntry, MaintenanceScheduler]] = []

    def commit(self, inserts: int, deletes: int, s_rows: int = 0) -> None:
        """Insert new rows, re-insert rows deleted earlier, delete live ones."""
        rows = [_r_row(self.rng, self.next_id + i) for i in range(inserts)]
        self.next_id += inserts
        back = self.rng.sample(self.deleted, min(len(self.deleted), self.rng.randrange(3)))
        self.deleted = [row for row in self.deleted if row not in back]
        live = list(self.databases[0].table("r").rows())
        victims = self.rng.sample(live, min(deletes, len(live)))
        self.deleted += victims
        extra = [(self.rng.randrange(5), self.rng.randrange(4)) for _ in range(s_rows)]
        for database in self.databases:
            if victims:
                database.delete_rows("r", victims)
            database.insert("r", rows + back)
            if extra:
                database.insert("s", extra)

    def capture(self, index: int, query: int, partition: int, pushdown: bool) -> None:
        sql = QUERIES[query].format(i=index)
        config = IMPConfig(selection_pushdown=pushdown)
        ours, theirs = (
            _entry(database, sql, PARTITIONS[partition](), config) for database in self.databases
        )
        self.store.put(ours)
        alone = SketchStore()
        alone.put(theirs)
        self.pairs.append((ours, MaintenanceScheduler(self.databases[1], alone)))

    def round(self):
        report = self.shared.run_round()
        alone = [scheduler.run_round() for _entry, scheduler in self.pairs]
        return report, alone

    def ensure(self, pick: int) -> None:
        """A lazy ensure of one entry here; there, of every entry it moved."""
        ours, _scheduler = self.pairs[pick % len(self.pairs)]
        group = {entry.template.text for entry in self.store.share_group(ours)}
        self.shared.ensure_entry(ours)
        for entry, scheduler in self.pairs:
            if entry.template.text in group:
                (theirs,) = scheduler.store.entries()
                scheduler.ensure_entry(theirs)

    def assert_identical(self) -> None:
        for ours, scheduler in self.pairs:
            (theirs,) = scheduler.store.entries()
            mine, other = ours.maintainer, theirs.maintainer
            assert mine.sketch.mask == other.sketch.mask, ours.sql
            assert mine.valid_at_version == other.valid_at_version
            assert json.dumps(dump_engine_state(mine.engine)) == json.dumps(
                dump_engine_state(other.engine)
            )
            if len(self.store.share_group(ours)) == 1:
                assert dataclasses.asdict(mine.statistics) == dataclasses.asdict(
                    other.statistics
                )
            else:
                # A shared node's work is counted by the engine that ran it.
                assert mine.statistics.maintenance_runs == other.statistics.maintenance_runs
        current = [entry for entry, _ in self.pairs if not entry.maintainer.is_stale()]
        assert_fresh(current, self.databases[0])


@contextmanager
def watched_annotations():
    """Every annotated-entry triple a table access reads, with a copy of its
    lists taken when it is first handed out."""
    seen: dict[int, tuple[tuple, tuple]] = {}
    original = IncrementalTableAccess._annotated

    def spy(self, *args):
        entry = original(self, *args)
        seen.setdefault(id(entry), (entry, tuple(map(list, entry))))
        return entry

    IncrementalTableAccess._annotated = spy
    try:
        yield seen
    finally:
        IncrementalTableAccess._annotated = original


def assert_unchanged(seen: dict[int, tuple[tuple, tuple]]) -> None:
    for entry, copies in seen.values():
        assert tuple(map(list, entry)) == copies


SPECS = st.lists(
    st.tuples(
        st.integers(0, len(QUERIES) - 1),
        st.integers(0, len(PARTITIONS) - 1),
        st.booleans(),  # selection push-down
        st.integers(0, 2),  # the step it is captured in
        st.integers(1, 3),  # copies: templates of equal subplans
    ),
    min_size=1,
    max_size=4,
)


class TestSharedRoundDifferential:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        specs=SPECS,
        steps=st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_store_equals_each_sketch_maintained_alone_and_a_fresh_capture(
        self, specs, steps, seed
    ):
        """Commits before and after each step's captures put the round's
        entries in several (table, since) groups; a step is a round (None)
        or a lazy ensure of one entry."""
        sides = _Sides(seed)
        with watched_annotations() as seen:
            for step, lazy in enumerate(steps):
                sides.commit(inserts=4, deletes=3, s_rows=step % 2)
                for index, spec in enumerate(specs):
                    query, partition, pushdown, captured_in, copies = spec
                    if captured_in == step:
                        for copy in range(copies):
                            sides.capture(4 * index + copy, query, partition, pushdown)
                sides.commit(inserts=5, deletes=2)
                if lazy is None or not sides.pairs:
                    report, alone = sides.round()
                    assert report.maintained == len(sides.pairs)
                    assert report.annotations <= sum(other.annotations for other in alone)
                    assert report.folds <= sum(other.folds for other in alone)
                else:
                    sides.ensure(lazy)
                sides.assert_identical()
                assert_unchanged(seen)


def _store(database: Database, sqls: list[str], partition=PARTITIONS[0], config=None):
    store = SketchStore()
    entries = [_entry(database, sql, partition(), config) for sql in sqls]
    for entry in entries:
        store.put(entry)
    return store, MaintenanceScheduler(database, store), entries


def _filled() -> Database:
    database = _database()
    rng = random.Random(5)
    database.insert("r", [_r_row(rng, i) for i in range(40)])
    database.insert("s", [(x, y) for x in range(5) for y in range(3)])
    return database


class TestShareGroups:
    def test_equal_subplans_intern_into_one_node_of_the_pruned_plan(self):
        """Different output names, the same pruned subplan and partition: one
        node; another HAVING threshold is the consumer's own selection."""
        database = _filled()
        store, _scheduler, entries = _store(
            database,
            [QUERIES[0].format(i=0), QUERIES[0].format(i=1).replace("> 40", "> 70")],
        )
        first, second = entries
        assert first.shared is second.shared and store.share_group(first) == entries
        assert first.maintainer.engine.pruned.explain().startswith("Selection((v0 > 40")
        # A dead aggregate leaves Distinct over the group keys.
        (dead,) = _store(database, [QUERIES[5].format(i=0)])[2]
        pruned = dead.maintainer.engine.pruned
        assert isinstance(pruned, Distinct) and isinstance(pruned.child, Projection)
        assert [item.alias for item in pruned.child.items] == ["c"]
        # Another partition, or another configuration, is another node.
        other = _entry(database, QUERIES[0].format(i=2), PARTITIONS[1]())
        tuned = _entry(
            database, QUERIES[0].format(i=3), PARTITIONS[0](), IMPConfig(min_max_buffer=4)
        )
        store.put(other)
        store.put(tuned)
        assert other.shared is not first.shared and tuned.shared is not first.shared

    def test_a_node_moved_on_by_a_round_is_not_handed_to_a_new_capture(self):
        """A maintained node's float totals may differ in the last bits from a
        capture's: a new entry gets its own node."""
        database = _filled()
        store, scheduler, (first,) = _store(database, [QUERIES[0].format(i=0)])
        database.insert("r", [(100, 3.0, 30.0, 1)])
        scheduler.run_round()
        late = _entry(database, QUERIES[0].format(i=1), PARTITIONS[0]())
        store.put(late)
        assert late.shared is not first.shared
        database.insert("r", [(101, 4.0, 10.5, 2)])
        assert scheduler.run_round().folds == 2
        assert_fresh([first, late], database)

    def test_a_lazy_ensure_advances_the_whole_share_group(self):
        database = _filled()
        sqls = [QUERIES[0].format(i=i) for i in range(3)] + [QUERIES[2].format(i=9)]
        _store_, scheduler, entries = _store(database, sqls)
        *group, loner = entries
        database.insert("r", [(100, 3.0, 30.0, 1)])
        database.delete_rows("r", [next(iter(database.table("r").rows()))])
        scheduler.ensure_entry(group[1])
        assert_fresh(group, database)
        assert loner.maintainer.is_stale()
        assert scheduler.statistics.ensures == 1 and scheduler.statistics.maintained == 3
        assert scheduler.statistics.folds == 1  # one aggregation pass for the three
        assert [entry.maintenance_count for entry in group] == [1, 1, 1]
        # The group moved together: a round now maintains only the loner.
        assert scheduler.run_round().maintained == 1
        assert_fresh(entries, database)

    def test_a_join_consumer_changes_while_the_shared_table_does_not(self):
        """The join's own node holds the aggregation below it; a commit to s
        makes only the join's sketch stale, one to r all three."""
        database = _filled()
        partition = lambda: DatabasePartition([_r("a", [0, 3, 6, 10]), _s()])  # noqa: E731
        join = (
            "SELECT n.a AS v9, s.y FROM (SELECT a, sum(b) AS sb FROM r GROUP BY a "
            "HAVING sum(b) > 40) n JOIN s ON n.a = s.x"
        )
        _store_, scheduler, entries = _store(
            database, [QUERIES[0].format(i=0), QUERIES[0].format(i=1), join], partition
        )
        first, second, joined = entries
        assert first.shared is second.shared is not joined.shared
        database.insert("s", [(3, 7), (0, 1)])
        report = scheduler.run_round()
        assert report.maintained == 1 and report.folds == 2  # the join and its aggregation
        assert_fresh([joined], database)
        assert not first.maintainer.is_stale() and not second.maintainer.is_stale()
        database.insert("r", [(100, 3.0, 60.0, 1)])
        report = scheduler.run_round()
        assert report.maintained == 3 and report.folds == 3
        assert_fresh(entries, database)

    def test_recaptured_consumers_share_a_fresh_node(self):
        """Deleting the one buffered minimum of a group with more values
        exhausts the shared min/max: every consumer recaptures, and the
        recaptured entries intern into one node again."""
        database = _database()
        database.insert("r", [(i, 1.0, float(10 * i), i % 5) for i in range(1, 6)])
        database.insert("r", [(i, 2.0, float(i), i % 5) for i in range(6, 9)])
        sqls = [
            f"SELECT a, min(b) AS v{i} FROM r GROUP BY a HAVING min(b) < {15 + i}"
            for i in range(3)
        ]
        store, scheduler, entries = _store(
            database, sqls, PARTITIONS[2], IMPConfig(min_max_buffer=1)
        )
        old = entries[0].shared
        assert all(entry.shared is old for entry in entries)
        database.delete_rows("r", [(1, 1.0, 10.0, 1)])
        report = scheduler.run_round()
        assert report.recaptured == 3
        node = entries[0].shared
        assert node is not old and node.built_at == database.version
        assert all(entry.shared is node for entry in entries)
        assert store.share_group(entries[0]) == entries
        assert all(entry.maintainer.engine.shared is node for entry in entries)
        assert_fresh(entries, database)
        database.insert("r", [(9, 1.0, 12.0, 0)])
        assert scheduler.run_round().folds == 1
        assert_fresh(entries, database)

    def test_evicting_one_consumer_leaves_the_others_the_state_charged_once(self):
        database = _filled()
        entries = [
            _entry(database, QUERIES[0].format(i=i), PARTITIONS[0]()) for i in range(3)
        ]
        node_bytes = entries[0].maintainer.engine.shared.memory_bytes()
        sizes = [entry.memory_bytes() for entry in entries]
        # Three consumers charge the node once: just over budget, so putting
        # the third evicts the least recently used, which frees only its own.
        store = SketchStore(max_bytes=sum(sizes) - 2 * node_bytes - 1)
        for entry in entries:
            store.put(entry)
        first, second, third = entries
        assert len(store) == 2 and store.statistics.bytes_evictions == 1
        node = second.shared
        assert node is third.shared and store.share_group(second) == [second, third]
        state = node.operator.state
        assert isinstance(node.operator, IncrementalAggregation) and len(state) > 0
        assert store.memory_bytes() == (
            second.memory_bytes() + third.memory_bytes() - node.memory_bytes()
        )
        # The evicted entry read the node too: it was detached from it.
        assert first.shared is not node and not first.maintainer.is_captured
        scheduler = MaintenanceScheduler(database, store)
        database.insert("r", [(100, 3.0, 30.0, 1)])
        assert scheduler.run_round().folds == 1
        assert_fresh([second, third], database)

    def test_a_dropped_consumer_ensured_late_leaves_the_node_to_the_others(self):
        """A query may fetch an entry just before the store drops it, and
        ensure it after: the dropped entry recaptures on its own, and the
        node moves on once, with the consumers still in the store."""
        database = _database()
        # Groups 0-2 pass the HAVING in fragment 0; the insert below makes a
        # group in fragment 2 that would pass it if it were counted twice.
        database.insert("r", [(i, float(i % 3), 50.0, 0) for i in range(6)])
        store, scheduler, (first, second) = _store(
            database, [QUERIES[0].format(i=0), QUERIES[0].format(i=1)]
        )
        node = second.shared
        assert first.shared is node
        store.remove(first.template)
        assert first.shared is not node and store.share_group(first) == [first]
        database.insert("r", [(100, 7.0, 30.0, 1)])
        assert scheduler.ensure_entry(first).recaptured
        report = scheduler.run_round()
        assert report.maintained == 1 and report.folds == 1
        assert_fresh([first, second], database)
        assert second.shared is node


class TestAnnotationCounter:
    @staticmethod
    def _round(partitions: list, odd_rows: bool = False):
        database = _database()
        rows = [(i, float(i % 10), 1.0, i % 5) for i in range(40)]
        database.insert("r", rows + ([(40, None, 2.0, 1), (41, NAN, 3.0, 2)] if odd_rows else []))
        store = SketchStore()
        scheduler = MaintenanceScheduler(database, store)
        for index, partition in enumerate(partitions):
            store.put(_entry(database, QUERIES[0].format(i=index), partition))
        database.insert("r", [(100 + i, float(i), 1.0, 0) for i in range(5)])
        database.insert("r", [(200, None, 1.0, 0), (201, NAN, 1.0, 0)])
        calls = []
        original = DatabasePartition.masks_of

        def counted(self, table, values):
            calls.append(table)
            return original(self, table, values)

        DatabasePartition.masks_of = counted
        try:
            report = scheduler.run_round()
        finally:
            DatabasePartition.masks_of = original
        assert report.maintained == len(partitions) and report.delta_fetches == 1
        assert report.annotations == len(calls)
        assert scheduler.summary()["annotations"] == report.annotations
        assert scheduler.summary()["folds"] == report.folds
        assert_fresh(store.entries(), database)
        return report

    def test_equal_partitions_annotate_and_fold_once_per_round(self):
        report = self._round([PARTITIONS[0]() for _ in range(4)])
        assert report.annotations == 1 and report.folds == 1

    def test_distinct_partitions_annotate_and_fold_once_each(self):
        partitions = [
            DatabasePartition([_r("a", [0, 2 + k, 10])]) for k in range(4)
        ]
        report = self._round(partitions)
        assert report.annotations == 4 and report.folds == 4

    def test_outside_ids_that_differ_keep_annotations_and_nodes_apart(self):
        partitions = [PARTITIONS[0](), PARTITIONS[3](), PARTITIONS[0](), PARTITIONS[3]()]
        report = self._round(partitions, odd_rows=True)
        assert report.annotations == 2 and report.folds == 2

    def test_a_lazy_ensure_counts_its_annotation(self):
        database = _database()
        database.insert("r", [(i, float(i % 10), 1.0, i % 5) for i in range(20)])
        entry = _entry(database, QUERIES[0].format(i=0), PARTITIONS[1]())
        store = SketchStore()
        store.put(entry)
        scheduler = MaintenanceScheduler(database, store)
        database.insert("r", [(50, 3.0, 1.0, 0)])
        scheduler.ensure_entry(entry)
        assert scheduler.statistics.ensures == 1
        assert scheduler.summary()["annotations"] == 1
        assert scheduler.summary()["folds"] == 1
