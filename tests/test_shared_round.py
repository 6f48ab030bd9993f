"""A maintenance round annotates each shared delta once per partition.

A :class:`~repro.imp.scheduler.MaintenanceScheduler` round hands one memo
(:attr:`~repro.imp.operators.Pass.memo`) to the passes of every engine it
feeds, so the engines whose partitions agree on a table read one list of
signed entries and one list of fragment masks per fetched delta.  The
differential holds a round over K sketches to the same K sketches each
maintained by a round of its own -- the sketch, every engine counter and the
persisted engine state, after every round -- and checks that no operator
writes to the shared lists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.imp.engine import IMPConfig
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import IncrementalTableAccess
from repro.imp.persistence import dump_engine_state
from repro.imp.scheduler import MaintenanceScheduler
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sql.template import template_of
from repro.storage.database import Database

NAN = math.nan

# ``v{i}`` makes every spec its own template (the store is keyed by template).
QUERIES = [
    "SELECT a, sum(b) AS v{i} FROM r GROUP BY a",
    # Selections straight over the scan: pushed down as delta filters.
    "SELECT a, count(*) AS v{i} FROM r WHERE b < 50 GROUP BY a",
    "SELECT DISTINCT a AS v{i}, c FROM r WHERE c >= 2",
    "SELECT c, max(b) AS v{i} FROM r WHERE a >= 3 GROUP BY c",
    "SELECT r.a AS v{i}, s.y FROM r JOIN s ON r.c = s.x WHERE s.y > 1",
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


class _Sides:
    """Two identical databases: every spec's sketch behind one shared
    scheduler on the first, and behind a scheduler of its own on the second."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.databases = (_database(), _database())
        self.next_id = 0
        self.commit(inserts=30, deletes=0, s_rows=6)
        self.store = SketchStore()
        self.shared = MaintenanceScheduler(self.databases[0], self.store)
        self.pairs: list[tuple[SketchEntry, MaintenanceScheduler]] = []

    def commit(self, inserts: int, deletes: int, s_rows: int = 0) -> None:
        rows = [_r_row(self.rng, self.next_id + i) for i in range(inserts)]
        self.next_id += inserts
        live = list(self.databases[0].table("r").rows())
        victims = self.rng.sample(live, min(deletes, len(live)))
        extra = [(self.rng.randrange(5), self.rng.randrange(4)) for _ in range(s_rows)]
        for database in self.databases:
            if victims:
                database.delete_rows("r", victims)
            database.insert("r", rows)
            if extra:
                database.insert("s", extra)

    def capture(self, index: int, query: int, partition: int, pushdown: bool) -> None:
        sql = QUERIES[query].format(i=index)
        entries = []
        for database in self.databases:
            plan = database.plan(sql)
            maintainer = IncrementalMaintainer(
                database, plan, PARTITIONS[partition](), IMPConfig(selection_pushdown=pushdown)
            )
            maintainer.capture()
            entries.append(
                SketchEntry(
                    template=template_of(sql), sql=sql, plan=plan,
                    partition=maintainer.partition, maintainer=maintainer,
                )
            )
        ours, theirs = entries
        self.store.put(ours)
        alone = SketchStore()
        alone.put(theirs)
        self.pairs.append((ours, MaintenanceScheduler(self.databases[1], alone)))

    def round(self):
        report = self.shared.run_round()
        alone = [scheduler.run_round() for _entry, scheduler in self.pairs]
        return report, alone

    def assert_identical(self) -> None:
        for ours, scheduler in self.pairs:
            (theirs,) = scheduler.store.entries()
            mine, other = ours.maintainer, theirs.maintainer
            assert mine.sketch.mask == other.sketch.mask, ours.sql
            assert mine.valid_at_version == other.valid_at_version
            assert dataclasses.asdict(mine.statistics) == dataclasses.asdict(other.statistics)
            assert json.dumps(dump_engine_state(mine.engine)) == json.dumps(
                dump_engine_state(other.engine)
            )


@contextmanager
def watched_annotations():
    """Every annotated-entry triple a table access reads, with a copy of its
    lists taken when it is first handed out."""
    seen: dict[int, tuple[tuple, tuple]] = {}
    original = IncrementalTableAccess._annotated

    def spy(self, run):
        entry = original(self, run)
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
    ),
    min_size=2,
    max_size=5,
)


class TestSharedRoundDifferential:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(specs=SPECS, steps=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_round_equals_each_sketch_maintained_alone(self, specs, steps, seed):
        """Commits before and after each step's captures put the round's
        entries in several (table, since) groups."""
        sides = _Sides(seed)
        with watched_annotations() as seen:
            for step in range(steps):
                sides.commit(inserts=4, deletes=3, s_rows=step % 2)
                for index, (query, partition, pushdown, captured_in) in enumerate(specs):
                    if captured_in == step:
                        sides.capture(index, query, partition, pushdown)
                sides.commit(inserts=5, deletes=2)
                report, alone = sides.round()
                assert report.maintained == len(sides.pairs)
                assert report.annotations <= sum(other.annotations for other in alone)
                sides.assert_identical()
                assert_unchanged(seen)


class TestAnnotationCounter:
    @staticmethod
    def _round(partitions: list, odd_rows: bool = False):
        database = _database()
        rows = [(i, float(i % 10), 1.0, i % 5) for i in range(40)]
        database.insert("r", rows + ([(40, None, 2.0, 1), (41, NAN, 3.0, 2)] if odd_rows else []))
        store = SketchStore()
        scheduler = MaintenanceScheduler(database, store)
        for index, partition in enumerate(partitions):
            sql = QUERIES[0].format(i=index)
            maintainer = IncrementalMaintainer(database, database.plan(sql), partition)
            maintainer.capture()
            store.put(
                SketchEntry(
                    template=template_of(sql), sql=sql, plan=maintainer.plan,
                    partition=partition, maintainer=maintainer,
                )
            )
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
        for entry in store.entries():
            fresh = IncrementalMaintainer(database, entry.plan, entry.partition)
            assert entry.sketch == fresh.capture().sketch
        return report

    def test_equal_partitions_annotate_once_per_round(self):
        assert self._round([PARTITIONS[0]() for _ in range(4)]).annotations == 1

    def test_distinct_partitions_annotate_once_each(self):
        partitions = [
            DatabasePartition([_r("a", [0, 2 + k, 10])]) for k in range(4)
        ]
        assert self._round(partitions).annotations == 4

    def test_outside_ids_that_differ_keep_annotations_apart(self):
        partitions = [PARTITIONS[0](), PARTITIONS[3](), PARTITIONS[0](), PARTITIONS[3]()]
        assert self._round(partitions, odd_rows=True).annotations == 2

    def test_a_lazy_ensure_counts_its_annotation(self):
        database = _database()
        database.insert("r", [(i, float(i % 10), 1.0, i % 5) for i in range(20)])
        sql = QUERIES[0].format(i=0)
        maintainer = IncrementalMaintainer(database, database.plan(sql), PARTITIONS[1]())
        maintainer.capture()
        entry = SketchEntry(
            template=template_of(sql), sql=sql, plan=maintainer.plan,
            partition=maintainer.partition, maintainer=maintainer,
        )
        store = SketchStore()
        store.put(entry)
        scheduler = MaintenanceScheduler(database, store)
        database.insert("r", [(50, 3.0, 1.0, 0)])
        scheduler.ensure_entry(entry)
        assert scheduler.statistics.ensures == 1
        assert scheduler.summary()["annotations"] == 1
