"""The join's per-side key index (``JoinSideState``).

A join side is evaluated from scratch at most once -- the first time a delta
tuple of the other side needs partners -- and from then on brought forward by
its own child deltas.  These tests hold the maintained index, the operator
state above it and the sketch to a fresh evaluation after random and targeted
update sequences, bound the number of whole-side evaluations, and walk the
state through reset, recapture, persistence and store eviction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import MemoryMeter
from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch, compile_plan
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.middleware import IMPSystem
from repro.imp.operators import IncrementalJoin, Pass
from repro.imp.persistence import StatePersistence, _operators_in_order
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.storage.database import Database

JOIN_QUERIES = {
    "two_way": "SELECT a, b FROM l JOIN r ON lk = rk",
    "two_way_aggregate": (
        "SELECT lk, count(*) AS n, sum(b) AS sb FROM l JOIN r ON lk = rk "
        "GROUP BY lk HAVING count(*) > 1"
    ),
    # Nested: (l ⋈ r) ⋈ t, so the outer join's left side is itself a join.
    "three_way": "SELECT a, b, c FROM l JOIN r ON lk = rk JOIN t ON rk = tk",
    "theta": "SELECT a, b FROM l JOIN r ON lk < rk",
    "cross": "SELECT a, b FROM l, r WHERE a < 40",
    # A stateful side: its index is built from a from-scratch aggregation and
    # brought forward by the deltas of the incrementally maintained one.
    "aggregate_side": (
        "SELECT a, n FROM l JOIN "
        "(SELECT rk AS rk, count(*) AS n, min(b) AS lo FROM r GROUP BY rk) s ON lk = rk"
    ),
}

KEYS = 5  # few join keys: buckets fill, empty out and fill again
MAKE_ROW = {
    "l": lambda rng: (rng.randrange(KEYS), rng.randrange(10) * 10),
    "r": lambda rng: (rng.randrange(KEYS), rng.randrange(10) * 10),
    "t": lambda rng: (rng.randrange(KEYS), rng.randrange(10) * 10),
}


def build_database(seed: int, database: Database | None = None):
    """Three small tables without primary keys (rows repeat: multiplicity > 1
    in the stored bags), partitioned on their second attribute."""
    rng = random.Random(seed)
    database = database or Database()
    contents = {}
    for table, columns in (("l", ["lk", "a"]), ("r", ["rk", "b"]), ("t", ["tk", "c"])):
        database.create_table(table, columns)
        rows = [MAKE_ROW[table](rng) for _ in range(12)]
        rows += rows[:3]
        database.insert(table, rows)
        contents[table] = rows
    partition = DatabasePartition(
        [
            RangePartition.equi_width("l", "a", 0, 100, 4),
            RangePartition.equi_width("r", "b", 0, 100, 4),
            RangePartition.equi_width("t", "c", 0, 100, 4),
        ]
    )
    return database, contents, partition, rng


def joins_of(engine: IncrementalEngine) -> list[IncrementalJoin]:
    return [
        operator
        for operator in _operators_in_order(engine._merge)
        if isinstance(operator, IncrementalJoin)
    ]


def fresh_buckets(side, partition, database):
    """The key index a from-scratch evaluation of the side's plan gives."""
    whole = (
        compile_plan(side.plan, partition, database, IMPConfig(use_bloom_filters=False))
        .process(Pass.scratch(database.version))
        .consolidated()
    )
    buckets: dict = {}
    for row, annotation, count in whole.entries():
        buckets.setdefault(side.key(row), {})[(row, annotation)] = count
    return buckets


def assert_equals_fresh(engine, plan, partition, database):
    """Sketch, merge counts and every materialised join side equal what a
    fresh engine over the current database has."""
    fresh = IncrementalEngine(plan, partition, database)
    fresh.initialize()
    assert engine._merge.state.counts == fresh._merge.state.counts
    assert set(engine.current_sketch().fragment_ids()) == set(
        capture_sketch(plan, partition, database).fragment_ids()
    )
    for join in joins_of(engine):
        for side in join.sides:
            if side.state.buckets is not None:
                assert side.state.bloom is None
                assert side.state.buckets == fresh_buckets(side, partition, database)
                # The footprint is counted, not walked: within a small factor.
                walked = MemoryMeter().measure(side.state.buckets)
                assert walked // 2 <= side.state.memory_bytes() <= 3 * walked


def maintain(engine, plan, database, since):
    outcome = engine.maintain(
        database.database_delta_since(plan.referenced_tables(), since), database.version
    )
    assert not outcome.needs_recapture
    return outcome


class TestMaintainedJoinStateEqualsFresh:
    @given(
        shape=st.sampled_from(sorted(JOIN_QUERIES)),
        seed=st.integers(min_value=0, max_value=10_000),
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # inserts per table
                st.integers(min_value=0, max_value=5),  # deletes per table
                st.booleans(),  # also insert a row and delete it again
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_updates_on_every_side(self, shape, seed, batches):
        database, contents, partition, rng = build_database(seed)
        plan = database.plan(JOIN_QUERIES[shape])
        tables = sorted(plan.referenced_tables())
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        for insert_count, delete_count, churn in batches:
            version = database.version
            for table in tables:
                rows = contents[table]
                inserts = [MAKE_ROW[table](rng) for _ in range(insert_count)]
                deletes = rng.sample(rows, min(delete_count, len(rows)))
                for victim in deletes:
                    rows.remove(victim)
                rows.extend(inserts)
                if inserts:
                    database.insert(table, inserts)
                if deletes:
                    database.delete_rows(table, deletes)
                if churn:
                    transient = MAKE_ROW[table](rng)
                    database.insert(table, [transient])
                    database.delete_rows(table, [transient])
            if database.version == version:
                continue
            maintain(engine, plan, database, version)
            assert_equals_fresh(engine, plan, partition, database)
        sides = 2 * len(joins_of(engine))
        assert engine.statistics.backend_round_trips <= sides

    def _engine(self, shape="two_way"):
        database = Database()
        database.create_table("l", ["lk", "a"])
        database.create_table("r", ["rk", "b"])
        database.insert("l", [(1, 10), (2, 20), (2, 20), (3, 60)])
        database.insert("r", [(1, 10), (2, 30), (2, 30), (2, 80), (4, 90)])
        partition = DatabasePartition(
            [
                RangePartition.equi_width("l", "a", 0, 100, 4),
                RangePartition.equi_width("r", "b", 0, 100, 4),
            ]
        )
        plan = database.plan(JOIN_QUERIES[shape])
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        # Materialise both sides with one delta on each.
        version = database.version
        database.insert("l", [(2, 30)])
        database.insert("r", [(3, 40)])
        maintain(engine, plan, database, version)
        (join,) = joins_of(engine)
        assert all(side.state.buckets is not None for side in join.sides)
        return database, plan, partition, engine, join

    def test_bag_multiplicities_multiply(self):
        database, plan, partition, engine, join = self._engine()
        left, right = join.sides
        assert left.state.buckets[(2,)][((2, 20), 1 << 0)] == 2
        version = database.version
        database.insert("l", [(2, 20)])  # third copy
        database.delete_rows("r", [(2, 30)])  # one of two copies
        maintain(engine, plan, database, version)
        assert left.state.buckets[(2,)][((2, 20), 1 << 0)] == 3
        assert right.state.buckets[(2,)][((2, 30), 1 << 5)] == 1
        assert_equals_fresh(engine, plan, partition, database)

    def test_insert_and_delete_of_one_tuple_in_one_batch(self):
        database, plan, partition, engine, join = self._engine()
        before = {key: dict(bucket) for key, bucket in join.sides[0].state.buckets.items()}
        version = database.version
        database.insert("l", [(4, 50)])
        database.delete_rows("l", [(4, 50)])
        outcome = maintain(engine, plan, database, version)
        assert not outcome.sketch_delta
        assert join.sides[0].state.buckets == before
        assert_equals_fresh(engine, plan, partition, database)

    def test_last_partner_of_a_key_deleted_then_reinserted(self):
        database, plan, partition, engine, join = self._engine()
        right = join.sides[1].state
        version = database.version
        database.delete_rows("r", [(1, 10)])
        maintain(engine, plan, database, version)
        assert (1,) not in right.buckets  # the empty bucket is dropped
        assert_equals_fresh(engine, plan, partition, database)
        version = database.version
        database.insert("r", [(1, 10)])
        maintain(engine, plan, database, version)
        assert right.buckets[(1,)] == {((1, 10), 1 << 4): 1}
        assert_equals_fresh(engine, plan, partition, database)

    def test_theta_and_cross_joins_keep_one_bucket(self):
        for shape in ("theta", "cross"):
            _database, _plan, _partition, _engine, join = self._engine(shape)
            assert not join.is_equi_join
            for side in join.sides:
                assert list(side.state.buckets) == [()]


class SpyDatabase(Database):
    """Records every whole-table read."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: list[tuple[str, str]] = []

    def relation(self, table):
        self.reads.append(("relation", table))
        return super().relation(table)

    def column_batch(self, table):
        self.reads.append(("column_batch", table))
        return super().column_batch(table)

    def snapshot_relation(self, table, version):
        self.reads.append(("snapshot_relation", table))
        return super().snapshot_relation(table, version)


class TestSidesAreEvaluatedOnce:
    def test_one_build_per_side_then_no_table_reads(self):
        database, contents, partition, rng = build_database(7, SpyDatabase())
        plan = database.plan(JOIN_QUERIES["three_way"])
        engine = IncrementalEngine(plan, partition, database, IMPConfig(use_bloom_filters=False))
        engine.initialize()
        sides = 2 * len(joins_of(engine))
        assert sides == 4
        reads_per_round = []
        for _round in range(6):
            version = database.version
            for table in ("l", "r", "t"):
                victim = contents[table].pop(rng.randrange(len(contents[table])))
                database.delete_rows(table, [victim])
                inserted = MAKE_ROW[table](rng)
                contents[table].append(inserted)
                database.insert(table, [inserted])
            database.reads.clear()
            maintain(engine, plan, database, version)
            reads_per_round.append(list(database.reads))
            assert_equals_fresh(engine, plan, partition, database)
        # The first round touches every side and builds all four; no later
        # round reads a table.
        assert engine.statistics.backend_round_trips == sides
        assert reads_per_round[0]
        assert reads_per_round[1:] == [[]] * 5

    def test_unprobed_side_is_never_built(self):
        """Only ``l`` changes: ``r`` is probed and materialised, ``l`` stays
        summarised by its filter and costs no index."""
        database, contents, partition, rng = build_database(11)
        plan = database.plan(JOIN_QUERIES["two_way"])
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        (join,) = joins_of(engine)
        left, right = (side.state for side in join.sides)
        present = contents["r"][0][0]
        for _round in range(5):
            version = database.version
            database.insert("l", [(present, rng.randrange(10) * 10)])
            maintain(engine, plan, database, version)
        assert right.buckets is not None and right.bloom is None
        assert left.buckets is None and left.bloom is not None
        assert engine.statistics.backend_round_trips == 1
        assert_equals_fresh(engine, plan, partition, database)

    def test_filter_decides_whether_a_side_is_ever_built(self):
        database, _contents, partition, _rng = build_database(13)
        plan = database.plan(JOIN_QUERIES["two_way"])
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        (join,) = joins_of(engine)
        version = database.version
        database.insert("l", [(999, 10)])  # no r row has this key
        maintain(engine, plan, database, version)
        assert engine.statistics.bloom_filtered_tuples == 1
        assert engine.statistics.backend_round_trips == 0
        assert all(side.state.buckets is None for side in join.sides)


class TestWholeSideReadsAreAsOfTheTargetVersion:
    def test_commit_landing_between_delta_window_and_side_build(self):
        """The delta covers ``(v0, T]`` while the database is already at
        ``T + 1``: the side built for it must not see the later commit, which
        arrives again as the next round's delta."""
        database = Database()
        database.create_table("l", ["lk", "a"])
        database.create_table("r", ["rk", "b"])
        database.insert("l", [(i, i) for i in range(100)])
        database.insert("r", [(i, 10 * i) for i in range(100)])
        partition = DatabasePartition(
            [
                RangePartition.equi_width("l", "a", 0, 100, 10),
                RangePartition.equi_width("r", "b", 0, 1000, 10),
            ]
        )
        plan = database.plan("SELECT a, b FROM l JOIN r ON lk = rk")
        tables = plan.referenced_tables()
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        v0 = database.version
        first = database.insert("l", [(5, 5)])
        second = database.delete_rows("r", [(5, 50)])
        maintainer.maintain_with(database.database_delta_since(tables, v0, first), first)
        # The r side was built as of ``first``: it still holds (5, 50).
        (join,) = joins_of(maintainer.engine)
        assert ((5, 50), 1 << 10) in join.sides[1].state.buckets[(5,)]
        maintainer.maintain_with(
            database.database_delta_since(tables, first, second), second
        )
        fresh = IncrementalEngine(plan, partition, database)
        fresh.initialize()
        assert maintainer.engine._merge.state.counts == fresh._merge.state.counts
        assert fresh._merge.state.counts[0] == 9
        assert_equals_fresh(maintainer.engine, plan, partition, database)

    def test_snapshot_relation_reads_live_table_unless_it_moved_on(self):
        database = Database()
        database.create_table("l", ["lk", "a"])
        database.create_table("r", ["rk", "b"])
        version = database.insert("l", [(1, 1)])
        database.insert("r", [(1, 1)])
        # l has not changed since ``version``; r has.
        assert database.snapshot_relation("l", version) == database.relation("l")
        assert not database.snapshot_relation("r", version)
        assert database.table("l").snapshot_memory_entries() == 0


class TestJoinStateLifecycle:
    SQL = "SELECT lk, min(b) AS lo FROM l JOIN r ON lk = rk GROUP BY lk HAVING min(b) < 50"

    def _materialised(self, config=None):
        database, contents, partition, rng = build_database(3)
        plan = database.plan(self.SQL)
        maintainer = IncrementalMaintainer(database, plan, partition, config)
        maintainer.capture()
        database.insert("l", [contents["l"][0]])
        database.insert("r", [contents["r"][0]])
        maintainer.maintain()
        (join,) = joins_of(maintainer.engine)
        assert all(side.state.buckets is not None for side in join.sides)
        return database, contents, partition, plan, maintainer

    def _assert_rebuilt_by_next_round(self, maintainer, database, contents, partition, plan):
        (join,) = joins_of(maintainer.engine)
        assert all(side.state.buckets is None for side in join.sides)
        round_trips = maintainer.statistics.backend_round_trips
        database.insert("l", [contents["l"][1]])
        database.insert("r", [contents["r"][1]])
        result = maintainer.maintain()
        assert not result.recaptured
        assert maintainer.statistics.backend_round_trips == round_trips + 2
        assert all(side.state.buckets is not None for side in join.sides)
        assert_equals_fresh(maintainer.engine, plan, partition, database)

    def test_reset_drops_the_state(self):
        database, contents, partition, plan, maintainer = self._materialised()
        assert maintainer.engine.memory_bytes() > 0
        maintainer.engine.reset()
        maintainer.capture()
        self._assert_rebuilt_by_next_round(maintainer, database, contents, partition, plan)

    def test_recapture_drops_the_state(self):
        database, contents, partition, plan, maintainer = self._materialised(
            IMPConfig(min_max_buffer=1)
        )
        # Deleting every copy of a group's buffered minimum while other values
        # remain exhausts the one-value buffer: the maintainer recaptures.
        by_key: dict = {}
        for row in contents["r"] + [contents["r"][0]]:
            by_key.setdefault(row[0], []).append(row)
        left_keys = {row[0] for row in contents["l"]}
        key, rows = next(
            (key, rows)
            for key, rows in sorted(by_key.items())
            if key in left_keys and len({row[1] for row in rows}) > 1
        )
        lowest = min(row[1] for row in rows)
        database.delete_rows("r", [row for row in rows if row[1] == lowest])
        assert maintainer.maintain().recaptured
        self._assert_rebuilt_by_next_round(maintainer, database, contents, partition, plan)

    def test_persistence_round_trip_drops_the_state(self):
        database, contents, partition, plan, maintainer = self._materialised()
        persistence = StatePersistence(database)
        persistence.save_maintainer("join", self.SQL, maintainer)
        _sql, restored = persistence.load_maintainer("join")
        self._assert_rebuilt_by_next_round(
            restored, database, contents, restored.partition, restored.plan
        )


class TestStoreBudgetSeesJoinState:
    JOIN = "SELECT a, b FROM l JOIN r ON lk = rk"
    OTHER = "SELECT tk, count(*) AS n FROM t GROUP BY tk HAVING count(*) > 0"

    def _run(self, budget):
        database, contents, _partition, _rng = build_database(5)
        system = IMPSystem(database, num_fragments=4, store_max_bytes=budget)
        system.run_query(self.JOIN)
        system.run_query(self.OTHER)
        captured_bytes = system.store.memory_bytes()
        system.apply_update("l", inserts=[contents["l"][0]])
        system.apply_update("r", inserts=[contents["r"][0]])
        assert system.run_query(self.JOIN) == database.query(self.JOIN)
        return system, database, captured_bytes

    def test_budget_counts_materialised_sides_and_evicts(self):
        # Unbounded: both entries stay, and maintaining the join grows the
        # store by the two materialised sides.
        system, _database, captured_bytes = self._run(None)
        (entry,) = [e for e in system.store.entries() if e.sql == self.JOIN]
        (join,) = joins_of(entry.maintainer.engine)
        side_bytes = sum(side.state.memory_bytes() for side in join.sides)
        assert all(side.state.buckets is not None for side in join.sides)
        assert system.store.memory_bytes() >= captured_bytes + side_bytes // 2
        assert system.store.statistics.evictions == 0

        # A budget that fits both captured entries but not the join state.
        budget = captured_bytes + side_bytes // 4
        system, database, _bytes = self._run(budget)
        assert system.store.statistics.bytes_evictions >= 1
        assert [entry.sql for entry in system.store.entries()] == [self.JOIN]
        # Evicted entries are captured again and answer correctly.
        for sql in (self.OTHER, self.JOIN, self.OTHER):
            assert system.run_query(sql) == database.query(sql)
        assert system.store.statistics.captures >= 4
