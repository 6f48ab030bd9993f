"""A query does not wait for maintenance of a sketch that skips nothing.

A sketch that holds every fragment of its tables (or a table's outside
fragment of NULL and NaN values) adds no predicate in the use rewrite, so its
cached instrumented plan is the plain plan and right at every version.  The
query path answers such an entry without ``scheduler.ensure_entry`` until the
delta tuples committed to its tables since it was last current reach the rows
those tables held then; one ensure then catches up on the backlog.  Rounds
and share groups still move the entry as before.
"""

from __future__ import annotations

import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.imp.engine import capture_sketch
from repro.imp.middleware import IMPSystem
from repro.imp.strategies import EagerStrategy, LazyStrategy
from repro.sketch.use import instrument_plan, skips_nothing
from repro.storage.database import Database
from repro.workloads.queries import q_endtoend
from repro.workloads.synthetic import load_synthetic

# Every group of two rows or more passes, so this sketch holds every fragment.
FULL = "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 1"
# Only the groups a < 5 (b = 10 each) pass: one fragment of four.
SELECTIVE = "SELECT a, sum(b) AS total FROM t GROUP BY a HAVING sum(b) > 50"


def grouped_database(rows_per_group: int = 10) -> Database:
    """Twenty groups ``a`` of ``rows_per_group`` rows; ``b`` is 10 below
    ``a = 5`` and 1 from there on."""
    database = Database()
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert(
        "t",
        [
            (group * rows_per_group + i, float(group), 10 if group < 5 else 1)
            for group in range(20)
            for i in range(rows_per_group)
        ],
    )
    return database


def answers_match(system: IMPSystem, sql: str) -> bool:
    answer = system.run_query(sql).to_sorted_list()
    return repr(answer) == repr(system.database.query(sql).to_sorted_list())


def entry_of(system: IMPSystem, sql: str):
    (entry,) = [entry for entry in system.store.entries() if entry.sql == sql]
    return entry


def test_wal_replay_rebuilds_the_committed_tuple_counts(tmp_path):
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert("t", [(i, float(i), 1) for i in range(10)])
    database.delete_rows("t", [(0, 0.0, 1), (1, 1.0, 1)])
    database.insert("t", [(10, 3.0, 1)])
    assert database.tuple_counts(["t"]) == (13, 9)
    database.close()
    assert Database(data_dir=path).tuple_counts(["t"]) == (13, 9)


class TestSkipsNothing:
    def test_full_and_selective_sketches(self):
        database = grouped_database()
        system = IMPSystem(database, num_fragments=4)
        system.run_query(FULL)
        system.run_query(SELECTIVE)
        full, selective = entry_of(system, FULL), entry_of(system, SELECTIVE)
        assert len(full.sketch) == full.partition.total_fragments
        assert full.skips_nothing and skips_nothing(full.plan, full.sketch)
        assert not selective.skips_nothing
        assert not skips_nothing(selective.plan, selective.sketch)
        plain = full.plan.explain()
        assert instrument_plan(full.plan, full.sketch).explain() == plain
        assert instrument_plan(selective.plan, selective.sketch).explain() != (
            selective.plan.explain()
        )


class TestCatchUp:
    def test_runs_exactly_once_when_the_backlog_reaches_the_rows(self):
        database = grouped_database(rows_per_group=2)  # 40 rows
        system = IMPSystem(database, num_fragments=4)
        assert answers_match(system, FULL)
        entry = entry_of(system, FULL)
        scheduler = system.scheduler.statistics
        assert (scheduler.ensures, system.statistics.deferred_ensures) == (0, 0)
        captured_at = entry.valid_at_version
        for step in range(1, 40):
            system.apply_update("t", inserts=[(1000 + step, float(step % 20), 1)])
            assert answers_match(system, FULL)
            assert scheduler.ensures == 0
            assert system.statistics.deferred_ensures == step
            assert entry.valid_at_version == captured_at
            assert entry.maintainer.is_stale()
        system.apply_update("t", inserts=[(1040, 3.0, 1)])
        assert answers_match(system, FULL)
        assert scheduler.ensures == 1
        assert scheduler.fetched_tuples == 40
        assert system.statistics.deferred_ensures == 39
        assert entry.valid_at_version == database.version
        # A current entry is answered without an ensure and counts no deferral.
        assert answers_match(system, FULL)
        assert (scheduler.ensures, system.statistics.deferred_ensures) == (1, 39)
        # The next threshold is the 80 rows the table holds now.
        assert entry.caught_up == (database.version, 80, 80)
        system.apply_update("t", inserts=[(1041, 3.0, 1)])
        assert answers_match(system, FULL)
        assert (scheduler.ensures, system.statistics.deferred_ensures) == (1, 40)

    def test_a_long_backlog_ends_in_the_fresh_capture(self):
        database = grouped_database()
        system = IMPSystem(database, num_fragments=4)
        assert answers_match(system, FULL)
        entry = entry_of(system, FULL)
        assert entry.skips_nothing
        # Empty every group a >= 10 down to one row (sum 1), one delete at a
        # time, then refill two of them: 90 + 120 tuples >= 200 rows.
        step = 0
        for group in range(10, 20):
            for i in range(1, 10):
                system.apply_update("t", deletes=[(group * 10 + i, float(group), 1)])
                step += 1
                if step % 17 == 0:
                    assert answers_match(system, FULL)
        for i in range(120):
            system.apply_update("t", inserts=[(5000 + i, float(12 + i % 2), 1)])
        assert system.statistics.deferred_ensures == 5
        assert system.scheduler.statistics.ensures == 0
        assert entry.maintainer.is_stale()
        assert answers_match(system, FULL)
        assert system.scheduler.statistics.ensures == 1
        assert not entry.maintainer.is_stale()
        assert entry.sketch == capture_sketch(entry.plan, entry.partition, database)
        assert not entry.skips_nothing  # only some fragments qualify now
        # The maintained engine keeps agreeing with a fresh capture.
        system.apply_update("t", inserts=[(6000, 15.0, 9)])
        assert answers_match(system, FULL)
        assert entry.sketch == capture_sketch(entry.plan, entry.partition, database)


class TestSelectiveSketches:
    @pytest.mark.parametrize("strategy", ["lazy", "eager"])
    def test_are_maintained_before_every_query(self, strategy):
        database = grouped_database()
        system = IMPSystem(
            database,
            num_fragments=4,
            strategy=LazyStrategy() if strategy == "lazy" else EagerStrategy(batch_size=2),
        )
        assert answers_match(system, SELECTIVE)
        entry = entry_of(system, SELECTIVE)
        for step in range(6):
            system.apply_update("t", inserts=[(1000 + step, float(step), 1)])
            assert answers_match(system, SELECTIVE)
            assert entry.valid_at_version == database.version
        assert system.statistics.deferred_ensures == 0


class TestShareGroup:
    def test_a_deferred_entry_moves_with_its_selective_partner(self):
        database = grouped_database()
        system = IMPSystem(database, num_fragments=4)
        assert answers_match(system, FULL)
        assert answers_match(system, SELECTIVE)
        full, selective = entry_of(system, FULL), entry_of(system, SELECTIVE)
        assert full.shared is not None and full.shared is selective.shared
        assert full.skips_nothing and not selective.skips_nothing
        system.apply_update("t", inserts=[(1000, 7.0, 1)])
        assert answers_match(system, FULL)
        assert system.statistics.deferred_ensures == 1
        assert full.maintainer.is_stale()
        # Ensuring the selective partner advances the shared node with both.
        assert answers_match(system, SELECTIVE)
        assert full.valid_at_version == selective.valid_at_version == database.version
        assert full.sketch == capture_sketch(full.plan, full.partition, database)
        # Its mark is for an older version now: the next query ensures (a
        # no-op on a current entry) and marks it again, deferring nothing.
        assert answers_match(system, FULL)
        assert system.statistics.deferred_ensures == 1
        assert full.caught_up[0] == database.version

    def test_rounds_maintain_a_deferred_entry(self):
        database = grouped_database()
        system = IMPSystem(database, num_fragments=4)
        assert answers_match(system, FULL)
        full = entry_of(system, FULL)
        system.apply_update("t", inserts=[(1000, 7.0, 1)])
        assert answers_match(system, FULL)
        assert system.statistics.deferred_ensures == 1
        report = system.scheduler.run_round()
        assert report.maintained == 1
        assert full.valid_at_version == database.version


def test_concurrent_queries_writer_and_rounds_keep_every_answer():
    """Readers query a deferred and a selective template while a writer
    moves rows between ids (every group sum stays put, so every answer must
    equal the first) and background rounds run."""
    database = grouped_database()
    system = IMPSystem(database, num_fragments=4)
    expected = {sql: repr(database.query(sql).to_sorted_list()) for sql in (FULL, SELECTIVE)}
    for sql in expected:
        assert answers_match(system, sql)
    stop = threading.Event()
    wrong: list[str] = []
    answered = [0] * 3

    def reader(slot: int) -> None:
        while not stop.is_set():
            for sql, answer in expected.items():
                if repr(system.run_query(sql).to_sorted_list()) != answer:
                    wrong.append(sql)
                answered[slot] += 1

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        system.start_background_maintenance(interval=0.001)
        for thread in threads:
            thread.start()
        rows = [(group * 10 + i, float(group), 10 if group < 5 else 1)
                for group in range(20) for i in range(10)]
        for step in range(150):
            old = rows[step]
            new = (1000 + step, old[1], old[2])
            system.apply_update("t", inserts=[new], deletes=[old])
            rows[step] = new
            time.sleep(0.001)  # let the readers in between commits
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        system.stop_background_maintenance(drain=True)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert system.statistics.queries == sum(answered) + len(expected)
    for entry in system.store.entries():
        assert entry.valid_at_version == database.version
        assert entry.sketch == capture_sketch(entry.plan, entry.partition, database)


class TestPrunedHistory:
    def test_answers_stay_right_and_the_catch_up_fails_loudly(self):
        database = grouped_database(rows_per_group=2)  # 40 rows
        system = IMPSystem(database, num_fragments=4)
        assert answers_match(system, FULL)
        entry = entry_of(system, FULL)
        system.apply_update("t", inserts=[(1000, 3.0, 1)])
        database.prune_history(prune_audit=True)
        assert answers_match(system, FULL)
        assert system.statistics.deferred_ensures == 1
        # The ensure a selective sketch would run now fails as it always did.
        with pytest.raises(StorageError, match="pruned"):
            system.scheduler.ensure_entry(entry)
        system.apply_update("t", inserts=[(1001 + i, 3.0, 1) for i in range(39)])
        with pytest.raises(StorageError, match="pruned"):
            system.run_query(FULL)


ODD_VALUES = [None, math.nan]
ROW_VALUES = st.tuples(
    st.one_of(st.integers(0, 7).map(float), st.sampled_from(ODD_VALUES)),
    st.integers(1, 20),
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(ROW_VALUES, min_size=1, max_size=4)),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 10**6), min_size=1, max_size=3)),
        st.tuples(st.just("query"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=40,
)
TEMPLATES = [
    # Full or selective as the group sums move; the NULL and NaN groups
    # carry the outside fragment, which makes a sketch skip nothing.
    "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 30",
    "SELECT a, count(*) AS n FROM t GROUP BY a HAVING count(*) > 0",
    "SELECT a, sum(b) AS s FROM t WHERE b > 3 GROUP BY a HAVING sum(b) > 20",
]


class TestDeferredAnswers:
    @given(
        initial=st.lists(ROW_VALUES, min_size=8, max_size=30),
        steps=STEPS,
        eager=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_answer_equals_the_full_query(self, initial, steps, eager):
        database = Database()
        database.create_table("t", ["id", "a", "b"], primary_key="id")
        rows = [(row_id, a, b) for row_id, (a, b) in enumerate(initial)]
        database.insert("t", rows)
        next_id = len(rows)
        system = IMPSystem(
            database,
            num_fragments=3,
            strategy=EagerStrategy(batch_size=2) if eager else LazyStrategy(),
        )
        for sql in TEMPLATES:
            assert answers_match(system, sql)
        for kind, argument in steps:
            if kind == "insert":
                new = [(next_id + i, a, b) for i, (a, b) in enumerate(argument)]
                next_id += len(new)
                rows.extend(new)
                system.apply_update("t", inserts=new)
            elif kind == "delete":
                if not rows:
                    continue
                victims = {rows[index % len(rows)] for index in argument}
                rows = [row for row in rows if row not in victims]
                system.apply_update("t", deletes=victims)
            else:
                assert answers_match(system, TEMPLATES[argument])
            for entry in system.store.entries():
                if entry.instrumented_sketch is not None:
                    plan, sketch = entry.plan, entry.instrumented_sketch
                    plain = instrument_plan(plan, sketch).explain() == plan.explain()
                    assert entry.skips_nothing == skips_nothing(plan, sketch) == plain
        for sql in TEMPLATES:
            assert answers_match(system, sql)


class TestTotalSeconds:
    @pytest.mark.parametrize("strategy", ["lazy", "eager"])
    def test_is_the_wall_time_of_queries_and_updates(self, strategy):
        database = Database()
        table = load_synthetic(database, num_rows=4_000, num_groups=200, seed=5)
        system = IMPSystem(
            database,
            num_fragments=20,
            strategy=LazyStrategy() if strategy == "lazy" else EagerStrategy(),
        )
        wall = 0.0
        for _ in range(8):
            inserts, deletes = table.make_inserts(20), table.pick_deletes(5)
            started = time.perf_counter()
            system.run_query(q_endtoend())
            system.apply_update("r", inserts, deletes)
            wall += time.perf_counter() - started
        statistics = system.statistics
        assert statistics.sketch_maintenances > 0
        assert statistics.total_seconds() == (
            statistics.query_seconds + statistics.update_seconds
        )
        # Maintenance used to be added once more on top of the calls' time.
        assert 0.8 * wall < statistics.total_seconds() <= wall
        if strategy == "eager":
            # Eager rounds run inside apply_update and count in its seconds.
            assert statistics.scheduler.rounds > 0
            assert statistics.update_seconds >= statistics.scheduler.seconds
