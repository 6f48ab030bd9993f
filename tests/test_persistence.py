"""Tests for persisting and restoring incremental maintenance state.

The paper's middleware can persist operator state in the backend database and
resume incremental maintenance from it after a restart or state eviction
(Sec. 2).  These tests verify that a round trip through the persisted
representation preserves maintenance correctness: a restored engine continues
to produce sketches identical to those of an engine that never left memory.
"""

import json
import random

import pytest

from repro.core.errors import StateError
from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import IncrementalJoin
from repro.imp.persistence import (
    STATE_TABLE,
    StatePersistence,
    _operators_in_order,
    dump_engine_state,
    load_engine_state,
)
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_groups, q_joinsel, q_topk
from repro.workloads.synthetic import load_join_helper, load_synthetic


@pytest.fixture()
def loaded_db():
    database = Database()
    table = load_synthetic(database, num_rows=1200, num_groups=60, seed=21)
    load_join_helper(database, num_rows=300, join_domain=60, seed=22)
    return database, table


QUERIES = [
    q_groups(threshold=900),
    q_joinsel(filter_threshold=2000, having_threshold=2000),
    q_topk(k=5),
    "SELECT DISTINCT a FROM r WHERE b < 600",
    "SELECT a, min(b) AS lo, max(c) AS hi FROM r GROUP BY a HAVING max(c) > 100",
]


class TestEngineStateRoundTrip:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_restored_engine_matches_live_engine(self, loaded_db, sql):
        database, table = loaded_db
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        live = IncrementalEngine(plan, partition, database, IMPConfig(topk_buffer=50))
        live.initialize()
        payload = dump_engine_state(live)

        restored = IncrementalEngine(plan, partition, database, IMPConfig(topk_buffer=50))
        load_engine_state(restored, payload)
        assert restored.is_initialized
        assert set(restored.current_sketch().fragment_ids()) == set(
            live.current_sketch().fragment_ids()
        )

        # Both engines must evolve identically under the same delta.
        version = database.version
        deletes = table.pick_deletes(8)
        inserts = table.make_inserts(15)
        database.delete_rows("r", deletes)
        database.insert("r", inserts)
        delta = database.database_delta_since(plan.referenced_tables(), version)
        live_outcome = live.maintain(delta, database.version)
        restored_outcome = restored.maintain(delta, database.version)
        assert live_outcome.sketch_delta.added == restored_outcome.sketch_delta.added
        assert live_outcome.sketch_delta.removed == restored_outcome.sketch_delta.removed

        accurate = capture_sketch(plan, partition, database)
        maintained = restored.current_sketch()
        assert set(maintained.fragment_ids()) >= set(accurate.fragment_ids())

    def test_dump_requires_initialization(self, loaded_db):
        database, _table = loaded_db
        plan = database.plan(q_groups())
        partition = build_database_partition(database, plan, 8)
        engine = IncrementalEngine(plan, partition, database)
        with pytest.raises(StateError):
            dump_engine_state(engine)

    def test_load_rejects_mismatched_plans(self, loaded_db):
        database, _table = loaded_db
        plan_a = database.plan(q_groups())
        plan_b = database.plan(q_joinsel(filter_threshold=2000, having_threshold=2000))
        partition = build_database_partition(database, plan_a, 8)
        engine_a = IncrementalEngine(plan_a, partition, database)
        engine_a.initialize()
        payload = dump_engine_state(engine_a)
        partition_b = build_database_partition(database, plan_b, 8)
        engine_b = IncrementalEngine(plan_b, partition_b, database)
        with pytest.raises(StateError):
            load_engine_state(engine_b, payload)

    def test_payload_is_json_serialisable(self, loaded_db):
        import json

        database, _table = loaded_db
        plan = database.plan(QUERIES[4])
        partition = build_database_partition(database, plan, 8)
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        payload = dump_engine_state(engine)
        restored_payload = json.loads(json.dumps(payload))
        fresh = IncrementalEngine(plan, partition, database)
        load_engine_state(fresh, restored_payload)
        assert set(fresh.current_sketch().fragment_ids()) == set(
            engine.current_sketch().fragment_ids()
        )


class TestBackendPersistence:
    def test_save_and_restore_maintainer(self, loaded_db):
        database, table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()

        persistence = StatePersistence(database)
        persistence.save_maintainer("q_groups", sql, maintainer)
        assert database.has_table(STATE_TABLE)
        assert persistence.saved_keys() == ["q_groups"]

        # Simulate a restart: updates land while no maintainer is in memory.
        deletes = table.pick_deletes(10)
        database.delete_rows("r", deletes)
        database.insert("r", table.make_inserts(20))

        restored_sql, restored = persistence.load_maintainer("q_groups")
        assert restored_sql == sql
        assert restored.is_captured
        assert restored.is_stale()
        result = restored.maintain()
        accurate = capture_sketch(plan, partition, database)
        assert set(result.sketch.fragment_ids()) >= set(accurate.fragment_ids())
        assert not result.recaptured

    def test_save_overwrites_previous_version(self, loaded_db):
        database, table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        persistence = StatePersistence(database)
        persistence.save_maintainer("entry", sql, maintainer)
        database.insert("r", table.make_inserts(5))
        maintainer.maintain()
        persistence.save_maintainer("entry", sql, maintainer)
        assert len(persistence.saved_keys()) == 1
        _sql, restored = persistence.load_maintainer("entry")
        assert restored.valid_at_version == maintainer.valid_at_version

    def test_restored_join_query_rebuilds_side_state_and_stays_correct(self, loaded_db):
        """What a join keeps of its sides is not persisted: a restored join
        has neither filters nor indexes and builds each side's index at the
        first delta of the other side."""
        database, table = loaded_db
        sql = q_joinsel(filter_threshold=2000, having_threshold=2000)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        persistence = StatePersistence(database)
        persistence.save_maintainer("join", sql, maintainer)

        def assert_over_approximates(result):
            accurate = capture_sketch(plan, partition, database)
            assert set(result.sketch.fragment_ids()) >= set(accurate.fragment_ids())

        database.insert("r", table.make_inserts(15))
        _sql, restored = persistence.load_maintainer("join")
        (join,) = [
            operator
            for operator in _operators_in_order(restored.engine._merge)
            if isinstance(operator, IncrementalJoin)
        ]
        left, right = (side.state for side in join.sides)
        assert left.bloom is None and right.bloom is None
        assert left.buckets is None and right.buckets is None
        assert_over_approximates(restored.maintain())
        # A delta on r builds the tjoinhelp side, and vice versa.
        assert right.buckets is not None and left.buckets is None
        assert restored.statistics.bloom_filtered_tuples == 0
        database.insert("tjoinhelp", [(10_000 + i, i % 60, i) for i in range(5)])
        assert_over_approximates(restored.maintain())
        assert left.buckets is not None
        assert restored.statistics.backend_round_trips == 2

        # Both sides are indexed now: r rows whose key has no partner find an
        # empty bucket, and nothing is evaluated from scratch any more.
        unjoinable = [(row[0], 9_999, *row[2:]) for row in table.make_inserts(4)]
        database.insert("r", unjoinable)
        assert_over_approximates(restored.maintain())
        assert restored.statistics.backend_round_trips == 2

    def test_loading_into_an_initialised_engine_drops_its_side_state(self, loaded_db):
        """It was derived from the database the engine saw, not from the
        state being restored."""
        database, _table = loaded_db
        plan = database.plan(q_joinsel(filter_threshold=2000, having_threshold=2000))
        partition = build_database_partition(database, plan, 16)
        saved = IncrementalEngine(plan, partition, database)
        saved.initialize()
        payload = dump_engine_state(saved)
        version = database.version
        database.insert("tjoinhelp", [(20_000 + i, 7_000 + i, i) for i in range(5)])
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        (join,) = [
            operator
            for operator in _operators_in_order(engine._merge)
            if isinstance(operator, IncrementalJoin)
        ]
        assert all(side.state.bloom is not None for side in join.sides)
        load_engine_state(engine, payload)
        assert all(
            side.state.bloom is None and side.state.buckets is None
            for side in join.sides
        )
        # The restored engine is at the saved version and maintains from there.
        engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert set(engine.current_sketch().fragment_ids()) >= set(
            capture_sketch(plan, partition, database).fragment_ids()
        )

    def test_missing_key_and_forget(self, loaded_db):
        database, _table = loaded_db
        persistence = StatePersistence(database)
        with pytest.raises(StateError):
            persistence.load_maintainer("missing")
        persistence.forget("missing")  # no error

    def test_unsaved_maintainer_rejected(self, loaded_db):
        database, _table = loaded_db
        sql = q_groups()
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 8)
        maintainer = IncrementalMaintainer(database, plan, partition)
        persistence = StatePersistence(database)
        with pytest.raises(StateError):
            persistence.save_maintainer("x", sql, maintainer)


class TestCorruptPayloads:
    """A persisted row survives restarts and crashes; by the time it is read
    back nothing about its producer can be assumed.  Every corruption must
    surface as a StateError naming the key -- never a raw KeyError or
    JSONDecodeError -- and load_or_capture must degrade to a fresh capture."""

    def _overwrite(self, database, key, raw_payload):
        table = database.table(STATE_TABLE)
        existing = table.lookup_by_key(key)
        if existing is not None:
            database.delete_rows(STATE_TABLE, [existing])
        database.insert(STATE_TABLE, [(key, raw_payload)])

    @pytest.mark.parametrize(
        "raw",
        [
            "this is not json {",
            "[1, 2, 3]",  # JSON, but not an object
            "{}",  # object, but every field missing
            '{"sql": "SELECT a FROM r", "partition": "nope"}',  # wrong shapes
            '{"sql": "SELECT a FROM r", "partition": [], "config": {"bogus_knob": 1}}',
        ],
    )
    def test_corrupt_payload_raises_state_error_with_context(self, loaded_db, raw):
        database, _table = loaded_db
        persistence = StatePersistence(database)
        self._overwrite(database, "bad", raw)
        with pytest.raises(StateError, match="'bad'"):
            persistence.load_maintainer("bad")

    def test_wrong_operator_count_is_a_state_error(self, loaded_db):
        database, _table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        persistence = StatePersistence(database)
        persistence.save_maintainer("trimmed", sql, maintainer)
        payload = json.loads(database.table(STATE_TABLE).lookup_by_key("trimmed")[1])
        payload["engine_state"]["operators"] = payload["engine_state"]["operators"][:-1]
        self._overwrite(database, "trimmed", json.dumps(payload))
        with pytest.raises(StateError, match="operator"):
            persistence.load_maintainer("trimmed")

    def test_payload_from_before_the_toggles_were_retired_still_restores(self, loaded_db):
        database, _table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(use_bloom_filters=False, topk_buffer=7)
        )
        maintainer.capture()
        persistence = StatePersistence(database)
        persistence.save_maintainer("old", sql, maintainer)
        payload = json.loads(database.table(STATE_TABLE).lookup_by_key("old")[1])
        assert sorted(payload["config"]) == [
            "min_max_buffer", "selection_pushdown", "topk_buffer", "use_bloom_filters",
        ]
        # What PRs 1-11 wrote: the same config plus the since-retired setting.
        payload["config"]["compile_expressions"] = False
        self._overwrite(database, "old", json.dumps(payload))
        restored_sql, restored = persistence.load_maintainer("old")
        assert restored_sql == sql
        assert restored.config == maintainer.config
        assert set(restored.sketch.fragment_ids()) == set(maintainer.sketch.fragment_ids())

    def test_load_or_capture_restores_a_good_entry(self, loaded_db):
        database, _table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        persistence = StatePersistence(database)
        persistence.save_maintainer("good", sql, maintainer)

        def never_called():
            raise AssertionError("capture fallback must not run for a good entry")

        restored_sql, restored, was_restored = persistence.load_or_capture(
            "good", never_called
        )
        assert was_restored and restored_sql == sql
        assert restored.is_captured

    def test_load_or_capture_falls_back_and_forgets_a_bad_entry(self, loaded_db):
        database, _table = loaded_db
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        persistence = StatePersistence(database)
        self._overwrite(database, "bad", "{corrupt")

        def capture():
            maintainer = IncrementalMaintainer(database, plan, partition)
            maintainer.capture()
            return sql, maintainer

        restored_sql, restored, was_restored = persistence.load_or_capture(
            "bad", capture
        )
        assert not was_restored and restored_sql == sql
        assert restored.is_captured
        # The corrupt row was dropped, so the next save starts clean.
        assert persistence.saved_keys() == []
        persistence.save_maintainer("bad", sql, restored)
        assert persistence.load_maintainer("bad")[0] == sql


class TestEvictionWorkflow:
    def test_periodic_persist_evict_restore_cycle(self, loaded_db):
        """Simulates the paper's eviction scenario over several cycles."""
        database, table = loaded_db
        rng = random.Random(77)
        sql = q_groups(threshold=900)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 16)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        persistence = StatePersistence(database)
        for cycle in range(3):
            persistence.save_maintainer("cycled", sql, maintainer)
            del maintainer  # evicted from memory
            deletes = table.pick_deletes(rng.randrange(3, 8))
            database.delete_rows("r", deletes)
            database.insert("r", table.make_inserts(rng.randrange(5, 15)))
            _sql, maintainer = persistence.load_maintainer("cycled")
            result = maintainer.maintain()
            accurate = capture_sketch(plan, partition, database)
            assert set(result.sketch.fragment_ids()) >= set(accurate.fragment_ids())
