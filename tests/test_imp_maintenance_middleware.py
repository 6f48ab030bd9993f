"""Tests for maintainers, the sketch store, strategies and the middleware."""

import dataclasses
import inspect

import pytest

from repro.imp.engine import IMPConfig, capture_sketch
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.imp.middleware import (
    FullMaintenanceSystem,
    IMPSystem,
    NoSketchSystem,
)
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.imp.strategies import EagerStrategy, LazyStrategy
from repro.sketch.selection import build_database_partition
from repro.sql.template import template_of
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.queries import q_endtoend, q_groups, q_join
from repro.workloads.synthetic import load_join_helper, load_synthetic
from repro.storage.database import Database
from tests.conftest import Q_TOP, S8
from tests.reference import AnnotatedEvaluator, oracle_at


@pytest.fixture()
def maintained_setup(sales_db, sales_partition):
    plan = sales_db.plan(Q_TOP)
    maintainer = IncrementalMaintainer(sales_db, plan, sales_partition)
    maintainer.capture()
    return sales_db, plan, sales_partition, maintainer


class TestIncrementalMaintainer:
    def test_capture_records_version(self, maintained_setup):
        database, _plan, _partition, maintainer = maintained_setup
        assert maintainer.is_captured
        assert maintainer.valid_at_version == database.version
        assert not maintainer.is_stale()

    def test_staleness_tracks_referenced_tables_only(self, maintained_setup):
        database, _plan, _partition, maintainer = maintained_setup
        database.create_table("unrelated", ["x"])
        database.insert("unrelated", [(1,)])
        assert not maintainer.is_stale()
        database.insert("sales", [S8])
        assert maintainer.is_stale()

    def test_maintain_applies_delta_and_matches_truth(self, maintained_setup):
        database, plan, partition, maintainer = maintained_setup
        database.insert("sales", [S8])
        result = maintainer.maintain()
        truth = capture_sketch(plan, partition, database)
        assert set(result.sketch.fragment_ids()) == set(truth.fragment_ids())
        assert result.delta_tuples == 1
        assert not result.recaptured
        assert result.changed

    def test_maintain_is_idempotent(self, maintained_setup):
        database, _plan, _partition, maintainer = maintained_setup
        fetches = database.delta_fetch_count
        first = maintainer.maintain()
        second = maintainer.maintain()
        assert first.sketch == second.sketch
        assert second.delta_tuples == 0 and not second.changed
        # A current sketch is returned at once: no delta is fetched.
        assert database.delta_fetch_count == fetches

    def test_maintain_with_stops_at_the_version_the_delta_was_fetched_for(
        self, maintained_setup
    ):
        """A commit landing between the caller's delta fetch and the call must
        stay visible as staleness: ``target_version`` is required, so the
        sketch can never be marked valid at a version whose delta it did not
        see (regression: it used to default to the live version)."""
        database, plan, partition, maintainer = maintained_setup
        tables = plan.referenced_tables()
        captured_at = maintainer.valid_at_version
        fetched_at = database.insert("sales", [S8])
        db_delta = database.database_delta_since(tables, captured_at, fetched_at)
        database.insert("sales", [(9, "HP", "HP ZBook", 4000, 2)])  # the racing commit
        with pytest.raises(TypeError):
            maintainer.maintain_with(db_delta)
        maintainer.maintain_with(db_delta, fetched_at)
        assert maintainer.valid_at_version == fetched_at
        assert maintainer.is_stale()
        result = maintainer.maintain()
        assert result.delta_tuples == 1  # only the racing commit was left
        assert maintainer.valid_at_version == database.version
        truth = capture_sketch(plan, partition, database)
        assert set(result.sketch.fragment_ids()) == set(truth.fragment_ids())

    def test_recapture_on_buffer_exhaustion(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        rows = [(i, i % 3, i, i) for i in range(40)]
        database.insert("r", rows)
        plan = database.plan("SELECT a, min(b) AS lo FROM r GROUP BY a HAVING min(b) < 100")
        partition = build_database_partition(database, plan, 4)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(min_max_buffer=2)
        )
        maintainer.capture()
        victims = sorted((row for row in rows if row[1] == 0), key=lambda r: r[2])[:5]
        database.delete_rows("r", victims)
        result = maintainer.maintain()
        assert result.recaptured
        truth = capture_sketch(plan, partition, database)
        assert set(result.sketch.fragment_ids()) == set(truth.fragment_ids())

    def test_memory_bytes_positive_after_capture(self, maintained_setup):
        _db, _plan, _partition, maintainer = maintained_setup
        assert maintainer.memory_bytes() > 0


class TestFullMaintainer:
    def test_full_maintenance_recaptures(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        maintainer = FullMaintainer(sales_db, plan, sales_partition)
        maintainer.capture()
        sales_db.insert("sales", [S8])
        result = maintainer.maintain()
        assert result.recaptured
        assert sorted(result.sketch.fragment_ids()) == [1, 2, 3]
        assert result.sketch_delta.added == frozenset({1})

    def test_full_maintenance_equals_the_oracle_after_inserts_and_deletes(self):
        database = Database()
        table = load_synthetic(database, num_rows=300, num_groups=12, seed=4)
        load_join_helper(database, num_rows=40, join_domain=12, seed=5)
        plan = database.plan(q_join(filter_threshold=900, having_threshold=700))
        partition = build_database_partition(database, plan, 8)
        maintainer = FullMaintainer(database, plan, partition)
        previous = maintainer.capture().sketch
        for _ in range(3):
            database.delete_rows("r", table.pick_deletes(25))
            database.insert("r", table.make_inserts(10))
            result = maintainer.maintain()
            oracle = AnnotatedEvaluator(database, partition).capture(plan)
            assert set(result.sketch.fragment_ids()) == set(oracle.fragment_ids())
            assert previous.apply_delta(result.sketch_delta) == result.sketch
            previous = result.sketch

    def test_full_maintainer_has_no_state_memory(self, sales_db, sales_partition):
        maintainer = FullMaintainer(sales_db, sales_db.plan(Q_TOP), sales_partition)
        maintainer.capture()
        assert maintainer.memory_bytes() == 0


class TestSketchStore:
    def _entry(self, sales_db, sales_partition, sql=Q_TOP) -> SketchEntry:
        plan = sales_db.plan(sql)
        maintainer = IncrementalMaintainer(sales_db, plan, sales_partition)
        maintainer.capture()
        return SketchEntry(
            template=template_of(sql),
            sql=sql,
            plan=plan,
            partition=sales_partition,
            maintainer=maintainer,
        )

    def test_put_get_and_statistics(self, sales_db, sales_partition):
        store = SketchStore()
        template = template_of(Q_TOP)
        assert store.get(template) is None
        store.put(self._entry(sales_db, sales_partition))
        assert store.get(template) is not None
        assert store.statistics.hits == 1
        assert store.statistics.misses == 1
        assert len(store) == 1

    def test_memory_and_summary(self, sales_db, sales_partition):
        store = SketchStore()
        store.put(self._entry(sales_db, sales_partition))
        assert store.memory_bytes() > 0
        summary = store.summary()
        assert summary["sketches"] == 1

    def test_remove(self, sales_db, sales_partition):
        store = SketchStore()
        entry = self._entry(sales_db, sales_partition)
        store.put(entry)
        store.remove(entry.template)
        assert len(store) == 0
        store.remove(entry.template)  # absent: no error
        assert len(store) == 0

    def test_store_without_budget_never_evicts(self, sales_db, sales_partition):
        store = SketchStore()
        sqls = [
            Q_TOP,
            "SELECT brand, SUM(price) AS sp FROM sales GROUP BY brand HAVING SUM(price) > 100",
            "SELECT brand, MAX(numsold) AS m FROM sales GROUP BY brand HAVING MAX(numsold) > 1",
        ]
        for sql in sqls:
            store.put(self._entry(sales_db, sales_partition, sql=sql))
        assert store.max_bytes is None
        assert store.enforce_memory_budget() == 0
        assert len(store) == 3 and store.statistics.evictions == 0
        assert store.statistics.captures == 3


class TestStrategies:
    def test_lazy_never_maintains_eagerly(self):
        strategy = LazyStrategy()
        strategy.register_update("r", 100)
        assert strategy.tables_to_maintain() == set()

    def test_eager_batches_by_statement_count(self):
        strategy = EagerStrategy(batch_size=3)
        for _ in range(2):
            strategy.register_update("r", 10)
        assert strategy.tables_to_maintain() == set()
        strategy.register_update("r", 10)
        assert strategy.tables_to_maintain() == {"r"}
        strategy.acknowledge_maintenance({"r"})
        assert strategy.pending("r") == 0

    def test_eager_counts_statements_not_tuples(self):
        # A batch is a number of update statements, however many tuples
        # each one carries.
        strategy = EagerStrategy(batch_size=2)
        strategy.register_update("R", 10_000)
        assert strategy.tables_to_maintain() == set()
        assert strategy.pending("r") == 1
        strategy.register_update("r", 0)
        assert strategy.tables_to_maintain() == {"r"}
        assert strategy.describe() == "eager(batch=2 updates)"

    def test_describe(self):
        assert "eager" in EagerStrategy(batch_size=5).describe()
        assert LazyStrategy().describe() == "lazy"


class TestMiddleware:
    def _loaded_db(self) -> Database:
        database = Database()
        load_synthetic(database, num_rows=1500, num_groups=40, seed=3)
        return database

    def test_all_systems_agree_on_query_results(self):
        sql = q_groups(threshold=800)
        databases = [self._loaded_db() for _ in range(3)]
        systems = [
            NoSketchSystem(databases[0]),
            FullMaintenanceSystem(databases[1], num_fragments=16),
            IMPSystem(databases[2], num_fragments=16),
        ]
        results = [sorted(system.run_query(sql).rows()) for system in systems]
        assert results[0] == results[1] == results[2]

    def test_imp_reuses_sketch_and_stays_correct_under_updates(self):
        database = self._loaded_db()
        reference = Database()
        table = load_synthetic(reference, num_rows=1500, num_groups=40, seed=3)
        system = IMPSystem(database, num_fragments=16)
        sql = q_groups(threshold=800)
        system.run_query(sql)
        assert system.statistics.sketch_captures == 1
        for _ in range(3):
            deletes = table.pick_deletes(5)
            inserts = table.make_inserts(15)
            system.apply_update("r", inserts, deletes)
            reference.insert("r", inserts)
            reference.delete_rows("r", deletes)
            got = sorted(system.run_query(sql).rows())
            expected = sorted(reference.query(sql).rows())
            assert got == expected
        assert system.statistics.sketch_captures == 1
        assert system.statistics.sketch_maintenances >= 3

    def test_instrumented_plan_is_cached_by_sketch_content(self):
        """Maintenance that leaves the sketch as it was reuses the rewritten
        plan; only a changed sketch pays for the use rewrite and the optimizer
        again."""
        database = Database()
        table = load_synthetic(database, num_rows=1500, num_groups=40, seed=3)
        system = IMPSystem(database, num_fragments=16)
        sql = q_groups(threshold=800)  # ... HAVING avg(c) < 800, sketch on r.a
        system.run_query(sql)
        (entry,) = system.store.entries()
        plan, sketch = entry.instrumented_plan, entry.sketch
        assert entry.instrumented_sketch == sketch
        version = entry.valid_at_version
        system.apply_update("r", table.make_inserts(3))
        assert system.run_query(sql) == database.query(sql)
        assert entry.valid_at_version > version  # maintained ...
        assert entry.sketch == sketch  # ... to the same sketch
        assert entry.instrumented_plan is plan
        # Pull the average of the last group under the threshold: its
        # fragment enters the sketch and the plan is rewritten.
        filler = table.make_inserts(1)[0][4:]
        system.apply_update(
            "r", [(100_000 + i, 39, 1.0, 0.0, *filler) for i in range(300)]
        )
        assert system.run_query(sql) == database.query(sql)
        assert entry.sketch != sketch
        assert entry.instrumented_plan is not plan
        assert entry.instrumented_sketch == entry.sketch

    def test_unsupported_query_falls_back_to_plain_evaluation(self):
        database = self._loaded_db()
        system = IMPSystem(database, num_fragments=16)
        # avg(...) HAVING over a non-group attribute is not safe for sketches on
        # any numeric attribute except the group-by one; a query without any
        # safe attribute (string group-by only) must still be answered.
        database.create_table("names", ["label"])
        database.insert("names", [("x",), ("y",)])
        result = system.run_query(
            "SELECT label, count(*) AS n FROM names GROUP BY label HAVING count(*) > 0"
        )
        assert len(result) == 2
        assert system.statistics.fallback_queries == 1

    @pytest.mark.parametrize("system_class", [IMPSystem, FullMaintenanceSystem])
    def test_other_constants_of_a_template_are_not_answered_from_its_sketch(
        self, system_class
    ):
        # Both bindings share one constant-free template, hence one store
        # entry -- whose sketch and plan belong to the first binding only.
        database = self._loaded_db()
        system = system_class(database, num_fragments=16)
        first, second = q_endtoend(low=200, high=300), q_endtoend(low=400, high=700)
        assert template_of(first) == template_of(second)
        assert database.query(first) != database.query(second)
        for sql in (first, second, first):
            assert system.run_query(sql) == database.query(sql), sql
        # Spelling alone (case, whitespace) is not another binding.
        assert system.run_query(first.replace("SELECT", "select  ")) == database.query(first)
        assert system.statistics.sketch_captures == 1
        assert system.statistics.sketch_hits == 3
        assert system.statistics.fallback_queries == 1

    def test_eager_strategy_maintains_on_update(self):
        database = self._loaded_db()
        reference = Database()
        table = load_synthetic(reference, num_rows=1500, num_groups=40, seed=3)
        system = IMPSystem(
            database, num_fragments=16, strategy=EagerStrategy(batch_size=1)
        )
        sql = q_groups(threshold=800)
        system.run_query(sql)
        inserts = table.make_inserts(10)
        system.apply_update("r", inserts)
        reference.insert("r", inserts)
        assert system.statistics.sketch_maintenances >= 1
        assert sorted(system.run_query(sql).rows()) == sorted(reference.query(sql).rows())

    def test_query_hits_decide_what_the_byte_budget_evicts(self):
        # Three templates whose HAVING attributes differ, so no state is
        # shared and each entry's footprint is its own.
        first, second, third = multi_sketch_templates(27)[::9]
        unbounded = IMPSystem(self._loaded_db(), num_fragments=16)
        for sql in (first, second, third):
            unbounded.run_query(sql)
        sizes = {entry.sql: entry.memory_bytes() for entry in unbounded.store.entries()}
        database = self._loaded_db()
        system = IMPSystem(
            database, num_fragments=16, store_max_bytes=sizes[first] + sizes[third]
        )
        system.run_query(first)
        system.run_query(second)
        system.run_query(first)  # a hit: `second` is now the least recently used
        assert system.run_query(third) == database.query(third)
        assert {entry.sql for entry in system.store.entries()} == {first, third}
        assert system.store.statistics.evictions == 1
        # The evicted template is captured again and still answers correctly.
        assert system.run_query(second) == database.query(second)
        assert system.statistics.sketch_captures == 4

    def test_apply_update_without_rows_is_noop(self):
        database = self._loaded_db()
        system = NoSketchSystem(database)
        version = database.version
        assert system.apply_update("r") == version

    def test_summaries_report_key_counters(self):
        database = self._loaded_db()
        system = IMPSystem(database, num_fragments=16)
        system.run_query(q_groups(threshold=800))
        summary = system.summary()
        assert summary["system"] == "imp"
        assert summary["sketches"] == 1
        assert "total_seconds" in summary


# Every group's sum passes, so this sketch holds every fragment (skips nothing).
FULL = "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 1"
# A string group-by under HAVING: no attribute is safe, so no sketch.
UNSAFE = "SELECT label, count(*) AS n FROM names GROUP BY label HAVING count(*) > 0"
RANGE = "SELECT id, b FROM t WHERE a BETWEEN {} AND {}"


@pytest.mark.parametrize("system_class", [IMPSystem, FullMaintenanceSystem])
def test_every_answer_names_the_version_it_was_computed_at(system_class):
    """A sketch-based system's answer -- a hit, a deferred skip-nothing
    answer, a fallback without a safe attribute or for another binding --
    and a no-sketch one name the version they were computed at, a session's
    its pin; ``Database.query`` holds no lock and names none, and ``==``
    ignores the version."""
    database = Database()
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert("t", [(i, float(i % 20), 1) for i in range(40)])
    database.create_table("names", ["label"])
    database.insert("names", [("x",), ("y",)])
    system = system_class(database, num_fragments=4)
    statistics = system.statistics
    pinned = database.version
    assert system.run_query(FULL).version == pinned  # a capture, then a hit
    assert statistics.sketch_hits == 1
    session = database.connect()
    system.apply_update("t", inserts=[(100, 3.0, 1)])
    version = database.version
    assert version == pinned + 1
    deferred = system.run_query(FULL)
    assert (statistics.deferred_ensures, deferred.version) == (1, version)
    assert system.run_query(UNSAFE).version == version
    assert statistics.fallback_queries == 1
    system.run_query(RANGE.format(0, 4))
    system.apply_update("t", inserts=[(101, 2.0, 1)])
    version = database.version
    hit = system.run_query(RANGE.format(0, 4))  # maintained, then answered
    assert (statistics.sketch_hits, statistics.deferred_ensures) == (4, 1)
    assert hit.version == version
    assert system.run_query(RANGE.format(5, 9)).version == version  # another binding
    assert statistics.fallback_queries == 2
    assert NoSketchSystem(database).run_query(FULL).version == version
    snapshot = session.query(FULL)
    assert snapshot.version == pinned
    assert snapshot == oracle_at(database, pinned, FULL)
    session.close()
    plain = database.query(FULL)
    assert plain.version is None
    assert plain == system.run_query(FULL) and plain != snapshot


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def _init_fields(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls) if field.init]


@pytest.mark.parametrize(
    ("surface", "options"),
    [
        (lambda: _parameters(IMPSystem),
         ["database", "num_fragments", "strategy", "store_max_bytes"]),
        (lambda: _parameters(FullMaintenanceSystem),
         ["database", "num_fragments", "strategy", "store_max_bytes"]),
        (lambda: _parameters(SketchStore), ["max_bytes"]),
        (lambda: _init_fields(EagerStrategy), ["batch_size"]),
        (lambda: _init_fields(IMPConfig),
         ["use_bloom_filters", "selection_pushdown", "min_max_buffer", "topk_buffer"]),
        (lambda: _parameters(build_database_partition),
         ["database", "plan", "num_fragments"]),
    ],
    ids=[
        "IMPSystem", "FullMaintenanceSystem", "SketchStore", "EagerStrategy",
        "IMPConfig", "build_database_partition",
    ],
)
def test_every_option_has_a_caller(surface, options):
    """The settable options of the middleware's surfaces, pinned: each has a
    caller in ``src/``, ``bench/``, ``benchmarks/``, ``examples/`` or the
    CLI.  A new one is a deliberate edit here, not a silent addition."""
    assert surface() == options
