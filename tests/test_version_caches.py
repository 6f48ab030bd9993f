"""Property sweep: per-version caches never serve stale data.

The database keeps three things per version: the columnar batch of each
table (``column_batch``, brought forward from the previous version's batch by
the committed deltas), per-column summary statistics (``column_statistics``)
and equi-depth histogram boundaries (``equi_depth_ranges``).  Hypothesis
drives random commit / failed-commit (rollback) / drop / recreate sequences
and after *every* operation each answer is compared against a from-scratch
recomputation over the live table state -- the batch as a bag *and* in entry
order, which float aggregates depend on -- while batches handed out earlier
must stay exactly as they were.  Snapshot caches are exercised too: a session
pinned mid-sequence must keep answering from its version while the caches
underneath it churn.  The SQL-text plan cache (``Database.translation``) is
held to a fresh translation and the oracle after every operation, across DDL
changes, recovery and its LRU bound.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from collections import Counter
from unittest.mock import Mock, patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.imp.middleware import FullMaintenanceSystem, IMPSystem
from repro.imp.strategies import EagerStrategy, LazyStrategy
from repro.relational.columnar import ColumnBatch
from repro.relational.schema import Relation
from repro.sql import translator as sql_translator
from repro.sql.translator import Translator
from repro.storage.database import PLAN_CACHE_SIZE, Database
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.table import StoredTable, canonical_items
from repro.storage.statistics import collect_column_statistics, equi_depth_boundaries
from tests.reference import VersionRecorder, oracle

COLUMNS = ["id", "a", "b"]
ATTRIBUTES = ["a", "b"]

value_strategy = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    st.none(),
)

operation_strategy = st.one_of(
    st.tuples(st.just("insert"), st.lists(st.tuples(value_strategy, value_strategy), min_size=1, max_size=5)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("failed-insert"), st.tuples(value_strategy, value_strategy)),
    st.tuples(st.just("failed-delete"), st.just(None)),
    st.tuples(st.just("drop-recreate"), st.just(None)),
    st.tuples(st.just("empty-commit"), st.just(None)),
)


def fresh_batch(database: Database, table: str) -> list[tuple]:
    stored = database.table(table)
    # Keyed by repr: rows of the key-less table tie on every leading value
    # and None does not order against numbers.
    return sorted(stored.items(), key=repr)


def batch_rows(batch: ColumnBatch) -> list[tuple]:
    return sorted(zip(batch.row_tuples(), batch.multiplicities), key=repr)


def batch_entries(batch: ColumnBatch) -> list[tuple]:
    return list(zip(batch.row_tuples(), batch.multiplicities))


def assert_batch_fresh(database: Database, table: str) -> ColumnBatch:
    """The maintained batch equals a from-scratch pivot, as a bag and in the
    order ``relation`` (and a cold pivot of the row dict) enumerates."""
    stored = database.table(table)
    batch = database.column_batch(table)
    assert database.column_batch(table) is batch  # one object per version
    assert stored.pending_batch_tuples == 0
    assert batch.consolidated
    assert batch_rows(batch) == fresh_batch(database, table)
    pivot = ColumnBatch.from_items(stored.schema, stored.items(), consolidated=True)
    assert batch_entries(batch) == batch_entries(pivot)
    assert batch_entries(batch) == list(database.relation(table).items())
    return batch


class HeldBatches:
    """Batches handed out earlier, with what they held at the time: later
    commits and scans must never touch them (readers may still hold one)."""

    def __init__(self) -> None:
        self._held: list[tuple[ColumnBatch, list[tuple]]] = []

    def hold(self, batch: ColumnBatch) -> None:
        if not self._held or self._held[-1][0] is not batch:
            self._held.append((batch, batch_entries(batch)))

    def assert_unchanged(self) -> None:
        for batch, held in self._held:
            assert batch_entries(batch) == held
            assert all(len(column) == len(held) for column in batch.columns)


def assert_caches_fresh(database: Database, table: str) -> ColumnBatch:
    """Every cached per-version structure equals a from-scratch recompute."""
    stored = database.table(table)
    batch = assert_batch_fresh(database, table)
    for attribute in ATTRIBUTES:
        index = stored.schema.index_of(attribute)
        values = [row[index] for row in stored.rows()]
        cached = database.column_statistics(table, attribute)
        expected = collect_column_statistics(attribute, values, [1] * len(values))
        assert cached == expected, f"stale column_statistics for {attribute}"
        non_null = sorted(float(v) for v in values if v is not None)
        if non_null:
            assert database.equi_depth_ranges(table, attribute, 4) == (
                equi_depth_boundaries(non_null, [1] * len(non_null), 4)
            ), f"stale equi_depth_ranges for {attribute}"
    return batch


PLAN_TEXTS = [
    "SELECT id, a, b FROM t WHERE a < 10",
    "SELECT a, sum(b) AS s, count(*) AS n FROM t GROUP BY a",
]


def assert_plans_fresh(database: Database) -> None:
    """Each cached plan renders as a fresh translation, and its answer is the
    oracle's."""
    for sql in PLAN_TEXTS:
        fresh = Translator(database).translate_sql(sql)
        assert database.plan(sql).explain() == fresh.explain()
        assert database.query(sql) == oracle(database, sql)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(operation_strategy, min_size=1, max_size=12))
def test_version_caches_never_stale(operations):
    database = Database()
    database.create_table("t", COLUMNS, primary_key="id")
    next_id = 0
    live_rows: list[tuple] = []
    pinned_session = None
    pinned_expectation = None
    held = HeldBatches()

    # Warm every cache once so the sweep exercises invalidation, not cold fills.
    database.insert("t", [(next_id, 1, 2.0)])
    live_rows.append((next_id, 1, 2.0))
    next_id += 1
    held.hold(assert_caches_fresh(database, "t"))

    for position, (kind, payload) in enumerate(operations):
        if kind == "insert":
            rows = []
            for a, b in payload:
                rows.append((next_id, a, b))
                next_id += 1
            database.insert("t", rows)
            live_rows.extend(rows)
        elif kind == "delete":
            if live_rows:
                victim = live_rows.pop(payload % len(live_rows))
                database.delete_rows("t", [victim])
        elif kind == "failed-insert":
            if live_rows:
                taken_id = live_rows[0][0]
                clash = (taken_id, *payload)
                if clash != live_rows[0]:
                    before = fresh_batch(database, "t")
                    with pytest.raises(StorageError):
                        # Second row reuses a held primary key: validation
                        # must reject the whole batch atomically (rollback).
                        database.insert("t", [(next_id, 0, 0.0), clash])
                    assert fresh_batch(database, "t") == before
        elif kind == "failed-delete":
            before = fresh_batch(database, "t")
            with pytest.raises(StorageError):
                database.delete_rows("t", [(next_id + 10**6, None, None)])
            assert fresh_batch(database, "t") == before
        elif kind == "drop-recreate":
            if pinned_session is not None:
                pinned_session.close()
                pinned_session = None
            database.drop_table("t")
            database.create_table("t", COLUMNS, primary_key="id")
            live_rows = []
        elif kind == "empty-commit":
            version = database.version
            assert database.insert("t", []) == version

        # Mid-sequence, pin one session and keep checking it reads its version.
        if pinned_session is None and kind == "insert":
            pinned_session = database.connect()
            pinned_expectation = sorted(
                pinned_session.query("SELECT id, a, b FROM t").rows()
            )
        if pinned_session is not None:
            assert (
                sorted(pinned_session.query("SELECT id, a, b FROM t").rows())
                == pinned_expectation
            ), f"pinned snapshot drifted after op {position}: {kind}"

        held.hold(assert_caches_fresh(database, "t"))
        held.assert_unchanged()
        assert_plans_fresh(database)

    if pinned_session is not None:
        pinned_session.close()


# -- the SQL-text plan cache across DDL, recovery and its bound -------------------------


def swapped_tables(database: Database) -> None:
    """``t`` and ``u`` dropped and recreated with each other's columns."""
    database.drop_table("t")
    database.drop_table("u")
    database.create_table("t", ["k", "w"])
    database.create_table("u", ["id", "a", "b"])
    database.insert("t", [(i, i * 10) for i in range(20)])
    database.insert("u", [(i, i % 4, float(i)) for i in range(40)])


def stored_entry(system, sql: str):
    """The store's entry for ``sql``'s template (no hit counted)."""
    template = system.database.translation(sql)[1]
    return next(entry for entry in system.store.entries() if entry.template == template)


def test_a_recreated_table_answers_the_same_text_with_its_new_schema():
    """``a < 2`` moves from ``t`` to ``u`` when the tables are recreated with
    each other's columns: the same text re-translates, and both the database
    and the middleware answer with the new schema, as the oracle does."""
    database = Database()
    database.create_table("t", ["id", "a", "b"])
    database.create_table("u", ["k", "w"])
    database.insert("t", [(i, i % 4, float(i)) for i in range(40)])
    database.insert("u", [(i, i * 10) for i in range(20)])
    system = IMPSystem(database, num_fragments=4)
    texts = [
        "SELECT * FROM t, u WHERE id = k AND a < 2",
        "SELECT a, sum(w) AS s FROM t, u WHERE id = k AND a < 2 GROUP BY a",
    ]
    for sql in texts:
        assert system.run_query(sql) == database.query(sql) == oracle(database, sql)
    assert system.statistics.sketch_hits == len(texts)
    old_plans = [database.plan(sql) for sql in texts]
    old_entries = [stored_entry(system, sql) for sql in texts]
    old_versions = [entry.valid_at_version for entry in old_entries]

    swapped_tables(database)
    for sql, old_plan in zip(texts, old_plans):
        plan = database.plan(sql)
        assert plan is not old_plan
        assert plan.explain() == Translator(database).translate_sql(sql).explain()
        assert plan.explain() != old_plan.explain()
        expected = oracle(database, sql)
        assert database.query(sql) == expected
        assert system.run_query(sql) == expected
        # The entry the DDL change made unusable was replaced, so the text
        # is answered from a sketch again.
        hits = system.statistics.sketch_hits
        fallbacks = system.statistics.fallback_queries
        assert system.run_query(sql) == expected
        assert system.statistics.sketch_hits == hits + 1
        assert system.statistics.fallback_queries == fallbacks
        assert stored_entry(system, sql).plan is database.plan(sql)
    assert database.query(texts[0]).schema.attributes == (
        "t.k", "t.w", "u.id", "u.a", "u.b"
    )
    database.insert("u", [(40, 1, 40.0)])
    system.scheduler.run_round()
    for sql in texts:
        assert system.run_query(sql) == oracle(database, sql)
    assert [entry.valid_at_version for entry in old_entries] == old_versions
    assert not any(entry in system.store.entries() for entry in old_entries)


# -- the sketch store across DDL: one catalog version for every entry -------------

HAVING_SQL = "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 1500"

SYSTEMS = {
    "lazy": lambda database: IMPSystem(database, num_fragments=8),
    "eager": lambda database: IMPSystem(
        database, num_fragments=8, strategy=EagerStrategy(batch_size=1)
    ),
    "full-maintenance": lambda database: FullMaintenanceSystem(database, num_fragments=8),
}


def having_database() -> Database:
    """``t`` whose group ``a = 1`` sums far below the HAVING bound."""
    database = Database()
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert(
        "t", [(i, i % 10, -10000.0 if i % 10 == 1 else float(i)) for i in range(200)]
    )
    return database


U_SQL = "SELECT w, count(k) AS n FROM u GROUP BY w HAVING count(k) > 5"
JOIN_SQL = "SELECT a, sum(w) AS s FROM t, u WHERE id = k GROUP BY a HAVING sum(w) > 3"
STRATEGIES = {
    "lazy": LazyStrategy,
    "eager": lambda: EagerStrategy(batch_size=1),
}


def add_u(database: Database) -> None:
    """A second table ``u(k, w)`` beside ``t``."""
    database.create_table("u", ["k", "w"], primary_key="k")
    database.insert("u", [(i, i % 5) for i in range(50)])


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_ddl_on_an_unrelated_table_keeps_the_entries(strategy):
    """``side`` is created, filled, dropped and recreated between updates
    to ``t``: the entries over ``t`` stay (no capture again), and the next
    query of each text is a sketch hit that takes the current plan."""
    database = having_database()
    system = IMPSystem(database, num_fragments=8, strategy=STRATEGIES[strategy]())
    texts = [HAVING_SQL, MIN_SQL]
    for sql in texts:
        system.run_query(sql)
    entries = list(system.store.entries())

    database.create_table("side", ["x"])
    system.apply_update("t", [(1000, 3, 7.0)])
    database.insert("side", [(1,)])
    database.drop_table("side")
    database.create_table("side", ["x", "y"])
    system.apply_update("t", [(1001, 4, 9.0)])
    hits = system.statistics.sketch_hits
    for sql in texts:
        assert system.run_query(sql) == oracle(database, sql)
    assert system.statistics.sketch_captures == system.store.statistics.captures == len(texts)
    assert system.statistics.sketch_hits == hits + len(texts)
    assert system.statistics.fallback_queries == 0
    assert list(system.store.entries()) == entries
    for sql in texts:
        assert stored_entry(system, sql).plan is database.plan(sql)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_recreated_table_retires_only_its_own_entries(strategy):
    """``t`` dropped and recreated beside ``u``: the entries over ``t``,
    the join's included, are retired and captured again, while the entry
    over ``u`` alone stays and keeps answering as a sketch hit."""
    database = having_database()
    add_u(database)
    system = IMPSystem(database, num_fragments=8, strategy=STRATEGIES[strategy]())
    texts = [HAVING_SQL, U_SQL, JOIN_SQL]
    for sql in texts:
        system.run_query(sql)
    retired = [stored_entry(system, sql) for sql in (HAVING_SQL, JOIN_SQL)]
    kept = stored_entry(system, U_SQL)

    database.drop_table("t")
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    system.apply_update("t", [(i, i % 10, 2000.0 if i % 10 == 1 else 0.0) for i in range(100)])
    system.apply_update("u", [(50, 2)])
    hits = system.statistics.sketch_hits
    for sql in texts:
        assert system.run_query(sql) == oracle(database, sql)
    assert system.statistics.sketch_hits == hits + len(texts)
    assert system.statistics.sketch_captures == len(texts) + len(retired)
    assert stored_entry(system, U_SQL) is kept
    assert not any(entry in system.store.entries() for entry in retired)
    assert len(system.store) == len(texts)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_a_recreated_table_is_answered_from_a_fresh_capture(kind):
    """``t`` dropped and recreated with the same columns, then filled so
    that only group 1 passes the HAVING: the entry captured over the dropped
    table must not answer, nor take the new table's rows as its deltas."""
    database = having_database()
    system = SYSTEMS[kind](database)
    system.run_query(HAVING_SQL)
    old = next(system.store.entries())
    old_version = old.valid_at_version

    database.drop_table("t")
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    rows = [(i, i % 10, 2000.0 if i % 10 == 1 else 0.0) for i in range(100)]
    if kind == "eager":
        system.apply_update("t", rows)
    else:
        database.insert("t", rows)
    expected = oracle(database, HAVING_SQL)
    assert sorted(expected.rows()) == [(1, 20000.0)]
    assert system.run_query(HAVING_SQL) == database.query(HAVING_SQL) == expected
    assert system.statistics.sketch_captures == 2
    assert system.statistics.sketch_hits == 2
    assert old.valid_at_version == old_version
    assert old not in list(system.store.entries())


def test_a_recreate_with_permuted_columns_captures_again():
    """``t(id, b, a)`` renders the same plan as ``t(id, a, b)``: the text is
    answered from a new capture, not from the entry of the dropped table."""
    database = having_database()
    system = IMPSystem(database, num_fragments=8)
    system.run_query(HAVING_SQL)
    database.drop_table("t")
    database.create_table("t", ["id", "b", "a"], primary_key="id")
    database.insert(
        "t", [(i, 2000.0 if i % 10 == 1 else 0.0, i % 10) for i in range(100)]
    )
    assert system.run_query(HAVING_SQL) == oracle(database, HAVING_SQL)
    assert system.statistics.sketch_captures == 2
    assert system.statistics.sketch_hits == 2
    assert system.statistics.fallback_queries == 0


@pytest.mark.parametrize("round_kind", ["eager", "drain"])
def test_no_round_maintains_an_entry_captured_before_a_ddl_change(round_kind):
    """An eager round, or the final round of a drained background thread,
    after a drop and recreate: the entry captured before it is retired, not
    maintained with the new table's deltas; the entry over ``u`` stays."""
    database = having_database()
    add_u(database)
    strategy = EagerStrategy(batch_size=1) if round_kind == "eager" else None
    system = IMPSystem(database, num_fragments=8, strategy=strategy)
    system.run_query(HAVING_SQL)
    old = stored_entry(system, HAVING_SQL)
    system.run_query(U_SQL)
    kept = stored_entry(system, U_SQL)
    old_version = old.valid_at_version

    database.drop_table("t")
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    rows = [(i, i % 10, float(i)) for i in range(50)]
    if round_kind == "eager":
        system.apply_update("t", rows)
        assert system.scheduler.statistics.rounds == 1
    else:
        system.start_background_maintenance(interval=60.0)
        database.insert("t", rows)
        system.stop_background_maintenance(drain=True)
    assert old.valid_at_version == old_version
    assert list(system.store.entries()) == [kept]
    assert system.run_query(HAVING_SQL) == oracle(database, HAVING_SQL)


def test_a_round_that_loses_its_table_midway_leaves_its_entries_to_retire(monkeypatch):
    """``t`` is dropped after a round read its target, before it fetched the
    delta: the round ends without raising, and the next query captures over
    the recreated table."""
    database = having_database()
    system = IMPSystem(database, num_fragments=8)
    system.run_query(HAVING_SQL)
    database.insert("t", [(1000, 1, 5.0)])
    fetch = database.delta_since

    def dropping(table, since, until=None):
        monkeypatch.setattr(database, "delta_since", fetch)
        database.drop_table("t")
        return fetch(table, since, until)

    monkeypatch.setattr(database, "delta_since", dropping)
    system.scheduler.run_round()
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert("t", [(i, i % 10, 2000.0 if i % 10 == 1 else 0.0) for i in range(100)])
    assert system.run_query(HAVING_SQL) == oracle(database, HAVING_SQL)
    assert system.statistics.sketch_captures == 2


INTERLEAVED_TEXTS = [
    "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 20",
    "SELECT a, min(b) AS m FROM t GROUP BY a HAVING min(b) > 0",
    "SELECT id, a FROM t WHERE b < 20",
]
INTERLEAVED_LAYOUTS = [("id", "a", "b"), ("id", "b", "a")]

# A (re)created ``t`` starts with 40 rows in 8 groups whose ``b`` lie just
# above the offset, so the sketches skip fragments and a group passes or
# fails a HAVING by the table it was built from.
interleaved_recreate = st.tuples(
    st.just("recreate"),
    st.tuples(st.sampled_from(INTERLEAVED_LAYOUTS), st.sampled_from([-20, 20])),
)
interleaved_operation = st.one_of(
    interleaved_recreate,
    st.tuples(st.just("drop"), st.just(None)),
    st.tuples(
        st.just("insert"),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(-30, 30)), min_size=1, max_size=6
        ),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
)


@settings(max_examples=40, deadline=None)
@given(
    eager=st.booleans(),
    first=interleaved_recreate,
    operations=st.lists(interleaved_operation, min_size=1, max_size=12),
    session_step=st.integers(min_value=0, max_value=13),
)
def test_ddl_interleaved_with_updates_and_queries_matches_the_oracle(
    eager, first, operations, session_step
):
    """Create, drop and recreate ``t`` (same or permuted columns) between
    updates through one ``IMPSystem``: after every step each text's answer
    is the oracle's.  A session opened before step ``session_step`` answers
    every text after every later step as the oracle did when it pinned (a
    ``t`` missing then is an unknown table to it)."""
    database = Database()
    strategy = EagerStrategy(batch_size=1) if eager else None
    system = IMPSystem(database, num_fragments=8, strategy=strategy)
    layout: tuple[str, ...] | None = None
    live: list[dict[str, int]] = []
    next_id = 0

    def commit(inserts=(), deletes=()) -> None:
        system.apply_update(
            "t",
            [tuple(row[c] for c in layout) for row in inserts],
            [tuple(row[c] for c in layout) for row in deletes],
        )

    session = pinned = None
    for step, (kind, payload) in enumerate([first, *operations]):
        if step == session_step:
            session = database.connect()
            if layout is not None:
                pinned = {sql: oracle(database, sql) for sql in INTERLEAVED_TEXTS}
        if kind == "recreate":
            if layout is not None:
                database.drop_table("t")
            layout, offset = payload
            database.create_table("t", list(layout), primary_key="id")
            live = [
                {"id": next_id + i, "a": i % 8, "b": offset + i % 5} for i in range(40)
            ]
            next_id += len(live)
            commit(live)
        elif kind == "drop" and layout is not None:
            database.drop_table("t")
            layout, live = None, []
        elif layout is None:
            pass  # no table to update
        elif kind == "insert":
            rows = [{"id": next_id + i, "a": a, "b": b} for i, (a, b) in enumerate(payload)]
            next_id += len(rows)
            live.extend(rows)
            commit(rows)
        elif kind == "delete" and live:
            commit(deletes=[live.pop(payload % len(live))])
        if layout is not None:
            for sql in INTERLEAVED_TEXTS:
                assert system.run_query(sql) == oracle(database, sql), (kind, sql)
        if session is not None:
            for sql in INTERLEAVED_TEXTS:
                if pinned is None:
                    with pytest.raises(StorageError, match="unknown table"):
                        session.query(sql)
                else:
                    assert session.query(sql) == pinned[sql], (kind, sql)
    if session is not None:
        session.close()


MIN_SQL = "SELECT a, min(b) AS m FROM t GROUP BY a HAVING min(b) > 0"


def generation_rows(generation: int) -> list[tuple]:
    """Even generations fail group 1 on ``MIN_SQL``; odd ones pass every
    group with other minima."""
    if generation % 2:
        return [(i, i % 10, 1000 + i) for i in range(100)]
    return [(i, i % 10, -5 if i % 10 == 1 else 1 + i) for i in range(100)]


def test_queries_racing_drop_and_recreate_see_one_table_state():
    """Readers, background rounds and a thread that drops, recreates and
    refills ``t`` race freely: each answer equals the oracle's answer
    recorded at the version it names (``t`` empty or holding one
    generation's rows; a reader that finds ``t`` missing answers nothing)."""
    database = Database()
    database.create_table("t", ["id", "a", "b"], primary_key="id")
    database.insert("t", generation_rows(0))
    recorder = VersionRecorder(database, [MIN_SQL])
    system = IMPSystem(database, num_fragments=8)
    done = threading.Event()
    answers: list[Relation] = []
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not done.is_set():
                try:
                    answers.append(system.run_query(MIN_SQL))
                except StorageError:  # the table is dropped
                    pass
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def recreator() -> None:
        try:
            for generation in range(1, 13):
                recorder.commit(lambda: database.drop_table("t"))
                recorder.commit(
                    lambda: database.create_table("t", ["id", "a", "b"], primary_key="id")
                )
                recorder.commit(lambda: database.insert("t", generation_rows(generation)))
                time.sleep(0.002)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=recreator))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    system.start_background_maintenance(interval=0.001)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        system.stop_background_maintenance(drain=True)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers
    for answer in answers:
        assert answer == recorder.at[answer.version][MIN_SQL], answer.version
    assert system.run_query(MIN_SQL) == oracle(database, MIN_SQL)


def counted_translation(monkeypatch) -> tuple[Mock, Counter]:
    """Wrap the translator module's parse and ``Translator.translate``."""
    parses = Mock(wraps=sql_translator.parse_select)
    monkeypatch.setattr(sql_translator, "parse_select", parses)
    translations = Counter()
    translate = Translator.translate

    def counted(self, statement):
        translations["translate"] += 1
        return translate(self, statement)

    monkeypatch.setattr(Translator, "translate", counted)
    return parses, translations


def test_execute_answers_a_select_text_from_the_plan_cache(monkeypatch):
    """Three ``execute`` calls of one SELECT text translate once, as three
    ``query`` calls do; INSERT and DELETE through ``execute`` still commit."""
    database = Database()
    database.create_table("t", ["a", "b"])
    database.insert("t", [(i, i % 3) for i in range(10)])
    parses, translations = counted_translation(monkeypatch)
    sql = "SELECT a FROM t"
    for run in (database.query, database.execute):
        database._translations.cache_clear()
        answers = [run(sql) for _ in range(3)]
        assert parses.call_count == translations["translate"] == 1
        assert answers == [oracle(database, sql)] * 3
        parses.reset_mock()
        translations.clear()
    version = database.execute("INSERT INTO t VALUES (10, 1)")
    assert version == database.version
    database.execute("DELETE FROM t WHERE b = 0")
    assert database.execute(sql) == oracle(database, sql)
    assert len(database.execute(sql)) == 7


def test_a_session_executes_a_select_text_from_its_pin_cache(monkeypatch):
    """Within one pin a session translates a SELECT text once, however it
    is sent; after a drop and recreate and a re-pin it translates again and
    answers with the new schema, and a re-pin under the same catalog (its
    own INSERT) does not translate again."""
    database = Database()
    database.create_table("t", ["a", "b"])
    database.insert("t", [(i, i % 3) for i in range(10)])
    parses, translations = counted_translation(monkeypatch)
    sql = "SELECT a FROM t WHERE b = 1"
    with database.connect() as session:
        answers = [session.execute(sql) for _ in range(3)]
        assert parses.call_count == translations["translate"] == 1
        assert answers == [oracle(database, sql)] * 3
        database.drop_table("t")
        database.create_table("t", ["b", "a"])
        database.insert("t", [(i % 2, i) for i in range(8)])
        session.refresh()
        parses.reset_mock()
        translations.clear()
        answers = [session.execute(sql) for _ in range(2)]
        assert parses.call_count == translations["translate"] == 1
        assert answers == [oracle(database, sql)] * 2
        assert sorted(answers[0].rows()) == [(1,), (3,), (5,), (7,)]
        session.execute("INSERT INTO t VALUES (1, 9)")
        assert session.pinned_version == database.version
        assert session.execute(sql) == oracle(database, sql)
        assert parses.call_count == translations["translate"] == 1


def test_the_live_database_and_sessions_share_one_translation(monkeypatch):
    """One text sent by ``db.query`` and by two sessions pinned at different
    versions of one catalog is parsed once: there is one plan cache."""
    database = Database()
    database.create_table("t", ["a", "b"])
    database.insert("t", [(i, i % 3) for i in range(10)])
    parses, translations = counted_translation(monkeypatch)
    sql = "SELECT a FROM t WHERE b = 1"
    with database.connect() as early:
        database.insert("t", [(10, 1)])
        with database.connect() as late:
            assert early.pinned_version < late.pinned_version
            assert len(database.query(sql)) == len(late.query(sql)) == 4
            assert len(early.query(sql)) == 3
            assert early.plan(sql) is late.plan(sql) is database.plan(sql)
    assert parses.call_count == translations["translate"] == 1


# -- sessions across DDL: names resolve in the catalog of the pin -----------------


def pinned_before_ddl():
    """``t(id, a)`` holding ``(1, 10)`` and ``u(x)`` holding ``(5,)``, two
    sessions pinned there -- ``warm`` reads both tables, ``cold`` nothing --
    then ``t`` dropped and recreated as ``t(id, b, c)`` with a row and ``u``
    dropped: (database, [cold, warm], pinned version)."""
    database = Database()
    database.create_table("t", ["id", "a"])
    database.create_table("u", ["x"])
    database.insert("t", [(1, 10)])
    database.insert("u", [(5,)])
    cold, warm = database.connect(), database.connect()
    warm.query("SELECT * FROM t")
    warm.query("SELECT * FROM u")
    database.drop_table("t")
    database.create_table("t", ["id", "b", "c"])
    database.insert("t", [(2, 3, 4)])
    database.drop_table("u")
    return database, [cold, warm], cold.pinned_version


def test_a_session_pinned_before_a_recreate_reads_the_old_columns():
    _database, sessions, _ = pinned_before_ddl()
    for session in sessions:
        for _ in range(2):  # the first read of the table, then a repeat
            assert session.query("SELECT id, a FROM t").to_sorted_list() == [(1, 10)]
        session.close()


def test_a_session_pinned_before_a_recreate_selects_the_old_schema():
    database, sessions, _ = pinned_before_ddl()
    for session in sessions:
        for _ in range(2):
            answer = session.query("SELECT * FROM t")
            assert answer.schema.attributes == ("t.id", "t.a")
            assert answer.to_sorted_list() == [(1, 10)]
        session.close()
    assert database.query("SELECT * FROM t").to_sorted_list() == [(2, 3, 4)]


def test_a_session_pinned_before_a_drop_reads_the_dropped_table():
    database, sessions, _ = pinned_before_ddl()
    for session in sessions:
        for _ in range(2):
            assert session.query("SELECT x FROM u").to_sorted_list() == [(5,)]
        session.close()
    with pytest.raises(StorageError, match="unknown table"):
        database.query("SELECT x FROM u")


def test_snapshot_relation_before_a_recreate_reads_the_old_table():
    """While a session pins a version before the drops, the old tables stay
    readable there; once none does, that version's catalog is gone."""
    database, sessions, pinned = pinned_before_ddl()
    assert database.snapshot_relation("t", pinned).to_sorted_list() == [(1, 10)]
    assert database.snapshot_relation("t", pinned).schema.attributes == ("id", "a")
    assert database.snapshot_relation("u", pinned).to_sorted_list() == [(5,)]
    assert database.snapshot_relation("t", database.version).to_sorted_list() == [(2, 3, 4)]
    for session in sessions:
        session.close()
    with pytest.raises(StorageError, match="catalog of version .* has been pruned"):
        database.snapshot_relation("t", pinned)


def test_a_refresh_to_a_version_before_a_recreate_reads_the_old_table():
    database, sessions, pinned = pinned_before_ddl()
    with database.connect() as late:
        assert late.query("SELECT * FROM t").to_sorted_list() == [(2, 3, 4)]
        assert late.refresh(pinned) == pinned
        assert late.query("SELECT * FROM t").schema.attributes == ("t.id", "t.a")
        assert late.query("SELECT id, a FROM t").to_sorted_list() == [(1, 10)]
    for session in sessions:
        session.close()


def test_a_table_created_after_the_pin_is_unknown_to_the_session():
    database, sessions, pinned = pinned_before_ddl()
    database.create_table("w", ["q"])
    database.insert("w", [(1,)])
    for session in sessions:
        for _ in range(2):
            with pytest.raises(StorageError, match="unknown table 'w'"):
                session.query("SELECT q FROM w")
    with pytest.raises(StorageError, match="unknown table 'w'"):
        database.snapshot_batch("w", pinned)
    for session in sessions:
        session.close()


def test_a_dropped_table_goes_with_the_catalogs_that_held_it():
    """A DDL commit and a session close let go of the catalogs below the
    oldest pin, and of the tables dropped there with their snapshot
    batches: many DDL statements leave a history of one catalog."""
    database = Database()
    database.create_table("t", ["id"])
    first = database.insert("t", [(1,)])
    database.insert("t", [(2,)])
    database.snapshot_relation("t", first)  # rolled back: a cached batch
    stored = database.table("t")
    assert stored.snapshot_memory_entries() == 1
    session = database.connect()
    session.refresh(first)
    database.drop_table("t")  # the session pins below the drop
    database.create_table("t", ["id", "x"])
    assert session.query("SELECT id FROM t").to_sorted_list() == [(1,)]
    assert stored.snapshot_memory_entries() == 1
    assert len(database._catalogs) == 3
    session.close()
    assert stored.snapshot_memory_entries() == 0
    assert len(database._catalogs) == 1
    with pytest.raises(StorageError, match="catalog of version .* has been pruned"):
        database.snapshot_relation("t", first)
    dropped = [weakref.ref(stored)]
    del stored, session
    for round in range(50):
        database.create_table(f"w{round}", ["q"])
        database.insert(f"w{round}", [(round,)])
        dropped.append(weakref.ref(database.table(f"w{round}")))
        database.drop_table(f"w{round}")
        assert len(database._catalogs) == 1
    assert all(table() is None for table in dropped)
    assert database._dropped == []
    assert database.catalog_at(database.version).tables == {"t": database.table("t")}


def test_a_catalog_below_the_history_is_rebuilt_across_creates_only():
    """Below the oldest catalog kept, a version is read as long as only
    ``create_table`` commits came after it: a refresh down to it pins it,
    and one below a drop that was let go is refused and keeps the pin."""
    database = Database()
    database.create_table("gone", ["g"])
    database.drop_table("gone")
    database.create_table("t", ["id"])
    before = database.insert("t", [(1,)])
    database.create_table("u", ["x"])
    database.insert("t", [(2,)])
    assert len(database._catalogs) == 1
    assert database.catalog_at(before).version == before - 1
    assert database.snapshot_relation("t", before).to_sorted_list() == [(1,)]
    with database.connect() as session:
        assert session.refresh(before) == before
        assert session.query("SELECT id FROM t").to_sorted_list() == [(1,)]
        with pytest.raises(StorageError, match="unknown table 'u'"):
            session.query("SELECT x FROM u")
        with pytest.raises(StorageError, match="catalog of version 1 has been pruned"):
            session.refresh(1)
        assert session.pinned_version == before
        assert session.query("SELECT id FROM t").to_sorted_list() == [(1,)]


def test_a_text_on_a_missing_table_answers_once_the_table_exists():
    """A failed translation is not cached: the same text succeeds after
    ``create_table``, through the database and the middleware."""
    database = Database()
    system = IMPSystem(database, num_fragments=4)
    sql = "SELECT id, a FROM t WHERE a < 3"
    for run in (database.query, database.plan, system.run_query):
        with pytest.raises(StorageError):
            run(sql)
    database.create_table("t", ["id", "a"])
    database.insert("t", [(i, i % 5) for i in range(20)])
    expected = oracle(database, sql)
    assert len(expected) == 12
    assert database.query(sql) == expected
    assert system.run_query(sql) == expected


def test_a_recovered_database_answers_with_the_recovered_schema(tmp_path):
    """Checkpoint, then a WAL tail that swaps the tables' columns: the
    reopened database answers with the schema recovery rebuilt."""
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["id", "a", "b"])
    database.create_table("u", ["k", "w"])
    database.insert("t", [(i, i % 4, float(i)) for i in range(40)])
    database.insert("u", [(i, i * 10) for i in range(20)])
    sql = "SELECT * FROM t, u WHERE id = k AND a < 2"
    before = database.query(sql)
    database.checkpoint()
    swapped_tables(database)
    after = database.query(sql)
    database.close()
    assert after.schema != before.schema

    recovered = Database(data_dir=path)
    assert recovered.recovery_report.ddl_replayed == 4
    answer = recovered.query(sql)
    assert answer.schema == after.schema
    assert answer == after == oracle(recovered, sql)
    assert recovered.plan(sql).explain() == Translator(recovered).translate_sql(sql).explain()
    recovered.close()


def test_the_plan_cache_stays_within_its_bound(monkeypatch):
    """More distinct texts than the bound: the cache never holds more, the
    most recent texts are served without a parse, evicted ones parse again,
    and every answer is the oracle's."""
    database = Database()
    database.create_table("t", ["id", "a"])
    database.insert("t", [(i, i % 7) for i in range(30)])
    texts = [f"SELECT id FROM t WHERE id < {bound}" for bound in range(PLAN_CACHE_SIZE + 40)]
    # A miss parses through the translator module's name.
    parses = Mock(wraps=sql_translator.parse_select)
    monkeypatch.setattr(sql_translator, "parse_select", parses)
    for sql in texts:
        assert database.query(sql) == oracle(database, sql)
        assert database._translations.cache_info().currsize <= PLAN_CACHE_SIZE
    assert parses.call_count == len(texts)

    recent = texts[-PLAN_CACHE_SIZE:]
    for sql in recent:
        database.plan(sql)
    assert parses.call_count == len(texts)
    evicted = texts[: len(texts) - PLAN_CACHE_SIZE]
    for sql in evicted:
        assert database.query(sql) == oracle(database, sql)
    assert parses.call_count == len(texts) + len(evicted)
    assert database._translations.cache_info().currsize == PLAN_CACHE_SIZE


# -- the maintained batch under every way a table can change --------------------

BAG_COLUMNS = ["k", "x"]
bag_row = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.1, 0.2, 0.7, 1e16, -1e16, None]),
)
bag_rows = st.lists(bag_row, min_size=1, max_size=6)
pick = st.integers(min_value=0, max_value=10**6)

bag_operation = st.one_of(
    st.tuples(st.just("insert"), bag_rows),
    st.tuples(st.just("delete-copies"), st.lists(pick, min_size=1, max_size=4)),
    st.tuples(st.just("delete-and-reinsert"), pick),
    st.tuples(st.just("mixed-commit"), st.tuples(bag_rows, pick)),
    st.tuples(st.just("drop-recreate"), st.just(None)),
    st.tuples(st.just("prune"), st.just(None)),
    st.tuples(st.just("replay"), bag_rows),
    st.tuples(st.just("commit-unscanned"), bag_rows),
    st.tuples(st.just("pin"), st.just(None)),
)


def commit_bag(database: Database, inserts, deletes) -> None:
    """One commit that both deletes and inserts (deletes apply first)."""
    update = DatabaseDelta()
    update.set_delta("bag", Delta.from_rows(database.schema_of("bag"), inserts, deletes))
    database.apply_database_delta(update)


def nth_row(database: Database, position: int):
    rows = [row for row, _multiplicity in database.table("bag").items()]
    return rows[position % len(rows)] if rows else None


@settings(max_examples=120, deadline=None)
@given(
    operations=st.lists(bag_operation, min_size=1, max_size=14),
    max_pending_deletes=st.sampled_from([1, 3, 128]),
)
def test_maintained_batch_tracks_every_kind_of_change(operations, max_pending_deletes):
    """A primary-key-less table with repeated rows under commits,
    drop/recreate, audit pruning, the pending caps and WAL-replay commits:
    after every operation the batch is the from-scratch pivot in ``relation``
    order, and no batch handed out earlier has moved."""
    with patch.object(StoredTable, "_MAX_PENDING_DELETES", max_pending_deletes):
        run_bag_operations(operations)


def run_bag_operations(operations) -> None:
    database = Database()
    database.create_table("bag", BAG_COLUMNS)
    database.insert("bag", [(0, 0.1), (0, 0.1), (1, 0.2), (2, 0.7)])
    held = HeldBatches()
    held.hold(assert_batch_fresh(database, "bag"))
    # (session, the table's entries in canonical order when it was opened);
    # a session first reads *after* later commits, so it rolls back.
    pinned: list[tuple] = []

    def unpin() -> None:
        # DDL bypasses the audit log: nothing to roll back by.
        for session, _expected in pinned:
            session.close()
        pinned.clear()

    for kind, payload in operations:
        stored = database.table("bag")
        if kind == "drop-recreate":
            unpin()
        if kind == "insert":
            database.insert("bag", payload)
        elif kind == "delete-copies":
            victims = {nth_row(database, position) for position in payload} - {None}
            if victims:  # one copy of each: a partial delete where copies remain
                database.delete_rows("bag", sorted(victims, key=repr))
        elif kind == "delete-and-reinsert":
            row = nth_row(database, payload)
            if row is not None:
                commit_bag(database, inserts=[row], deletes=[row])
        elif kind == "mixed-commit":
            rows, position = payload
            row = nth_row(database, position)
            commit_bag(database, inserts=rows, deletes=[] if row is None else [row])
        elif kind == "drop-recreate":
            database.drop_table("bag")
            database.create_table("bag", BAG_COLUMNS)
            assert database.table("bag").pending_batch_tuples == 0
        elif kind == "prune":
            database.prune_history(prune_audit=True)
        elif kind == "replay":
            # What recovery drives for every WAL commit record.
            delta = Delta.from_rows(stored.schema, inserts=payload)
            database._commit({"bag": delta})
        elif kind == "commit-unscanned":
            # Two commits with no scan between them queue two deltas.
            database.insert("bag", payload)
            database.insert("bag", payload[:1])
            continue
        elif kind == "pin" and len(pinned) < 2:
            pinned.append((database.connect(), canonical_items(stored.items())))
            continue

        held.hold(assert_batch_fresh(database, "bag"))
        held.assert_unchanged()
        for session, expected in pinned:
            snapshot = database.snapshot_batch("bag", session.pinned_version)
            assert batch_entries(snapshot) == expected

    held.hold(assert_batch_fresh(database, "bag"))
    held.assert_unchanged()
    unpin()


def test_recovered_database_replays_into_fresh_batches(tmp_path):
    """WAL replay goes through ``_commit`` -> ``apply_delta``: nothing
    is queued for tables recovery never scanned, and the first scan of the
    recovered table is the from-scratch pivot in ``relation`` order."""
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("bag", BAG_COLUMNS)
    database.insert("bag", [(0, 0.1), (0, 0.1), (1, 0.2)])
    database.column_batch("bag")
    database.delete_rows("bag", [(0, 0.1)])
    database.insert("bag", [(2, 0.7), (1, 0.2)])
    before = batch_entries(assert_batch_fresh(database, "bag"))
    database.close()

    recovered = Database(data_dir=path)
    assert recovered.recovery_report.commits_replayed == 3
    assert recovered.table("bag").pending_batch_tuples == 0
    assert batch_entries(assert_batch_fresh(recovered, "bag")) == before
    recovered.close()


@settings(max_examples=25, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_snapshot_batches_match_reconstruction(batches):
    """Every historical version's snapshot equals an independent replay.

    Materialization order must not matter: version k's batch is compared
    against a database that stopped at version k, whether the snapshot is
    materialized before or after later commits land.
    """
    database = Database()
    database.create_table("t", ["id", "v"])
    replays = [Database() for _ in batches]
    for replay in replays:
        replay.create_table("t", ["id", "v"])

    next_id = 0
    for index, batch in enumerate(batches):
        rows = []
        for value in batch:
            rows.append((next_id, value))
            next_id += 1
        database.insert("t", rows)
        for replay in replays[index:]:
            replay.insert("t", rows)

    # Version 1 is the CREATE TABLE; the k-th insert commits version k + 1.
    for version, replay in enumerate(replays, start=2):
        snapshot = database.snapshot_batch("t", version)
        expected = replay.snapshot_batch("t", replay.version)
        assert batch_rows(snapshot) == batch_rows(expected)
        # Bit-identical, not just bag-equal: canonical order is part of the
        # snapshot contract (float aggregates accumulate in batch order).
        assert snapshot.row_tuples() == expected.row_tuples()
        assert snapshot.multiplicities == expected.multiplicities


def test_snapshot_canonical_order_is_total_with_nan():
    """NaN values must not break the canonical order: the rollback and
    direct materialization paths agree even though NaN defeats sorted()'s
    comparisons (regression for the order-key NaN flag)."""
    nan = float("nan")
    rows = [(1, nan), (2, 1.0), (3, nan), (4, -5.0)]

    direct = Database()
    direct.create_table("t", ["id", "v"])
    direct.insert("t", rows)
    direct_batch = direct.snapshot_batch("t", 1)  # effective == last modified

    replayed = Database()
    replayed.create_table("t", ["id", "v"])
    replayed.insert("t", rows)
    replayed.insert("t", [(5, 2.0)])
    rolled_batch = replayed.snapshot_batch("t", 1)  # rollback path

    def fingerprint(batch):
        return [tuple(repr(value) for value in row) for row in batch.row_tuples()]

    assert fingerprint(rolled_batch) == fingerprint(direct_batch)
    assert rolled_batch.multiplicities == direct_batch.multiplicities
