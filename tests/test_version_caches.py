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
underneath it churn.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.relational.columnar import ColumnBatch
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.table import StoredTable, canonical_items
from repro.storage.statistics import collect_column_statistics, equi_depth_boundaries

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
        expected = collect_column_statistics(attribute, values)
        assert cached == expected, f"stale column_statistics for {attribute}"
        non_null = sorted(float(v) for v in values if v is not None)
        if non_null:
            assert database.equi_depth_ranges(table, attribute, 4) == (
                equi_depth_boundaries(non_null, 4)
            ), f"stale equi_depth_ranges for {attribute}"
    return batch


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

    if pinned_session is not None:
        pinned_session.close()


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
    st.tuples(st.just("direct-insert"), bag_row),
    st.tuples(st.just("direct-delete"), pick),
    st.tuples(st.just("truncate"), st.just(None)),
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
    """A primary-key-less table with repeated rows under commits, direct
    mutation, truncate, drop/recreate, audit pruning, the pending caps and
    WAL-replay commits: after every operation the batch is the from-scratch
    pivot in ``relation`` order, and no batch handed out earlier has moved."""
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
        # Direct mutation and DDL bypass the audit log: nothing to roll back by.
        for session, _expected in pinned:
            session.close()
        pinned.clear()

    for kind, payload in operations:
        stored = database.table("bag")
        if kind in ("direct-insert", "direct-delete", "truncate", "drop-recreate"):
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
        elif kind == "direct-insert":
            stored.insert(payload)
            assert stored.pending_batch_tuples == 0
        elif kind == "direct-delete":
            row = nth_row(database, payload)
            if row is not None:
                stored.delete(row)
        elif kind == "truncate":
            stored.truncate()
        elif kind == "drop-recreate":
            database.drop_table("bag")
            database.create_table("bag", BAG_COLUMNS)
            assert database.table("bag").pending_batch_tuples == 0
        elif kind == "prune":
            database.prune_history(prune_audit=True)
        elif kind == "replay":
            # What recovery drives for every WAL commit record.
            delta = Delta.from_rows(stored.schema, inserts=payload)
            database._restore_commit(database.version + 1, {"bag": delta})
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
    """WAL replay goes through ``_restore_commit`` -> ``apply_delta``: nothing
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

    for version, replay in enumerate(replays, start=1):
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
