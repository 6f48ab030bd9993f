"""Deterministic differential concurrency harness.

The serving layer's claim is that concurrency is *invisible*: N reader
sessions at pinned snapshots, a writer committing under the write lock and
background sketch maintenance must together produce exactly the states a
serial execution of the same operations produces.  Every answer names the
version it was computed at (``Relation.version``), so each one is checked
against the reference oracle at that version, with no serial replay:

* **Deterministic interleavings** -- real threads stepped one operation at a
  time by a :class:`TurnScheduler` whose schedule comes from a seeded RNG.
  Every session read equals ``oracle_at`` its pin, and after every
  maintenance round every sketch equals a fresh capture at the version it
  was maintained to.  Runs across >= 3 seeds (and a Hypothesis fuzz variant
  generates random schedules and op mixes).
* **Free-running stress** -- unstepped threads race for real.  A session
  answer equals the oracle at its pin; a live answer equals the oracle's
  answer that a :class:`~tests.reference.VersionRecorder` recorded right
  after the writer's commit that made its version.  Snapshot stability,
  final-state convergence and exact counter accounting are asserted where
  determinism survives true parallelism.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.imp.engine import capture_sketch
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.middleware import IMPSystem
from repro.imp.sketch_store import SketchStore
from repro.storage.database import Database
from repro.storage.table import StoredTable
from repro.workloads.synthetic import load_synthetic
from tests.reference import VersionRecorder, oracle, oracle_at

# --------------------------------------------------------------------------------------
# The barrier-stepped scheduler
# --------------------------------------------------------------------------------------


class TurnScheduler:
    """Grant real threads one operation at a time, in a scripted order.

    ``schedule`` is a sequence of worker ids; position ``i`` means worker
    ``schedule[i]`` performs its next operation while every other worker
    blocks on the condition variable.  Turns granted to finished workers are
    skipped, and workers with operations left after the schedule runs out
    drain in ascending worker-id order -- so the *total* operation order is a
    pure function of (schedule, per-worker scripts), and while one worker
    checks its operation's outcome nothing else moves.
    """

    def __init__(self, schedule: list[int], workers: list[int]) -> None:
        self._condition = threading.Condition()
        self._schedule = schedule
        self._position = 0
        self._alive = set(workers)
        self.errors: list[BaseException] = []

    def _current_worker(self) -> int | None:
        while self._position < len(self._schedule):
            worker = self._schedule[self._position]
            if worker in self._alive:
                return worker
            self._position += 1
        # Schedule exhausted: drain remaining workers deterministically.
        return min(self._alive) if self._alive else None

    def acquire(self, worker: int) -> bool:
        """Block until it is ``worker``'s turn; False when the worker should
        not run again (it already finished, or an error aborted the run)."""
        with self._condition:
            while True:
                if self.errors or worker not in self._alive:
                    return False
                if self._current_worker() == worker:
                    return True
                self._condition.wait(timeout=10.0)

    def release(self, worker: int, more: bool) -> None:
        """End the current turn; ``more=False`` retires the worker."""
        with self._condition:
            if self._position < len(self._schedule) and self._schedule[
                self._position
            ] == worker:
                self._position += 1
            if not more:
                self._alive.discard(worker)
            self._condition.notify_all()

    def abort(self, worker: int, error: BaseException) -> None:
        with self._condition:
            self.errors.append(error)
            self._alive.discard(worker)
            self._condition.notify_all()

    def run(self, steps: dict[int, object]) -> None:
        """Run one thread per worker; each ``steps[w]`` is a callable doing
        ONE operation per call and returning False when out of operations."""

        def loop(worker: int) -> None:
            step = steps[worker]
            while self.acquire(worker):
                try:
                    more = step()
                except BaseException as exc:  # noqa: BLE001 - reported to the test
                    self.abort(worker, exc)
                    return
                self.release(worker, more)

        threads = [
            threading.Thread(target=loop, args=(worker,), name=f"worker-{worker}")
            for worker in steps
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "harness deadlock"
        if self.errors:
            raise self.errors[0]


# --------------------------------------------------------------------------------------
# Scenario construction
# --------------------------------------------------------------------------------------

QUERIES = [
    "SELECT a, SUM(c) AS total FROM r GROUP BY a HAVING SUM(c) > 400",
    "SELECT a, COUNT(id) AS n FROM r GROUP BY a",
    "SELECT id, b FROM r WHERE b > 800",
]

CAPTURE_QUERIES = QUERIES[:2]


def make_database(num_rows: int = 400, num_groups: int = 12, seed: int = 9):
    database = Database()
    table = load_synthetic(
        database, num_rows=num_rows, num_groups=num_groups, seed=seed
    )
    return database, table


def make_batches(table, rng, count: int):
    """Precompute commit batches: inserts, and every third batch deletes."""
    batches = []
    for index in range(count):
        if index % 3 == 2:
            deletes = table.pick_deletes(rng.randrange(1, 6))
        else:
            deletes = []
        inserts = table.make_inserts(rng.randrange(3, 12))
        batches.append((inserts, deletes))
    return batches


def apply_batch(database: Database, batch, commit=lambda operation: operation()) -> None:
    """Commit ``batch``'s deletes, if any, then its inserts: two commits,
    each made through ``commit`` (a :class:`VersionRecorder`'s records it)."""
    inserts, deletes = batch
    if deletes:
        commit(lambda: database.delete_rows("r", deletes))
    commit(lambda: database.insert("r", inserts))


def assert_sketches_fresh(system: IMPSystem) -> None:
    """The store still holds exactly the captured templates, every entry is
    maintained to the current version, and its sketch is the one a fresh
    capture takes there."""
    database = system.database
    assert sorted(entry.sql for entry in system.store.entries()) == sorted(CAPTURE_QUERIES)
    for entry in system.store.entries():
        assert entry.valid_at_version == database.version, entry.sql
        assert entry.sketch == capture_sketch(entry.plan, entry.partition, database), (
            f"sketch {entry.sql!r} diverged at version {database.version}"
        )


def make_system(database: Database) -> IMPSystem:
    """An IMP middleware with sketches captured for the capture queries."""
    system = IMPSystem(database, num_fragments=16)
    for sql in CAPTURE_QUERIES:
        system.run_query(sql)
    assert len(system.store) == len(CAPTURE_QUERIES)
    return system


def reader_script(rng, num_queries: int) -> list[str]:
    """A per-reader op script: pin, query, maybe refresh, close."""
    ops = ["open"]
    for _ in range(num_queries):
        ops.append(f"query:{rng.randrange(len(QUERIES))}")
        if rng.random() < 0.25:
            ops.append("refresh")
    ops.append("close")
    return ops


# --------------------------------------------------------------------------------------
# Stepped execution, every answer checked at its version
# --------------------------------------------------------------------------------------


def run_interleaved(seed: int, num_readers: int = 2, num_commits: int = 6) -> None:
    """Execute one seeded interleaving, checking each outcome as it happens:
    every session read equals ``oracle_at`` its pin, and after every round
    the sketches are fresh (:func:`assert_sketches_fresh`) -- the stepped
    scheduler holds every other worker while one checks."""
    import random

    rng = random.Random(seed)
    database, table = make_database()
    system = make_system(database)
    batches = make_batches(table, rng, num_commits)
    scripts = {
        reader: reader_script(rng, rng.randrange(3, 7))
        for reader in range(num_readers)
    }
    writer_id = num_readers
    maintenance_id = num_readers + 1
    num_rounds = rng.randrange(2, 5)

    workers = [*range(num_readers), writer_id, maintenance_id]
    weights = [3] * num_readers + [2, 1]
    total_ops = sum(len(s) for s in scripts.values()) + num_commits + num_rounds
    schedule = rng.choices(workers, weights=weights, k=total_ops * 2)

    num_reads = sum(op.startswith("query") for script in scripts.values() for op in script)
    reads: list[int] = []
    sessions: dict[int, object] = {}

    def reader_step(reader: int):
        script = scripts[reader]

        def step() -> bool:
            op = script.pop(0)
            if op == "open":
                sessions[reader] = database.connect(name=f"reader-{reader}")
            elif op == "refresh":
                sessions[reader].refresh()
            elif op == "close":
                sessions[reader].close()
            else:
                session, sql = sessions[reader], QUERIES[int(op.split(":")[1])]
                answer = session.query(sql)
                assert answer.version == session.pinned_version
                assert answer == oracle_at(database, answer.version, sql), (
                    f"snapshot read diverged: reader {reader} at version "
                    f"{answer.version}, {sql}"
                )
                reads.append(answer.version)
            return bool(script)

        return step

    def writer_step() -> bool:
        apply_batch(database, batches.pop(0))
        return bool(batches)

    rounds_left = [num_rounds]

    def maintenance_step() -> bool:
        system.scheduler.run_round()
        assert_sketches_fresh(system)
        rounds_left[0] -= 1
        return rounds_left[0] > 0

    steps = {reader: reader_step(reader) for reader in range(num_readers)}
    steps[writer_id] = writer_step
    steps[maintenance_id] = maintenance_step

    TurnScheduler(schedule, workers).run(steps)

    for session in sessions.values():
        if not session.is_closed:
            session.close()
    assert (len(reads), batches, rounds_left) == (num_reads, [], [0])


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_interleaved_reads_and_sketches_match_the_oracle_at_their_version(seed):
    """Pinned-snapshot reads equal the oracle at their pin, and maintained
    sketches a fresh capture, in seeded interleavings."""
    run_interleaved(seed)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_readers=st.integers(min_value=1, max_value=3),
    num_commits=st.integers(min_value=1, max_value=8),
)
def test_fuzzed_schedules_match_the_oracle_at_their_version(seed, num_readers, num_commits):
    """Hypothesis sweep over random query/update/maintenance schedules."""
    run_interleaved(seed, num_readers=num_readers, num_commits=num_commits)


# --------------------------------------------------------------------------------------
# Free-running (unstepped) concurrency
# --------------------------------------------------------------------------------------


def test_free_running_readers_see_stable_snapshots():
    """Unstepped readers, writer and background maintenance: every read of
    a pinned session equals the oracle at its pin, and after the final drain
    every sketch equals a fresh capture."""
    import random

    database, table = make_database(num_rows=600, num_groups=15)
    system = make_system(database)
    rng = random.Random(3)
    commit_batches = [
        (table.make_inserts(rng.randrange(5, 15)), []) for _ in range(10)
    ]

    stop = threading.Event()
    violations: list[str] = []

    def reader(slot: int) -> None:
        with database.connect(name=f"stress-{slot}") as session:
            version = session.pinned_version
            expected = {sql: oracle_at(database, version, sql) for sql in QUERIES}
            while not stop.is_set():
                for sql, reference in expected.items():
                    answer = session.query(sql)
                    if answer != reference or answer.version != version:
                        violations.append(f"reader {slot} at {version}: {sql}")

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(3)]
    system.start_background_maintenance(interval=0.002)
    for thread in threads:
        thread.start()
    for batch in commit_batches:
        apply_batch(database, batch)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    system.stop_background_maintenance(drain=True)
    assert violations == []
    assert_sketches_fresh(system)


def test_a_materialized_snapshot_is_read_without_the_write_lock():
    """A session whose pinned snapshot is materialized answers a query while
    another thread holds the database write lock: committed versions are
    immutable, so serving them needs no lock.  The threads move in lock step
    (events, no sleeps); a read that waited for the lock fails the join's
    timeout instead of hanging the suite."""
    database, table = make_database(num_rows=200, num_groups=10)
    session = database.connect()
    expected = session.query(QUERIES[0])  # materializes the pinned snapshot
    database.insert("r", table.make_inserts(5))  # the writer moves on
    held, release = threading.Event(), threading.Event()
    answers = []

    def hold_the_lock() -> None:
        with database.lock:
            held.set()
            release.wait(timeout=60.0)

    holder = threading.Thread(target=hold_the_lock)
    reader = threading.Thread(target=lambda: answers.append(session.query(QUERIES[0])))
    holder.start()
    try:
        assert held.wait(timeout=60.0)
        reader.start()
        reader.join(timeout=10.0)
        waited = reader.is_alive()
    finally:
        release.set()
        holder.join(timeout=60.0)
    reader.join(timeout=60.0)
    assert not waited, "a read of a materialized snapshot waited for the write lock"
    assert answers == [expected]
    session.close()


def test_session_registry_retention_and_pruning():
    """Closing sessions drives snapshot-cache pruning; open pins protect
    exactly the versions they can still read."""
    database, table = make_database(num_rows=100, num_groups=5)
    stored = database.table("r")

    early = database.connect()
    early.query(QUERIES[1])
    for _ in range(3):
        database.insert("r", table.make_inserts(5))
        late = database.connect()
        late.query(QUERIES[1])
        late.close()
    assert stored.snapshot_memory_entries() >= 2
    oldest = database.session_registry.oldest_pinned()
    assert oldest == early.pinned_version
    # The early pin keeps its snapshot alive through pruning...
    database.prune_history()
    assert stored.snapshot_batch(stored.effective_version(early.pinned_version)) is not None
    assert tuple(early.query(QUERIES[1]).to_sorted_list())  # still served
    early.close()
    # ...and closing it reclaims everything below the current version.
    assert stored.snapshot_memory_entries() <= 1
    assert database.session_registry.summary()["active"] == 0


def test_snapshot_batch_rejects_unknown_versions_even_when_cached():
    """Regression: the lock-free cache fast path must not serve a batch for
    an out-of-range version that happens to map to a cached effective key."""
    database, table = make_database(num_rows=50, num_groups=5)
    database.snapshot_batch("r", database.version)  # materialize + cache
    with pytest.raises(StorageError):
        database.snapshot_batch("r", database.version + 500)
    with pytest.raises(StorageError):
        database.snapshot_batch("r", -1)


def test_drop_and_recreate_severs_snapshot_history():
    """Regression: a recreated table never rolls back through the dropped
    table's audit deltas (same name, different table), and the dropped
    table's snapshots never through the recreated one's."""
    database = Database()
    database.create_table("t", ["id", "v"], primary_key="id")
    database.insert("t", [(1, 10), (2, 20)])
    session = database.connect()
    database.drop_table("t")
    created = database.create_table("t", ["id", "v"], primary_key="id").created_version
    database.insert("t", [(7, 70)])
    # A fresh pin reads exactly the recreated table's contents...
    with database.connect() as fresh:
        assert sorted(fresh.query("SELECT id, v FROM t").rows()) == [(7, 70)]
    # ...the recreated table's snapshots come from its own (empty)
    # pre-insert history, not the old table's deltas...
    assert database.snapshot_batch("t", created).row_tuples() == []
    # ...and the pin before the drop reads the dropped table.
    assert sorted(
        database.snapshot_batch("t", session.pinned_version).row_tuples()
    ) == [(1, 10), (2, 20)]
    session.close()


def generation_table(generation: int) -> tuple[list[str], list[tuple]]:
    """``t``'s columns and rows in one generation: odd generations have a
    third column, and each has its own rows."""
    if generation % 2:
        return ["id", "b", "c"], [(i, generation, -i) for i in range(generation + 2)]
    return ["id", "a"], [(i, generation) for i in range(generation + 2)]


def test_sessions_racing_drop_and_recreate_answer_from_their_pins():
    """Readers open sessions while a writer drops ``t``, recreates it with
    other columns and refills it: every session answers each repeat of its
    query with the schema and rows of the version it pinned (``t`` missing
    there is an unknown table)."""
    sql = "SELECT * FROM t"
    database = Database()
    recorder = VersionRecorder(database, [sql])
    commit = recorder.commit
    columns, rows = generation_table(0)
    commit(lambda: database.create_table("t", columns))
    commit(lambda: database.insert("t", rows))
    done = threading.Event()
    answers: list[tuple[int, object]] = []
    errors: list[BaseException] = []

    def answer(session):
        try:
            return session.query(sql)
        except StorageError as exc:
            assert "unknown table" in str(exc)
            return None

    def reader() -> None:
        try:
            while not done.is_set():
                with database.connect() as session:
                    first = answer(session)
                    for _ in range(3):
                        assert answer(session) == first
                    answers.append((session.pinned_version, first))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    def writer() -> None:
        try:
            for generation in range(1, 13):
                columns, rows = generation_table(generation)
                commit(lambda: database.drop_table("t"))
                commit(lambda: database.create_table("t", columns))
                commit(lambda: database.insert("t", rows))
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers
    for version, first in answers:
        assert first == recorder.at[version][sql], version


def test_refresh_below_audit_floor_is_rejected():
    """Regression: re-pinning below the pruned audit floor fails fast at
    refresh time instead of breaking every later query."""
    database, table = make_database(num_rows=60, num_groups=4)
    for _ in range(4):
        database.insert("r", table.make_inserts(3))
    session = database.connect()
    report = database.prune_history(prune_audit=True)
    assert report["audit_records"] > 0
    assert database.audit_floor == report["floor"]
    with pytest.raises(StorageError):
        session.refresh(1)
    # The session is unharmed and still reads its pinned snapshot.
    assert session.query(QUERIES[1]).to_sorted_list()
    session.close()


def test_delta_reads_below_audit_floor_fail_loudly():
    """Regression: after prune_history(prune_audit=True), a maintainer whose
    sketch is valid below the floor gets a StorageError, never a silently
    truncated delta that would corrupt its sketch."""
    database, table = make_database(num_rows=100, num_groups=5)
    system = make_system(database)  # sketches valid at version 1
    for _ in range(4):
        database.insert("r", table.make_inserts(3))
    database.prune_history(prune_audit=True)  # no sessions: floor = current
    with pytest.raises(StorageError, match="pruned"):
        database.delta_since("r", 1)
    with pytest.raises(StorageError, match="pruned"):
        system.scheduler.run_round()


def test_refreshing_session_prunes_superseded_snapshots():
    """Regression: a long-lived session that keeps refreshing does not
    accumulate one cached snapshot batch per superseded version."""
    database, table = make_database(num_rows=100, num_groups=5)
    stored = database.table("r")
    with database.connect() as session:
        for _ in range(6):
            database.insert("r", table.make_inserts(4))
            session.refresh()
            session.query(QUERIES[1])
            assert stored.snapshot_memory_entries() <= 1


def test_audit_prune_respects_pinned_floor():
    """prune_history(prune_audit=True) keeps the records needed to
    materialize every version an open session can read."""
    database, table = make_database(num_rows=80, num_groups=4)
    session = database.connect()
    for _ in range(4):
        database.insert("r", table.make_inserts(3))
    database.prune_history(prune_audit=True)
    # The session can still materialize its pinned snapshot from scratch.
    rows = session.query(QUERIES[1]).to_sorted_list()
    assert sum(count for _gid, count in rows) == 80
    session.close()


# --------------------------------------------------------------------------------------
# The round lock: IMP's one lock
# --------------------------------------------------------------------------------------


def test_sketch_store_ticks_are_exact_under_threads():
    """Regression for unsynchronized recency ticks: N threads answering
    queries through the middleware account every single use, and no two
    uses share a tick.  The store has no lock of its own; the query path's
    round lock serializes its ticks."""
    database, _table = make_database(num_rows=200, num_groups=8)
    system = make_system(database)
    store: SketchStore = system.store
    entries = list(store.entries())
    base_tick, base_hits = store._tick, store.statistics.hits

    per_thread = 60
    num_threads = 8
    barrier = threading.Barrier(num_threads)
    errors: list[BaseException] = []

    def hammer(slot: int) -> None:
        try:
            barrier.wait(timeout=30.0)
            for index in range(per_thread):
                system.run_query(CAPTURE_QUERIES[(slot + index) % len(CAPTURE_QUERIES)])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(num_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    queries = num_threads * per_thread
    assert store.statistics.hits == base_hits + queries
    assert system.statistics.sketch_hits == len(CAPTURE_QUERIES) + queries
    # Each query touches its entry twice: at the lookup and at the answer.
    assert store._tick == base_tick + 2 * queries
    ticks = [entry.last_used_tick for entry in entries]
    assert len(set(ticks)) == len(ticks) and max(ticks) == store._tick


def test_summary_waits_for_a_round_in_flight(monkeypatch):
    """``summary()`` sizes the operator state a round changes: it reads
    under the round lock, so it waits while a round is paused inside
    ``maintain_with`` and then reports the totals after the round."""
    database, table = make_database(num_rows=200, num_groups=8)
    system = make_system(database)
    database.insert("r", table.make_inserts(10))
    entered, release = threading.Event(), threading.Event()
    maintain_with = IncrementalMaintainer.maintain_with

    def paused(self, *args, **kwargs):
        entered.set()
        assert release.wait(timeout=60.0)
        return maintain_with(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalMaintainer, "maintain_with", paused)
    summaries: list[dict] = []
    round_thread = threading.Thread(target=system.scheduler.run_round)
    reader = threading.Thread(target=lambda: summaries.append(system.summary()))
    round_thread.start()
    try:
        assert entered.wait(timeout=60.0)
        reader.start()
        reader.join(timeout=0.5)
        returned_mid_round = not reader.is_alive()
    finally:
        release.set()
        round_thread.join(timeout=60.0)
        reader.join(timeout=60.0)
    assert not round_thread.is_alive() and not reader.is_alive()
    assert not returned_mid_round, "summary() returned while a round was paused"
    (summary,) = summaries
    assert summary["scheduler"]["rounds"] == 1
    assert summary["scheduler"]["maintained"] == len(CAPTURE_QUERIES)
    assert summary["sketch_memory_bytes"] == system.store.memory_bytes()
    assert summary == system.summary()


def test_racing_first_queries_capture_once():
    """N threads issue the first query of one cold template, and repeat it,
    while a writer commits and background rounds run; after each commit the
    writer waits for an answer at the new version.  The template is captured
    exactly once, no thread raises, every committed version is answered, and
    every answer names a version its call spanned and equals the oracle's
    answer recorded at that version."""
    import random

    sql = QUERIES[0]
    database, table = make_database(num_rows=300, num_groups=10)
    batches = make_batches(table, random.Random(5), 12)
    recorder = VersionRecorder(database, [sql])
    system = IMPSystem(database, num_fragments=16)
    num_readers = 6
    barrier = threading.Barrier(num_readers + 1)
    answers: list[tuple[int, object, int]] = []
    errors: list[BaseException] = []
    done = threading.Event()
    answered = threading.Condition()
    newest = [0]  # the newest version an answer names

    def reader() -> None:
        try:
            barrier.wait(timeout=30.0)
            finished = False
            while not finished:  # one more answer once the writer is done
                finished = done.is_set()
                before = database.version
                answer = system.run_query(sql)
                answers.append((before, answer, database.version))
                with answered:
                    newest[0] = max(newest[0], answer.version)
                    answered.notify_all()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def commit(operation) -> None:
        recorder.commit(operation)
        with answered:
            version = database.version
            assert answered.wait_for(lambda: newest[0] >= version, timeout=30.0)

    def writer() -> None:
        try:
            barrier.wait(timeout=30.0)
            for batch in batches:
                apply_batch(database, batch, commit)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(num_readers)]
    threads.append(threading.Thread(target=writer))
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
    assert system.statistics.sketch_captures == system.store.statistics.captures == 1
    first = min(recorder.at)
    assert set(recorder.at) - {first} <= {answer.version for _, answer, _ in answers}
    for before, answer, after in answers:
        assert before <= answer.version <= after
        assert answer == recorder.at[answer.version][sql], answer.version
    assert system.run_query(sql) == oracle(database, sql)


# --------------------------------------------------------------------------------------
# The shared SQL-text plan cache under DDL
# --------------------------------------------------------------------------------------


def side_changes(database: Database, commit, pause, count: int = 8) -> None:
    """The writer's operations, each made through ``commit``: a commit to
    ``side``, then a drop and a recreate of it (alternately with a third
    column); ``pause()`` after each."""
    for index in range(count):
        width = len(database.schema_of("side").attributes)
        commit(lambda: database.insert("side", [(index,) * width]))
        pause()
        commit(lambda: database.drop_table("side"))
        pause()
        columns = ["x", "y", "z"] if index % 2 else ["x", "y"]
        commit(lambda: database.create_table("side", columns))
        pause()


def test_plan_cache_readers_race_ddl_on_an_unrelated_table():
    """One reader through ``IMPSystem.run_query`` and one through
    ``Database.query`` repeat the shared texts over ``r`` while a writer
    commits to, drops and recreates ``side``: every DDL change re-keys the
    whole plan cache under the readers.  Every answer equals the oracle's
    answer recorded at its version, and no thread raises."""
    database, _table = make_database()
    system = make_system(database)
    database.create_table("side", ["x", "y"])
    recorder = VersionRecorder(database, QUERIES)
    runs = [system.run_query, database.query]
    answers: list[tuple[str, object]] = []
    errors: list[BaseException] = []
    ready = [threading.Event() for _ in runs]
    answered = threading.Event()
    done = threading.Event()

    def reader(slot: int) -> None:
        try:
            # Until the writer is done, then one more round at the final
            # catalog version.
            finished = False
            while not finished:
                finished = done.is_set()
                for sql in QUERIES:
                    answers.append((sql, runs[slot](sql)))
                    answered.set()
                ready[slot].set()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            ready[slot].set()

    def handshake() -> None:
        # The next operation waits for a reader to answer after this one.
        answered.clear()
        assert answered.wait(timeout=30.0)

    def writer() -> None:
        try:
            for event in ready:  # every reader has answered once
                assert event.wait(timeout=30.0)
            side_changes(database, recorder.commit, handshake)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(len(runs))]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside translations too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # The readers' first round and their round after the last DDL change
    # translate again (the handshake puts more misses in between).
    assert database._translations.cache_info().misses >= 2 * len(QUERIES)

    assert len(answers) >= 2 * len(runs) * len(QUERIES)
    # ``Database.query`` holds no lock and names no version; the writer never
    # touches ``r``, so every version answers each text alike.
    first = min(recorder.at)
    assert all(at == recorder.at[first] for at in recorder.at.values())
    for sql, answer in answers:
        version = first if answer.version is None else answer.version
        assert answer == recorder.at[version][sql], (sql, answer.version)


# --------------------------------------------------------------------------------------
# DELETE without WHERE under the write lock
# --------------------------------------------------------------------------------------


def test_delete_without_where_collects_its_victims_under_the_write_lock(monkeypatch):
    """A commit racing ``DELETE FROM t`` waits until the statement has
    collected and committed its victims; it used to change the rows being
    walked, and the statement raised a bare ``RuntimeError``."""
    database = Database()
    database.create_table("t", ["id", "v"], primary_key="id")
    database.insert("t", [(i, i) for i in range(5)])
    rows = StoredTable.rows
    writers: list[threading.Thread] = []

    def racing_rows(self):
        for row in rows(self):
            yield row
            if not writers:
                writer = threading.Thread(target=database.insert, args=("t", [(99, 99)]))
                writers.append(writer)
                writer.start()
                writer.join(timeout=0.2)  # returns at once unless the lock holds it

    monkeypatch.setattr(StoredTable, "rows", racing_rows)
    database.execute("DELETE FROM t")
    writers[0].join(timeout=10)
    assert not writers[0].is_alive()
    monkeypatch.undo()
    assert list(database.table("t").rows()) == [(99, 99)]


def test_session_delete_without_where_collects_its_victims_under_the_write_lock(monkeypatch):
    """``Session.execute`` runs DELETE through the same path, and a racing
    commit waits for it there too; the session re-pins at the DELETE's own
    version and reads its own write."""
    database = Database()
    database.create_table("t", ["id", "v"], primary_key="id")
    database.insert("t", [(i, i) for i in range(5)])
    rows = StoredTable.rows
    writers: list[threading.Thread] = []

    def racing_rows(self):
        for row in rows(self):
            yield row
            if not writers:
                writer = threading.Thread(target=database.insert, args=("t", [(99, 99)]))
                writers.append(writer)
                writer.start()
                writer.join(timeout=0.2)  # returns at once unless the lock holds it

    with database.connect() as session:
        monkeypatch.setattr(StoredTable, "rows", racing_rows)
        version = session.execute("DELETE FROM t")
        writers[0].join(timeout=10)
        assert not writers[0].is_alive()
        monkeypatch.undo()
        assert session.pinned_version == version
        assert list(session.query("SELECT id FROM t").rows()) == []
    assert list(database.table("t").rows()) == [(99, 99)]
