"""Figure 23 (extension): serving-layer read throughput under concurrency.

The serving layer's claim: reader sessions at pinned snapshots never block on
the write lock (committed versions are immutable; a snapshot batch is
materialized once and then shared lock-free), so aggregate read throughput
scales with the number of concurrent sessions while a writer keeps
committing.

The workload models a serving scenario: every query is preceded by a fixed
client think time (the network/round-trip gap of a real multi-user system),
so a single session is latency-bound and concurrent sessions overlap their
idle gaps -- exactly what a connection-per-client serving layer must exploit.
A writer thread commits update batches throughout every measurement, and a
coarse-locking baseline (each query holds the database write lock end to
end, i.e. no MVCC) is reported alongside.

Asserted: every session's pinned reads stay bit-identical while the writer
commits, and match a post-hoc session re-pinned at the same version.  The
throughput of each configuration is reported, never asserted (it follows the
machine's speed); the measurements are written to the ``BENCH_fig23.json``
artifact.  That a session read at a materialized snapshot never waits for the
write lock is tested directly, with threads in lock step, in
``tests/test_concurrency.py``.
"""

from __future__ import annotations

import threading
import time

from repro.bench.harness import ExperimentResult
from repro.storage.database import Database
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows, save_artifact

NUM_ROWS = 500
NUM_GROUPS = 50
DURATION = 0.25
# The serving model: ~5 ms of client think time per query against ~0.3 ms of
# query CPU, so a single session is latency-bound and concurrent sessions can
# overlap their idle gaps without saturating the interpreter.
THINK_SECONDS = 0.005
WRITER_PAUSE = 0.005
WRITER_DELTA = 25
READER_COUNTS = (1, 2, 4)

SQL = "SELECT a, SUM(c) AS total FROM r GROUP BY a HAVING SUM(c) > 500"


def run_configuration(
    readers: int, coarse: bool
) -> tuple[float, int, list[tuple[int, tuple]], Database]:
    """Drive ``readers`` sessions plus one writer for ``DURATION`` seconds.

    Each configuration gets a *fresh* database (the writer grows the table
    throughout a run; sharing one database would hand later configurations
    bigger snapshots and muddy the scaling comparison).  Returns (elapsed,
    total queries, per-reader (pinned version, result) observations for the
    post-hoc consistency check, the database).  ``coarse=True`` is the
    no-MVCC baseline: each query holds the database write lock end to end,
    serializing readers against the writer and each other.
    """
    database = Database()
    table = load_synthetic(
        database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=29
    )
    barrier = threading.Barrier(readers + 1)
    stop = threading.Event()
    counts = [0] * readers
    observations: list[tuple[int, tuple]] = []
    violations: list[int] = []
    lock = database.lock

    def reader(slot: int) -> None:
        with database.connect(name=f"bench-{slot}") as session:
            baseline = tuple(session.query(SQL).to_sorted_list())
            pinned = session.pinned_version
            barrier.wait()
            deadline = time.monotonic() + DURATION
            while time.monotonic() < deadline:
                time.sleep(THINK_SECONDS)
                if coarse:
                    with lock:
                        answer = tuple(session.query(SQL).to_sorted_list())
                else:
                    answer = tuple(session.query(SQL).to_sorted_list())
                if answer != baseline:
                    violations.append(slot)
                counts[slot] += 1
            observations.append((pinned, baseline))

    def writer() -> None:
        barrier.wait()
        deadline = time.monotonic() + DURATION
        while time.monotonic() < deadline:
            database.insert("r", table.make_inserts(WRITER_DELTA))
            time.sleep(WRITER_PAUSE)

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(readers)]
    writer_thread = threading.Thread(target=writer)
    started = time.perf_counter()
    for thread in [*threads, writer_thread]:
        thread.start()
    for thread in [*threads, writer_thread]:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not violations, f"pinned snapshot changed under readers {violations}"
    return elapsed, sum(counts), observations, database


def test_fig23_read_throughput_scales_with_sessions():
    result = ExperimentResult("fig23")
    all_observations: list[tuple[int, tuple, Database]] = []
    # The sessions at each reader count, then the no-MVCC baseline at peak
    # concurrency, for the report.
    configurations = [(readers, False) for readers in READER_COUNTS]
    configurations.append((max(READER_COUNTS), True))
    for readers, coarse in configurations:
        elapsed, queries, observations, database = run_configuration(readers, coarse)
        all_observations.extend((pinned, rows, database) for pinned, rows in observations)
        result.add(
            readers=readers,
            mode="coarse-lock" if coarse else "sessions",
            queries=queries,
            seconds=elapsed,
            throughput=round(queries / elapsed, 1),
        )
    print_rows(result, "Fig. 23: aggregate read throughput (queries/sec)")
    save_artifact(result, "fig23")

    # Differential consistency: every result observed at a pinned version
    # equals a fresh session re-pinned there after all the commits landed.
    assert len(all_observations) == sum(readers for readers, _coarse in configurations)
    for pinned, rows, database in all_observations:
        with database.connect() as check:
            check.refresh(pinned)
            assert tuple(check.query(SQL).to_sorted_list()) == rows, (
                f"snapshot at version {pinned} not reproducible post-hoc"
            )
