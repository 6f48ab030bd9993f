"""Figure 26 (extension): the price of durability and the cost of recovery.

The durability layer's claim is that crash safety is a *pay-for-what-you-get*
knob, not a tax on the in-memory engine:

* ``fsync="off"`` adds only the WAL serialisation cost over the in-memory
  default (no disk barrier per commit), ``fsync="batch"`` amortises the
  barrier over ``batch_interval`` commits, and ``fsync="always"`` pays one
  ``fsync`` per commit for the full no-acknowledged-loss guarantee;
* recovery replays the WAL tail, so restart time scales with the number of
  commits since the last checkpoint -- checkpoints bound it.

Measured here (one run per point; a fresh data directory per run):

* per-commit latency for the in-memory baseline and each fsync policy,
* recovery wall-clock against WAL tails of increasing length,
* the measurements are written to the ``BENCH_fig26.json`` artifact.

The seconds are reported, never asserted.  Asserted: every durable commit
appends exactly one WAL record, recovery replays exactly the commits of the
WAL tail, and every recovery is bit-identical (``state_fingerprint``) to the
database that wrote the log.  How many syncs each fsync policy issues is
counted at the I/O layer in ``tests/test_wal_recovery.py``.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import ExperimentResult
from repro.storage.database import Database
from repro.storage.recovery import WAL_FILE, recover_database, state_fingerprint
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF, scan_wal

from benchmarks.conftest import print_rows, save_artifact

COMMITS = 60
DELTA_ROWS = 20
WAL_LENGTHS = (10, 40)
POLICIES = [
    ("in-memory", None),
    ("off", FSYNC_OFF),
    ("batch", FSYNC_BATCH),
    ("always", FSYNC_ALWAYS),
]

RESULTS = ExperimentResult("fig26")


def make_database(data_dir, fsync):
    if data_dir is None:
        return Database("fig26")
    return Database("fig26", data_dir=str(data_dir), fsync=fsync)


def load_base(database: Database) -> None:
    database.create_table("r", ["id", "a", "v"], primary_key="id")
    database.insert("r", [(i, i % 10, i * 0.125) for i in range(500)])


def commit_batches(database: Database, commits: int, start_id: int) -> None:
    for batch in range(commits):
        base = start_id + batch * DELTA_ROWS
        database.insert(
            "r",
            [(base + i, (base + i) % 10, (base + i) * 0.125) for i in range(DELTA_ROWS)],
        )


def wal_records(data_dir) -> int:
    return len(scan_wal(os.path.join(str(data_dir), WAL_FILE)).records)


def test_fig26_commit_latency_per_fsync_policy(tmp_path):
    for label, fsync in POLICIES:
        data_dir = None if fsync is None else tmp_path / label
        database = make_database(data_dir, fsync)
        load_base(database)
        base_records = 0 if data_dir is None else wal_records(data_dir)
        started = time.perf_counter()
        commit_batches(database, COMMITS, start_id=10_000)
        seconds = (time.perf_counter() - started) / COMMITS
        database.close()
        RESULTS.add(
            mode="commit",
            policy=label,
            commits=COMMITS,
            delta_rows=DELTA_ROWS,
            commit_micros=round(seconds * 1e6, 2),
        )
        if data_dir is not None:
            assert wal_records(data_dir) - base_records == COMMITS, label
    print_rows(RESULTS, "Fig. 26: per-commit latency per fsync policy")


def test_fig26_recovery_time_scales_with_wal_length(tmp_path):
    for commits in WAL_LENGTHS:
        data_dir = tmp_path / f"recover-{commits}"
        database = make_database(data_dir, FSYNC_OFF)
        load_base(database)
        # Checkpoint the base load so recovery replays exactly the
        # `commits`-record WAL tail, nothing more.
        database.checkpoint()
        commit_batches(database, commits, start_id=10_000)
        expected = state_fingerprint(database)
        database.close()

        started = time.perf_counter()
        recovered, report = recover_database(str(data_dir))
        seconds = time.perf_counter() - started
        assert report.commits_replayed == commits
        assert state_fingerprint(recovered) == expected, (
            f"recovery of a {commits}-commit WAL tail was not bit-identical"
        )
        recovered.close()
        RESULTS.add(
            mode="recovery",
            wal_commits=commits,
            seconds=round(seconds, 6),
            millis_per_commit=round(seconds * 1e3 / commits, 4),
        )
    print_rows(RESULTS, "Fig. 26: durability cost and recovery time")
    save_artifact(RESULTS, "fig26")
