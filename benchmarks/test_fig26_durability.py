"""Figure 26 (extension): the price of durability and the cost of recovery.

The durability layer's claim is that crash safety is a *pay-for-what-you-get*
knob, not a tax on the in-memory engine:

* ``fsync="off"`` adds only the WAL serialisation cost over the in-memory
  default (no disk barrier per commit), ``fsync="batch"`` amortises the
  barrier over ``batch_interval`` commits, and ``fsync="always"`` pays one
  ``fsync`` per commit for the full no-acknowledged-loss guarantee;
* recovery replays the WAL tail, so restart time scales with the number of
  commits since the last checkpoint -- checkpoints bound it.

Measured here (medians of >= 3 repeats; a fresh data directory per sample):

* per-commit latency for the in-memory baseline and each fsync policy,
* recovery wall-clock against WAL tails of increasing length, each recovery
  checked bit-identical (``state_fingerprint``) to the database that wrote
  the log,
* the measurements are written to the ``BENCH_fig26.json`` artifact.

Asserted (non-smoke): ``fsync="always"`` commits no faster than
``fsync="off"`` (the barrier is real), and recovering the longest WAL tail
takes at least as long as the shortest (replay work scales).  The
bit-identity checks and the artifact always run.

Set ``BENCH_SMOKE=1`` (the gating CI job does) to shrink the workload and
skip the wall-clock comparisons.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import ExperimentResult
from repro.storage.database import Database
from repro.storage.recovery import recover_database, state_fingerprint
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF

from benchmarks.conftest import median_seconds, print_rows, save_artifact

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
COMMITS = 60 if SMOKE else 200
DELTA_ROWS = 20
REPEATS = 3
WAL_LENGTHS = (10, 40) if SMOKE else (25, 100, 400)

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


def measure_commit_seconds(tmp_path, label: str, fsync: str | None) -> float:
    """Median across repeats of the mean per-commit latency for one policy."""
    samples = []

    def one_round() -> float:
        data_dir = None if fsync is None else tmp_path / f"{label}-{len(samples)}"
        database = make_database(data_dir, fsync)
        load_base(database)
        started = time.perf_counter()
        commit_batches(database, COMMITS, start_id=10_000)
        elapsed = time.perf_counter() - started
        if database.is_durable:
            database.close()
        samples.append(elapsed)
        return elapsed / COMMITS

    return median_seconds(one_round, repeats=REPEATS)


def test_fig26_commit_latency_per_fsync_policy(benchmark, tmp_path):
    policies = [
        ("in-memory", None),
        ("off", FSYNC_OFF),
        ("batch", FSYNC_BATCH),
        ("always", FSYNC_ALWAYS),
    ]
    latency: dict[str, float] = {}

    def run_all() -> None:
        for label, fsync in policies:
            seconds = measure_commit_seconds(tmp_path, label, fsync)
            latency[label] = seconds
            RESULTS.add(
                mode="commit",
                policy=label,
                commits=COMMITS,
                delta_rows=DELTA_ROWS,
                commit_micros=round(seconds * 1e6, 2),
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    if SMOKE:
        return
    assert latency["always"] >= latency["off"], (
        f"fsync='always' commits measured faster than fsync='off': {latency}"
    )


def test_fig26_recovery_time_scales_with_wal_length(benchmark, tmp_path):
    recovery: dict[int, float] = {}

    def run_all() -> None:
        for commits in WAL_LENGTHS:
            durations = []
            for repeat in range(REPEATS):
                data_dir = tmp_path / f"recover-{commits}-{repeat}"
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
                durations.append(time.perf_counter() - started)
                assert report.commits_replayed == commits
                assert state_fingerprint(recovered) == expected, (
                    f"recovery of a {commits}-commit WAL tail was not bit-identical"
                )
                recovered.close()
            durations.sort()
            recovery[commits] = durations[len(durations) // 2]
            RESULTS.add(
                mode="recovery",
                wal_commits=commits,
                seconds=round(recovery[commits], 6),
                millis_per_commit=round(recovery[commits] * 1e3 / commits, 4),
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_rows(RESULTS, "Fig. 26: durability cost and recovery time")
    save_artifact(RESULTS, "fig26")

    if SMOKE:
        return
    shortest, longest = min(WAL_LENGTHS), max(WAL_LENGTHS)
    assert recovery[longest] >= recovery[shortest], (
        f"replaying {longest} commits measured faster than {shortest}: {recovery}"
    )
