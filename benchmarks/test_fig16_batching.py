"""Figure 16: eager maintenance cost as a function of the batch size.

The paper applies 1000 updates under the eager strategy, varying how many
updates are batched before maintenance is triggered, for a single-table
HAVING query (Q_endtoend) and a join query (Q_joinsel at 5% selectivity).
Finding: batch sizes below ~50 significantly inflate the total maintenance
cost; larger batches amortise the per-maintenance overhead.

Scaled down: 120 single-tuple updates, batch sizes 1 / 10 / 60.  The seconds
are printed; the asserts count maintenance passes (one delta fetch per table
each): batch 60 makes 1/60 as many as batch 1 and processes no more delta
tuples, and after the capture neither reads a table except to build a join
side once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_endtoend, q_joinsel
from repro.workloads.synthetic import load_join_helper, load_synthetic

from benchmarks.conftest import print_rows

TOTAL_UPDATES = 120
BATCH_SIZES = [1, 10, 60]
QUERIES = {
    "q_endtoend": (q_endtoend(low=100, high=1500), False),
    "q_joinsel_5pct": (q_joinsel(filter_threshold=2000, having_threshold=2000), True),
}


@dataclass
class BatchedRun:
    """What IMP did to absorb ``TOTAL_UPDATES`` single-tuple updates."""

    seconds: float
    tables: int
    fetches: int
    scans: int
    side_builds: int
    delta_tuples: int
    processed: int


def run_batched_maintenance(query_key: str, batch_size: int) -> BatchedRun:
    sql, needs_helper = QUERIES[query_key]
    database = Database()
    table = load_synthetic(database, num_rows=3000, num_groups=200, seed=51)
    if needs_helper:
        load_join_helper(
            database, num_rows=600, join_selectivity=0.05, join_domain=200, seed=52
        )
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 48)
    maintainer = IncrementalMaintainer(database, plan, partition, IMPConfig())
    maintainer.capture()
    scans, fetches = database.scan_count, database.delta_fetch_count
    total_seconds = 0.0
    delta_tuples = 0
    for update in range(1, TOTAL_UPDATES + 1):
        database.insert("r", table.make_inserts(1))
        if update % batch_size == 0:
            started = time.perf_counter()
            delta_tuples += maintainer.maintain().delta_tuples
            total_seconds += time.perf_counter() - started
    statistics = maintainer.statistics
    return BatchedRun(
        seconds=total_seconds,
        tables=len(plan.referenced_tables()),
        fetches=database.delta_fetch_count - fetches,
        scans=database.scan_count - scans,
        side_builds=statistics.backend_round_trips,
        delta_tuples=delta_tuples,
        processed=statistics.tuples_processed,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        (query_key, batch_size): run_batched_maintenance(query_key, batch_size)
        for query_key in QUERIES
        for batch_size in BATCH_SIZES
    }


@pytest.mark.parametrize("query_key", list(QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_fig16_eager_batch_size(runs, query_key, batch_size):
    run = runs[(query_key, batch_size)]
    result = ExperimentResult("fig16")
    result.add(query=query_key, batch=batch_size, seconds=round(run.seconds, 5),
               fetches=run.fetches, processed=run.processed)
    print_rows(result, f"Fig. 16 (scaled): eager maintenance, {query_key}, batch={batch_size}")
    # One fetch per table per maintenance pass, every update absorbed from
    # the delta, and a full scan after the capture only to build a join side.
    assert run.fetches == run.tables * (TOTAL_UPDATES // batch_size)
    assert run.delta_tuples == TOTAL_UPDATES
    assert run.scans == run.side_builds < run.tables


def test_fig16_small_batches_cost_more(runs):
    """Shape: maintaining after every single update makes 60 times as many
    maintenance passes as batching 60 updates, processes at least as many
    delta tuples, and reads the same tables (the paper recommends batch
    sizes >= 50)."""
    for query_key in QUERIES:
        small, large = runs[(query_key, 1)], runs[(query_key, 60)]
        assert small.fetches == 60 * large.fetches, query_key
        assert large.processed <= small.processed, query_key
        assert small.scans == large.scans == large.side_builds, query_key
