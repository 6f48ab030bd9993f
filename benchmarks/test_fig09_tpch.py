"""Figure 9: incremental versus full maintenance on TPC-H.

The paper runs selected TPC-H queries (joins + aggregation with HAVING, top-k)
at SF1 and SF10, varying the delta size from 10 to 1000 tuples, and reports
that IMP outperforms full maintenance by 3.9x up to ~2500x, with IMP's runtime
mostly independent of the database size.  Fig. 9c repeats the measurement for
deltas that mix insertions and deletions.

Scaled down here: two database scales (the "1GB" and "10GB" stand-ins) with
deltas of 10 and 100 lineitem rows.  The seconds are printed; the asserts
count what each maintainer reads, which does not drift with the box's speed:
after its first round (which builds the join sides) IMP reads deltas only,
FM rescans every table of the query, and IMP's reads are the same at both
scales.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_order_volume, tpch_q10

from benchmarks.conftest import median_rounds, print_rows

SCALES = {"small": 0.02, "large": 0.08}
DELTAS = [10, 100]
QUERIES = {
    "having_revenue": tpch_having_revenue(threshold=20_000.0),
    "order_volume": tpch_order_volume(threshold=60.0),
    "q10_topk": tpch_q10(k=10),
}


def _build(scale_name: str, sql: str):
    database = Database()
    data = load_tpch(database, scale=SCALES[scale_name], seed=11)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 32)
    incremental = IncrementalMaintainer(database, plan, partition)
    incremental.capture()
    full = FullMaintainer(database, plan, partition)
    full.capture()
    return database, data, incremental, full


def _maintain(database, maintainer) -> tuple[float, int, int]:
    """Seconds, full scans and delta fetches of one ``maintain()``."""
    scans, fetches = database.scan_count, database.delta_fetch_count
    started = time.perf_counter()
    maintainer.maintain()
    seconds = time.perf_counter() - started
    return seconds, database.scan_count - scans, database.delta_fetch_count - fetches


def _assert_reads(reads: list[tuple[int, int, int]], tables: int) -> None:
    """IMP reads only deltas after its first round, at most one fetch per
    table; FM rescans every table of the query every round."""
    for imp_scans, imp_fetches, _fm_scans in reads[1:]:
        assert imp_scans == 0, "IMP must not rescan a table once its join sides exist"
        assert 0 < imp_fetches <= tables
    assert [fm_scans for *_, fm_scans in reads] == [tables] * len(reads)


def _apply_lineitem_delta(database, data, delta_size: int, with_deletes: bool):
    if with_deletes:
        deletes = data.pick_lineitem_deletes(delta_size // 2)
        if deletes:
            database.delete_rows("lineitem", deletes)
        inserts = data.make_lineitem_inserts(delta_size - len(deletes))
    else:
        inserts = data.make_lineitem_inserts(delta_size)
    database.insert("lineitem", inserts)


@pytest.mark.parametrize("scale_name", list(SCALES))
@pytest.mark.parametrize("query_name", list(QUERIES))
@pytest.mark.parametrize("delta_size", DELTAS)
def test_fig09_incremental_vs_full(benchmark, scale_name, query_name, delta_size):
    """Per-maintenance runtime of IMP vs FM after a lineitem delta."""
    database, data, incremental, full = _build(scale_name, QUERIES[query_name])
    reads = []

    def one_round():
        _apply_lineitem_delta(database, data, delta_size, with_deletes=False)
        imp_seconds, imp_scans, imp_fetches = _maintain(database, incremental)
        fm_seconds, fm_scans, _fm_fetches = _maintain(database, full)
        reads.append((imp_scans, imp_fetches, fm_scans))
        return imp_seconds, fm_seconds

    imp_seconds, fm_seconds = benchmark.pedantic(
        median_rounds, args=(one_round,), rounds=1, iterations=1
    )
    result = ExperimentResult("fig09")
    result.add(system="imp", scale=scale_name, query=query_name, delta=delta_size,
               seconds=round(imp_seconds, 5))
    result.add(system="fm", scale=scale_name, query=query_name, delta=delta_size,
               seconds=round(fm_seconds, 5))
    print_rows(result, f"Fig. 9 (scaled): {query_name} @ {scale_name}, delta={delta_size}")
    # Shape: incremental maintenance reads the delta, full maintenance every table.
    _assert_reads(reads, len(database.plan(QUERIES[query_name]).referenced_tables()))


@pytest.mark.parametrize("query_name", ["having_revenue", "order_volume"])
def test_fig09c_insert_and_delete(benchmark, query_name):
    """Fig. 9c: maintenance cost with mixed insert/delete deltas stays far below FM."""
    database, data, incremental, full = _build("small", QUERIES[query_name])
    reads = []

    def one_round():
        _apply_lineitem_delta(database, data, 100, with_deletes=True)
        imp_seconds, imp_scans, imp_fetches = _maintain(database, incremental)
        fm_seconds, fm_scans, _fm_fetches = _maintain(database, full)
        reads.append((imp_scans, imp_fetches, fm_scans))
        return imp_seconds, fm_seconds

    imp_seconds, fm_seconds = benchmark.pedantic(
        median_rounds, args=(one_round,), rounds=1, iterations=1
    )
    _assert_reads(reads, len(database.plan(QUERIES[query_name]).referenced_tables()))
    result = ExperimentResult("fig09c")
    result.add(system="imp", query=query_name, delta=100, seconds=round(imp_seconds, 5))
    result.add(system="fm", query=query_name, delta=100, seconds=round(fm_seconds, 5))
    print_rows(result, f"Fig. 9c (scaled): insert+delete deltas, {query_name}")


def test_fig09_imp_runtime_mostly_independent_of_database_size(benchmark):
    """The paper observes IMP's cost depends on the delta, not the database size.

    The scaled databases differ 4x in size; IMP reads exactly the same at
    both (no table scan after the first round, the same delta fetches).
    """
    reads: dict[str, list[tuple[int, int]]] = {scale_name: [] for scale_name in SCALES}

    def measure():
        scenarios = {
            scale_name: _build(scale_name, QUERIES["having_revenue"]) for scale_name in SCALES
        }

        def one_round():
            # Both scales inside one round: the host's speed drifts between
            # rounds, and the printed ratio compares them.
            seconds = []
            for scale_name, (database, data, incremental, _full) in scenarios.items():
                _apply_lineitem_delta(database, data, 100, with_deletes=False)
                imp_seconds, imp_scans, imp_fetches = _maintain(database, incremental)
                seconds.append(imp_seconds)
                reads[scale_name].append((imp_scans, imp_fetches))
            return tuple(seconds)

        return dict(zip(scenarios, median_rounds(one_round, repeats=9)))

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = timings["large"] / max(timings["small"], 1e-9)
    print(f"\nFig. 9 (scaled): IMP seconds {timings}, large/small ratio {ratio:.2f}")
    assert reads["large"] == reads["small"], "IMP's reads must not depend on the database size"
    assert all(scans == 0 for scans, _fetches in reads["small"][1:])
