"""Figure 10: incremental versus full maintenance on the Crimes dataset.

The paper uses two queries over the Chicago Crimes table -- CQ1 (crimes per
beat and year) and CQ2 (areas with more than 1000 crimes) -- with realistic
delta sizes of 10 to 1000 rows and finds incremental maintenance at least two
orders of magnitude faster than full maintenance; Fig. 10b repeats the
experiment with mixed insertions and deletions.

Scaled down to a 12k-row table, one maintenance round per point.  The seconds
are printed; the asserts count what each maintainer reads: IMP absorbs the
delta without a table scan, while FM rescans the whole table, so the rows FM
reads outnumber the delta tuples IMP's operators process -- by more than 5x
for deltas up to 100 rows.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.crimes import CRIMES_Q1, crimes_q2, load_crimes

from benchmarks.conftest import maintain_round, print_rows

NUM_ROWS = 12_000
DELTAS = [10, 100, 1000]
QUERIES = {"cq1": CRIMES_Q1, "cq2": crimes_q2(threshold=30)}


def _build(sql: str):
    database = Database()
    data = load_crimes(database, num_rows=NUM_ROWS, seed=29)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 64)
    incremental = IncrementalMaintainer(database, plan, partition)
    incremental.capture()
    full = FullMaintainer(database, plan, partition)
    full.capture()
    return database, data, incremental, full


def _report(name: str, query_name: str, measured) -> None:
    result = ExperimentResult(name)
    result.add(system="imp", query=query_name, delta=measured.delta,
               seconds=round(measured.imp_seconds, 5), tuples=measured.imp_processed)
    result.add(system="fm", query=query_name, delta=measured.delta,
               seconds=round(measured.fm_seconds, 5), tuples=measured.fm_rows)
    print_rows(result, f"Fig. {name[-3:]} (scaled): {query_name}, delta={measured.delta}")


@pytest.mark.parametrize("query_name", list(QUERIES))
@pytest.mark.parametrize("delta_size", DELTAS)
def test_fig10a_incremental_vs_full(query_name, delta_size):
    database, data, incremental, full = _build(QUERIES[query_name])
    database.insert("crimes", data.make_inserts(delta_size))
    measured = maintain_round(database, incremental, full, delta_size)
    _report("fig10a", query_name, measured)
    measured.assert_reads(tables=1)
    assert measured.fm_rows == NUM_ROWS + delta_size
    assert measured.read_ratio > (5 if delta_size <= 100 else 1), (
        f"FM should read far more than IMP processes (got {measured.read_ratio:.1f}x)"
    )


@pytest.mark.parametrize("query_name", list(QUERIES))
def test_fig10b_insert_and_delete(query_name):
    database, data, incremental, full = _build(QUERIES[query_name])
    database.delete_rows("crimes", data.pick_deletes(50))
    database.insert("crimes", data.make_inserts(50))
    measured = maintain_round(database, incremental, full, 100)
    _report("fig10b", query_name, measured)
    measured.assert_reads(tables=1)
    assert measured.fm_rows == NUM_ROWS
    assert measured.read_ratio > 5
