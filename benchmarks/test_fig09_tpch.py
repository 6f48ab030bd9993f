"""Figure 9: incremental versus full maintenance on TPC-H.

The paper runs selected TPC-H queries (joins + aggregation with HAVING, top-k)
at SF1 and SF10, varying the delta size from 10 to 1000 tuples, and reports
that IMP outperforms full maintenance by 3.9x up to ~2500x, with IMP's runtime
mostly independent of the database size.  Fig. 9c repeats the measurement for
deltas that mix insertions and deletions.

Scaled down here: two database scales (the "1GB" and "10GB" stand-ins) with
deltas of 10 and 100 lineitem rows, three maintenance rounds per point.  The
seconds are printed; the asserts
count what each maintainer reads, which does not drift with the box's speed:
after its first round (which builds the join sides) IMP reads deltas only,
FM rescans every table of the query, and IMP's reads are the same at both
scales.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_order_volume, tpch_q10

from benchmarks.conftest import maintain_round, print_rows

SCALES = {"small": 0.02, "large": 0.08}
DELTAS = [10, 100]
ROUNDS = 3
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


def _assert_reads(rounds: list, tables: int) -> None:
    """IMP reads only deltas after its first round (which builds the join
    sides), at most one fetch per table, and never recaptures; FM rescans
    every table of the query every round."""
    for measured in rounds[1:]:
        assert measured.imp_scans == 0, "IMP must not rescan a table once its join sides exist"
        assert 0 < measured.imp_fetches <= tables
    assert not any(measured.imp_recaptured for measured in rounds)
    assert [measured.fm_scans for measured in rounds] == [tables] * len(rounds)


def _apply_lineitem_delta(database, data, delta_size: int, with_deletes: bool):
    if with_deletes:
        deletes = data.pick_lineitem_deletes(delta_size // 2)
        if deletes:
            database.delete_rows("lineitem", deletes)
        inserts = data.make_lineitem_inserts(delta_size - len(deletes))
    else:
        inserts = data.make_lineitem_inserts(delta_size)
    database.insert("lineitem", inserts)


def _rounds(database, data, incremental, full, delta_size: int, with_deletes: bool):
    """``ROUNDS`` update batches, each maintained by IMP and then FM."""
    rounds = []
    for _ in range(ROUNDS):
        _apply_lineitem_delta(database, data, delta_size, with_deletes)
        rounds.append(maintain_round(database, incremental, full, delta_size))
    return rounds


def _report(name: str, title: str, rounds: list, **point) -> None:
    result = ExperimentResult(name)
    for system in ("imp", "fm"):
        seconds = sum(getattr(measured, f"{system}_seconds") for measured in rounds)
        result.add(system=system, **point, seconds=round(seconds, 5))
    print_rows(result, f"{title}, {ROUNDS} rounds")


@pytest.mark.parametrize("scale_name", list(SCALES))
@pytest.mark.parametrize("query_name", list(QUERIES))
@pytest.mark.parametrize("delta_size", DELTAS)
def test_fig09_incremental_vs_full(scale_name, query_name, delta_size):
    """Per-maintenance runtime of IMP vs FM after a lineitem delta."""
    database, data, incremental, full = _build(scale_name, QUERIES[query_name])
    rounds = _rounds(database, data, incremental, full, delta_size, with_deletes=False)
    _report("fig09", f"Fig. 9 (scaled): {query_name} @ {scale_name}, delta={delta_size}",
            rounds, scale=scale_name, query=query_name, delta=delta_size)
    # Shape: incremental maintenance reads the delta, full maintenance every table.
    _assert_reads(rounds, len(database.plan(QUERIES[query_name]).referenced_tables()))


@pytest.mark.parametrize("query_name", ["having_revenue", "order_volume"])
def test_fig09c_insert_and_delete(query_name):
    """Fig. 9c: maintenance cost with mixed insert/delete deltas stays far below FM."""
    database, data, incremental, full = _build("small", QUERIES[query_name])
    rounds = _rounds(database, data, incremental, full, 100, with_deletes=True)
    _report("fig09c", f"Fig. 9c (scaled): insert+delete deltas, {query_name}",
            rounds, query=query_name, delta=100)
    _assert_reads(rounds, len(database.plan(QUERIES[query_name]).referenced_tables()))


def test_fig09_imp_runtime_mostly_independent_of_database_size():
    """The paper observes IMP's cost depends on the delta, not the database size.

    The scaled databases differ 4x in size; IMP reads exactly the same at
    both (no table scan after the first round, the same delta fetches).
    """
    rounds = {
        scale_name: _rounds(
            *_build(scale_name, QUERIES["having_revenue"]), 100, with_deletes=False
        )
        for scale_name in SCALES
    }
    seconds = {
        scale_name: round(sum(measured.imp_seconds for measured in measured_rounds), 5)
        for scale_name, measured_rounds in rounds.items()
    }
    print(f"\nFig. 9 (scaled): IMP seconds over {ROUNDS} rounds {seconds}")
    reads = {
        scale_name: [(measured.imp_scans, measured.imp_fetches) for measured in measured_rounds]
        for scale_name, measured_rounds in rounds.items()
    }
    assert reads["large"] == reads["small"], "IMP's reads must not depend on the database size"
    assert all(scans == 0 for scans, _fetches in reads["small"][1:])
