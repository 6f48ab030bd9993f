"""Ablation: how much of IMP's end-to-end win comes from each design choice.

DESIGN.md calls out the design choices worth ablating.  Fig. 13 covers the
engine-internal optimizations (Bloom filters, delta push-down, state buffers);
this file ablates the two remaining pieces of the end-to-end story:

* **Physical data skipping** -- answering a query through a sketch only helps
  if the backend can exploit the injected range predicates.  We compare query
  latency through a selective sketch with and without the ordered index on the
  sketch attribute (the paper relies on the DBMS's physical design here).
* **Sketch selectivity** -- the benefit of PBDS grows as the sketch covers a
  smaller fraction of the data (the paper's motivation: HAVING/top-k queries
  where only a fraction of the database is relevant).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.relational.algebra import Selection, TableScan, walk_plan
from repro.relational.predicates import extract_intervals
from repro.imp.engine import capture_sketch
from repro.sketch.selection import build_database_partition
from repro.sketch.use import estimated_selectivity, instrument_plan
from repro.storage.database import Database
from repro.workloads.queries import q_endtoend
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

NUM_ROWS = 20_000
NUM_GROUPS = 1_000


def _median_query_seconds(database, plan, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        database.query(plan)
        samples.append(time.perf_counter() - started)
    samples.sort()
    return samples[len(samples) // 2]


def _scans_of_one_query(database, plan) -> tuple[int, int]:
    """(full scans, index scans) the backend performs to answer ``plan``."""
    before = (database.scan_count, database.index_scan_count)
    database.query(plan)
    return (
        database.scan_count - before[0],
        database.index_scan_count - before[1],
    )


def _rows_index_scan_returns(database, instrumented) -> int:
    """What the index scan hands to the evaluator for ``instrumented``: the
    rows of ``r`` inside the sketch's ranges, instead of the whole table."""
    selection = next(
        node
        for node in walk_plan(instrumented)
        if isinstance(node, Selection) and isinstance(node.child, TableScan)
    )
    fetched = database.index_scan("r", "a", extract_intervals(selection.predicate, "a"))
    return sum(fetched.multiplicities)


def test_ablation_index_enables_data_skipping(benchmark):
    """Without the ordered index the use rewrite cannot skip data physically.

    Asserted on what the backend reads (deterministic), not on wall-clock:
    the timings are printed for the table only.
    """

    def run():
        database = Database()
        load_synthetic(database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=3)
        sql = q_endtoend(low=800, high=900)   # selective HAVING band
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 256)
        sketch = capture_sketch(plan, partition, database)
        instrumented = instrument_plan(plan, sketch)
        expected = database.query(plan)
        timings = {
            "no sketch (full scan)": _median_query_seconds(database, plan),
            "sketch, no index": _median_query_seconds(database, instrumented),
        }
        scans_without_index = _scans_of_one_query(database, instrumented)
        database.create_index("r", "a")
        timings["sketch + ordered index"] = _median_query_seconds(database, instrumented)
        scans_with_index = _scans_of_one_query(database, instrumented)
        assert database.query(instrumented) == expected
        rows_fetched = _rows_index_scan_returns(database, instrumented)
        return (
            timings,
            scans_without_index,
            scans_with_index,
            rows_fetched,
            database.row_count("r"),
            estimated_selectivity(sketch, "r"),
        )

    timings, scans_without_index, scans_with_index, rows_fetched, rows_total, selectivity = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    result = ExperimentResult("ablation-index")
    for configuration, seconds in timings.items():
        result.add(configuration=configuration, seconds=round(seconds, 5))
    result.add(configuration="sketch covers fraction", seconds=round(selectivity, 4))
    result.add(configuration="rows fetched / rows in table", seconds=f"{rows_fetched}/{rows_total}")
    print_rows(result, "Ablation: physical data skipping (selective HAVING query)")
    # Without an access path the rewrite still reads the whole table ...
    assert scans_without_index == (1, 0)
    # ... with the index it reads only the rows inside the sketch's ranges.
    assert scans_with_index == (0, 1)
    assert 0 < rows_fetched < rows_total * 0.5


@pytest.mark.parametrize("band", [(800, 900), (200, 1800)])
def test_ablation_sketch_selectivity(benchmark, band):
    """A narrow HAVING band (selective sketch) makes the backend read less.

    Asserted on what the backend read; the timings go to the printed table.
    """

    low, high = band

    def run():
        database = Database()
        load_synthetic(database, num_rows=NUM_ROWS // 2, num_groups=NUM_GROUPS // 2, seed=5)
        sql = q_endtoend(low=low, high=high)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 256)
        for table_partition in partition:
            database.create_index(table_partition.table, table_partition.attribute)
        sketch = capture_sketch(plan, partition, database)
        instrumented = instrument_plan(plan, sketch)
        full = _median_query_seconds(database, plan)
        through_sketch = _median_query_seconds(database, instrumented)
        return (
            full,
            through_sketch,
            estimated_selectivity(sketch, "r"),
            _scans_of_one_query(database, instrumented),
            _rows_index_scan_returns(database, instrumented),
            database.row_count("r"),
        )

    full, through_sketch, selectivity, scans, rows_fetched, rows_total = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    result = ExperimentResult("ablation-selectivity")
    result.add(band=f"{low}-{high}", covered_fraction=round(selectivity, 3),
               rows_fetched=f"{rows_fetched}/{rows_total}",
               full_seconds=round(full, 5), sketch_seconds=round(through_sketch, 5),
               speedup=round(full / max(through_sketch, 1e-9), 2))
    print_rows(result, "Ablation: sketch selectivity vs rows read (and query speedup)")
    assert scans == (0, 1)
    assert 0 < rows_fetched < rows_total
    _READS[band] = (selectivity, rows_fetched / rows_total)


_READS: dict = {}


def test_ablation_selective_sketch_wins_more(benchmark):
    """The share of the table the index scan returns grows with the share of
    the fragments the sketch covers."""

    def collect():
        return dict(_READS)

    reads = benchmark.pedantic(collect, rounds=1, iterations=1)
    if (800, 900) in reads and (200, 1800) in reads:
        narrow_covered, narrow_read = reads[(800, 900)]
        wide_covered, wide_read = reads[(200, 1800)]
        assert narrow_covered < wide_covered
        assert narrow_read < wide_read
