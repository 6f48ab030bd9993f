"""Ablation: how much of IMP's end-to-end win comes from each design choice.

Fig. 13 covers the engine-internal optimizations README.md describes (Bloom
filters, delta push-down, state buffers); this file ablates the two remaining
pieces of the end-to-end story:

* **Physical data skipping** -- answering a query through a sketch only helps
  if the backend can exploit the injected range predicates.  We compare what
  the backend reads through a selective sketch with and without the ordered
  index on the sketch attribute (the paper relies on the DBMS's physical
  design here).
* **Sketch selectivity** -- the benefit of PBDS grows as the sketch covers a
  smaller fraction of the data (the paper's motivation: HAVING/top-k queries
  where only a fraction of the database is relevant).

The asserts count full scans, index scans and the rows an index scan returns;
the query seconds (one run each, the table's column batch already built) are
printed.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.relational.algebra import Selection, TableScan, walk_plan
from repro.relational.predicates import extract_intervals
from repro.imp.engine import capture_sketch
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from repro.workloads.queries import q_endtoend
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

NUM_ROWS = 20_000
NUM_GROUPS = 1_000


def _query_seconds(database, plan) -> float:
    started = time.perf_counter()
    database.query(plan)
    return time.perf_counter() - started


def _covered_share(sketch, table: str) -> float:
    """The share of ``table``'s fragments the sketch keeps."""
    return len(sketch.ranges_for(table)) / sketch.partition.partition_of(table).num_fragments


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


def test_ablation_index_enables_data_skipping():
    """Without the ordered index the use rewrite cannot skip data physically.

    Asserted on what the backend reads (deterministic), not on wall-clock:
    the timings are printed for the table only.
    """
    database = Database()
    load_synthetic(database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=3)
    sql = q_endtoend(low=800, high=900)   # selective HAVING band
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 256)
    sketch = capture_sketch(plan, partition, database)
    instrumented = instrument_plan(plan, sketch)
    expected = database.query(plan)
    timings = {
        "no sketch (full scan)": _query_seconds(database, plan),
        "sketch, no index": _query_seconds(database, instrumented),
    }
    scans_without_index = _scans_of_one_query(database, instrumented)
    database.create_index("r", "a")
    timings["sketch + ordered index"] = _query_seconds(database, instrumented)
    scans_with_index = _scans_of_one_query(database, instrumented)
    assert database.query(instrumented) == expected
    rows_fetched = _rows_index_scan_returns(database, instrumented)
    rows_total = database.row_count("r")

    result = ExperimentResult("ablation-index")
    for configuration, seconds in timings.items():
        result.add(configuration=configuration, seconds=round(seconds, 5))
    result.add(configuration="sketch covers fraction",
               seconds=round(_covered_share(sketch, "r"), 4))
    result.add(configuration="rows fetched / rows in table", seconds=f"{rows_fetched}/{rows_total}")
    print_rows(result, "Ablation: physical data skipping (selective HAVING query)")
    # Without an access path the rewrite still reads the whole table ...
    assert scans_without_index == (1, 0)
    # ... with the index it reads only the rows inside the sketch's ranges.
    assert scans_with_index == (0, 1)
    assert 0 < rows_fetched < rows_total * 0.5


BANDS = [(800, 900), (200, 1800)]


@pytest.fixture(scope="module")
def reads_by_band() -> dict:
    """Per HAVING band: seconds without and through the sketch, the share of
    r's fragments the sketch covers, the backend's (full, index) scans of the
    sketch query, the rows the index scan returns and the table's rows."""
    reads = {}
    for low, high in BANDS:
        database = Database()
        load_synthetic(database, num_rows=NUM_ROWS // 2, num_groups=NUM_GROUPS // 2, seed=5)
        plan = database.plan(q_endtoend(low=low, high=high))
        partition = build_database_partition(database, plan, 256)
        for table_partition in partition:
            database.create_index(table_partition.table, table_partition.attribute)
        sketch = capture_sketch(plan, partition, database)
        instrumented = instrument_plan(plan, sketch)
        database.query(plan)  # builds the table's column batch before the timings
        reads[(low, high)] = (
            _query_seconds(database, plan),
            _query_seconds(database, instrumented),
            _covered_share(sketch, "r"),
            _scans_of_one_query(database, instrumented),
            _rows_index_scan_returns(database, instrumented),
            database.row_count("r"),
        )
    return reads


@pytest.mark.parametrize("band", BANDS)
def test_ablation_sketch_selectivity(reads_by_band, band):
    """A narrow HAVING band (selective sketch) makes the backend read less.

    Asserted on what the backend read; the timings go to the printed table.
    """
    full, through_sketch, covered, scans, rows_fetched, rows_total = reads_by_band[band]
    low, high = band
    result = ExperimentResult("ablation-selectivity")
    result.add(band=f"{low}-{high}", covered_fraction=round(covered, 3),
               rows_fetched=f"{rows_fetched}/{rows_total}",
               full_seconds=round(full, 5), sketch_seconds=round(through_sketch, 5),
               speedup=round(full / max(through_sketch, 1e-9), 2))
    print_rows(result, "Ablation: sketch selectivity vs rows read (and query speedup)")
    assert scans == (0, 1)
    assert 0 < rows_fetched < rows_total


def test_ablation_selective_sketch_wins_more(reads_by_band):
    """The share of the table the index scan returns grows with the share of
    the fragments the sketch covers."""
    (_, _, narrow_covered, _, narrow_fetched, narrow_total) = reads_by_band[(800, 900)]
    (_, _, wide_covered, _, wide_fetched, wide_total) = reads_by_band[(200, 1800)]
    assert narrow_covered < wide_covered
    assert narrow_fetched / narrow_total < wide_fetched / wide_total
