"""Figure 21 (extension): the cost-based plan optimizer on a mixed workload.

The optimizer's claim is operational, not semantic: user predicates are
pushed through projections and joins down to the scans, merged with the
use-rewrite's sketch disjunctions and served from ordered indexes, and join
clusters are re-ordered smallest-first -- while every query result stays
bit-identical to the reference oracle
(``Database.query(..., optimize_plans=False, vectorize=False)``: the literal
plan shape on the row-at-a-time operators).

Measured on a mixed query/update workload whose queries deliberately defeat
the literal plans' index path (WHERE above an explicit JOIN, three-way join
with a selective filter, sketch queries with extra user predicates).  Three
systems run it, each on its own copy of the data: the oracle, the engine
without sketches (``NoSketchSystem`` -- the like-for-like comparison, only
plan shape and execution differ) and ``IMPSystem`` (reported, and checked for
identical answers; its capture and maintenance reads make its counters a
different quantity):

* the engine reads fewer whole tables (``Database.scan_count``) and serves
  more selections from the index (``Database.index_scan_count``) than the
  oracle,
* lower median query latency over >= 3 repeats,
* identical relations, operation by operation, from all three.

Set ``BENCH_SMOKE=1`` (the CI smoke job does) to run a single repeat and skip
the wall-clock comparison; the deterministic counter and bit-identity
assertions always run.  All table values are integers so aggregate sums are
exact and insensitive to the different row orders the two plan shapes produce.
"""

from __future__ import annotations

import os
import random
import time

from repro.bench.harness import ExperimentResult
from repro.imp.middleware import IMPSystem, NoSketchSystem
from repro.storage.database import Database

from benchmarks.conftest import median_rounds, print_rows, save_artifact

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_ROWS = 4000
NUM_GROUPS = 150
NUM_OPERATIONS = 24
REPEATS = 1 if SMOKE else 3

QUERIES = [
    # WHERE above an explicit JOIN: the translator leaves the selection above
    # the join, so without the optimizer the scan of r cannot use its index.
    "SELECT r.id, w FROM r JOIN h ON (a = ttid) WHERE r.b BETWEEN 100 AND 160",
    # Three-way join with a selective filter: reordering starts from the tiny
    # dimension table and the pushed filter reads r through the index.
    "SELECT r.id, w, grp FROM r, h, dim WHERE a = ttid AND ttid = grp AND r.b < 150",
    # Sketch queries: the use rewrite injects its BETWEEN disjunction at the
    # scan; the optimizer merges the user predicate into the same selection.
    "SELECT a, avg(b) AS ab FROM r WHERE c BETWEEN 200 AND 450 GROUP BY a "
    "HAVING avg(c) < 1500",
    "SELECT a, avg(c) AS ac FROM r GROUP BY a HAVING avg(c) > 200 AND avg(c) < 1500",
]

RESULTS = ExperimentResult("fig21")


def load_tables(database: Database, seed: int = 17) -> list[tuple]:
    rng = random.Random(seed)
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    rows = [
        (i, rng.randrange(NUM_GROUPS), rng.randrange(2000), rng.randrange(2000))
        for i in range(NUM_ROWS)
    ]
    database.insert("r", rows)
    database.create_table("h", ["hid", "ttid", "w"], primary_key="hid")
    database.insert(
        "h", [(i, rng.randrange(NUM_GROUPS), rng.randrange(1000)) for i in range(800)]
    )
    database.create_table("dim", ["did", "grp"], primary_key="did")
    database.insert("dim", [(i, i % NUM_GROUPS) for i in range(NUM_GROUPS)])
    database.create_index("r", "b")
    return rows


def materialise_operations(seed: int = 29):
    """A deterministic interleaving of queries and r-updates."""
    rng = random.Random(seed)
    operations = []
    next_id = NUM_ROWS
    for step in range(NUM_OPERATIONS):
        operations.append(("query", QUERIES[step % len(QUERIES)]))
        if step % 3 == 2:
            inserts = [
                (
                    next_id + i,
                    rng.randrange(NUM_GROUPS),
                    rng.randrange(2000),
                    rng.randrange(2000),
                )
                for i in range(5)
            ]
            next_id += len(inserts)
            operations.append(("update", inserts))
    return operations


class ReferenceSystem:
    """Answers every query with the reference oracle, behind the workload API
    of the middleware systems so one driver runs all three."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def run_query(self, sql: str):
        return self.database.query(sql, optimize_plans=False, vectorize=False)

    def apply_update(self, table: str, inserts) -> None:
        self.database.insert(table, inserts)


SYSTEMS = {
    "reference": ReferenceSystem,
    "engine": NoSketchSystem,
    "imp": lambda database: IMPSystem(database, num_fragments=32),
}


def run_workload(setting: str, operations) -> tuple[list, float, Database]:
    """Query results, total query seconds and the database (for its scan
    counters) of one system run over a fresh copy of the data."""
    database = Database()
    load_tables(database)
    system = SYSTEMS[setting](database)
    results = []
    seconds = 0.0
    for kind, payload in operations:
        if kind == "query":
            started = time.perf_counter()
            results.append(system.run_query(payload))
            seconds += time.perf_counter() - started
        else:
            system.apply_update("r", inserts=payload)
    return results, seconds, database


def test_fig21_optimizer_counters_and_bit_identity(benchmark):
    """Deterministic core: the engine does fewer full scans, routes more
    selections through indexes, and changes no result."""
    operations = materialise_operations()

    def run_all():
        return {setting: run_workload(setting, operations) for setting in SYSTEMS}

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Bit-identical query results, operation by operation.
    reference_results = runs["reference"][0]
    assert len(reference_results) == NUM_OPERATIONS
    for setting in ("engine", "imp"):
        for got, expected in zip(runs[setting][0], reference_results, strict=True):
            assert got == expected, setting

    for setting, (_results, _seconds, database) in runs.items():
        RESULTS.add(
            setting=setting,
            full_scans=database.scan_count,
            index_scans=database.index_scan_count,
        )
    print_rows(RESULTS, "Fig. 21: backend scans, engine and IMP vs reference oracle")
    save_artifact(RESULTS, "fig21")

    # The optimizer cuts index-scan misses: fewer full scans, more index scans.
    engine_db, reference_db = runs["engine"][2], runs["reference"][2]
    assert engine_db.scan_count < reference_db.scan_count
    assert engine_db.index_scan_count > reference_db.index_scan_count


def test_fig21_optimizer_median_latency(benchmark):
    """Shape check: the engine answers the mixed workload's queries faster
    than the oracle (median of >= 3 repeats; skipped under BENCH_SMOKE, where
    a single repeat only proves the workload still runs end to end)."""
    operations = materialise_operations()

    def one_round():
        return tuple(run_workload(setting, operations)[1] for setting in SYSTEMS)

    def run_rounds():
        return median_rounds(one_round, repeats=REPEATS)

    medians = dict(zip(SYSTEMS, benchmark.pedantic(run_rounds, rounds=1, iterations=1)))
    local = ExperimentResult("fig21-latency")
    for setting, seconds in medians.items():
        local.add(setting=setting, seconds=round(seconds, 4))
    print_rows(local, "Fig. 21: query seconds for the mixed workload")
    if not SMOKE:
        assert medians["engine"] < medians["reference"], (
            f"the engine should answer queries faster than the oracle "
            f"({medians['engine']:.4f}s vs {medians['reference']:.4f}s)"
        )
