"""Figure 22 (extension): the columnar batch engine.

The engine's claim here is purely about constant factors: every plan node
executes column-at-a-time over
:class:`~repro.relational.columnar.ColumnBatch` data (batch-compiled
expression kernels, per-version column caches in the stored tables) instead
of per tuple -- while every relation stays bit-identical to the row oracle
(``Database.query(..., optimize_plans=False, vectorize=False)``).

Run on full-scan workloads over a 20k-row table (no indexes and
single-table plans, so the optimizer has nothing to rewrite and only the
execution differs).  What is *asserted* is what the engine did, so a faster
oracle cannot fail it:

* results are bit-identical for every workload, and ``IMPSystem`` answers
  equal the oracle's after every update batch,
* full-scan selection, projection (with arithmetic), grouped aggregation,
  distinct and top-k each read the table through exactly one ``column_batch``
  call and never through the oracle's ``relation`` scan, and every scan of
  the one version is served the *same* batch object (no re-pivot),
* the oracle reads it through ``relation`` only.

What is *reported* (``BENCH_fig22.json``, never asserted): the seconds of
one run per workload and system, and the reference / engine ratio.
"""

from __future__ import annotations

import functools
import random
import time

from repro.bench.harness import ExperimentResult
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database

from benchmarks.conftest import print_rows, save_artifact

NUM_ROWS = 20_000
NUM_GROUPS = 200

WORKLOADS = [
    ("selection", "SELECT id, a, b, c FROM big WHERE b < 900"),
    ("projection", "SELECT id, a, b * c AS p FROM big"),
    ("aggregation", "SELECT a, sum(b) AS sb, avg(c) AS ac, count(*) AS n FROM big GROUP BY a"),
    ("distinct", "SELECT DISTINCT a FROM big WHERE b < 500"),
    ("topk", "SELECT id, b FROM big WHERE b < 200 ORDER BY b, id LIMIT 10"),
]

def load_big(database: Database, seed: int = 7) -> None:
    rng = random.Random(seed)
    database.create_table("big", ["id", "a", "b", "c"], primary_key="id")
    database.insert(
        "big",
        [
            (i, rng.randrange(NUM_GROUPS), rng.randrange(2000), rng.uniform(0, 1000))
            for i in range(NUM_ROWS)
        ],
    )


def reference_query(database: Database, query):
    """The reference oracle: literal plan shape, row-at-a-time operators."""
    return database.query(query, optimize_plans=False, vectorize=False)


def spy_on_scans(database: Database) -> list[tuple[str, object]]:
    """Record every whole-table read as ``(method, batch served or None)``."""
    calls: list[tuple[str, object]] = []
    relation, column_batch = database.relation, database.column_batch

    def spy_relation(table):
        calls.append(("relation", None))
        return relation(table)

    def spy_column_batch(table):
        batch = column_batch(table)
        calls.append(("column_batch", batch))
        return batch

    database.relation, database.column_batch = spy_relation, spy_column_batch
    return calls


def test_fig22_vectorized_speedup_and_bit_identity():
    database = Database()
    load_big(database)
    plans = {name: database.plan(sql) for name, sql in WORKLOADS}
    systems = (
        ("engine", database.query),
        ("reference", functools.partial(reference_query, database)),
    )

    # What the engine did: one shared batch, no row scan of the table.
    calls = spy_on_scans(database)
    batches = []
    for name, _sql in WORKLOADS:
        plan = plans[name]
        scans = database.scan_count
        answer = database.query(plan)
        engine_calls = list(calls)
        calls.clear()
        assert answer == reference_query(database, plan), name
        assert [method for method, _batch in engine_calls] == ["column_batch"], name
        assert database.scan_count == scans + 2, name  # one scan per system
        batches.append(engine_calls[0][1])
        assert [method for method, _batch in calls] == ["relation"], name
        calls.clear()
    assert all(batch is batches[0] for batch in batches)
    del database.relation, database.column_batch  # time the unwrapped methods

    result = ExperimentResult("fig22")
    for name, _sql in WORKLOADS:
        seconds = {}
        for system, run in systems:
            started = time.perf_counter()
            run(plans[name])
            seconds[system] = time.perf_counter() - started
        for system, _run in systems:
            result.add(
                workload=name,
                system=system,
                rows=NUM_ROWS,
                seconds=seconds[system],
                reference_over_this=seconds["reference"] / max(seconds[system], 1e-12),
            )
    print_rows(result, "Fig. 22: engine vs reference oracle (seconds of one run)")
    save_artifact(result, "fig22")


def test_fig22_imp_answers_match_the_reference_oracle():
    """IMP answers every query exactly as the reference oracle does, after
    every update batch."""
    rng = random.Random(13)
    queries = [
        "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 1500",
        "SELECT a, sum(c) AS sc FROM r WHERE b BETWEEN 200 AND 1500 GROUP BY a",
    ]
    data_rng = random.Random(17)
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    database.insert(
        "r",
        [
            (i, data_rng.randrange(150), data_rng.randrange(2000), data_rng.randrange(2000))
            for i in range(4000)
        ],
    )
    system = IMPSystem(database, num_fragments=32)
    next_id = 10_000
    for step in range(8):
        sql = queries[step % len(queries)]
        assert system.run_query(sql) == reference_query(database, sql), sql
        inserts = [
            (next_id + i, rng.randrange(150), rng.randrange(2000), rng.randrange(2000))
            for i in range(5)
        ]
        next_id += len(inserts)
        system.apply_update("r", inserts=inserts)
    assert system.statistics.sketch_hits == 8
