"""Figure 22 (extension): the vectorized columnar execution engine.

The engine's claim here is purely about constant factors: plan subtrees
built from kernel-covered operators execute column-at-a-time over
:class:`~repro.relational.columnar.ColumnBatch` data (batch-compiled
expression kernels, per-version column caches in the stored tables) instead
of running the row operators per tuple -- while every relation stays
bit-identical to the reference oracle
(``Database.query(..., optimize_plans=False, vectorize=False)``).

Measured on full-scan workloads over a >= 100k row table (no indexes and
single-table plans, so the optimizer has nothing to rewrite and only the
execution differs):

* full-scan selection, projection (with arithmetic), grouped aggregation and
  distinct each answer >= 2x faster (median of >= 3 GC-quiesced repeats via
  ``time_callable``) on the engine than on the reference oracle,
* results are bit-identical for every workload, and ``IMPSystem`` answers
  equal the oracle's after every update batch,
* the measurements are written to the ``BENCH_fig22.json`` artifact.

Set ``BENCH_SMOKE=1`` (the gating CI job does) to shrink the table and skip
the wall-clock comparison; bit-identity, the fallback boundary check and the
JSON artifact always run.
"""

from __future__ import annotations

import functools
import os
import random

from repro.bench.harness import ExperimentResult, time_callable
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database

from benchmarks.conftest import print_rows, save_artifact

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_ROWS = 20_000 if SMOKE else 120_000
NUM_GROUPS = 200
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 2.0

WORKLOADS = [
    ("selection", "SELECT id, a, b, c FROM big WHERE b < 900"),
    ("projection", "SELECT id, a, b * c AS p FROM big"),
    ("aggregation", "SELECT a, sum(b) AS sb, avg(c) AS ac, count(*) AS n FROM big GROUP BY a"),
    ("distinct", "SELECT DISTINCT a FROM big WHERE b < 500"),
    # TopK has no kernel: the subtree below the LIMIT runs vectorized, the
    # LIMIT itself on the row operator (fallback boundary; no speedup claim).
    ("topk-fallback", "SELECT id, b FROM big WHERE b < 200 ORDER BY b, id LIMIT 10"),
]

RESULTS = ExperimentResult("fig22")


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


def test_fig22_vectorized_speedup_and_bit_identity(benchmark):
    database = Database()
    load_big(database)
    plans = {name: database.plan(sql) for name, sql in WORKLOADS}
    systems = (
        ("engine", database.query),
        ("reference", functools.partial(reference_query, database)),
    )

    def run_all():
        for name, _sql in WORKLOADS:
            plan = plans[name]
            assert database.query(plan) == reference_query(database, plan), name
        for name, _sql in WORKLOADS:
            for system, run in systems:
                seconds = time_callable(
                    lambda: run(plans[name]), repeats=REPEATS, warmup=1
                )
                RESULTS.add(workload=name, system=system, rows=NUM_ROWS, seconds=seconds)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_rows(RESULTS, "Fig. 22: engine vs reference oracle (median seconds)")
    save_artifact(RESULTS, "fig22")
    if SMOKE:
        return
    for name, _sql in WORKLOADS:
        if name == "topk-fallback":
            continue
        fast = float(RESULTS.value("seconds", workload=name, system="engine"))
        slow = float(RESULTS.value("seconds", workload=name, system="reference"))
        ratio = slow / max(fast, 1e-12)
        assert ratio >= MIN_SPEEDUP, (
            f"engine expected >= {MIN_SPEEDUP}x on {name}, measured {ratio:.2f}x "
            f"({fast:.4f}s vs {slow:.4f}s)"
        )


def test_fig22_imp_answers_match_the_reference_oracle():
    """IMP answers every query exactly as the reference oracle does, after
    every update batch (capture and incremental maintenance are row-based
    annotated semantics; only the final evaluation is vectorized)."""
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
