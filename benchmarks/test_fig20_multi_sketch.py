"""Figure 20 (extension): shared-delta scheduler vs per-sketch maintenance.

Not a figure of the source paper: this benchmark quantifies the
:class:`~repro.imp.scheduler.MaintenanceScheduler` in the middleware's
many-registered-sketches regime.  K sketches over one shared table all go
stale on every update batch.  Maintaining them independently costs K
audit-log delta extractions per batch (each replaying every intermediate
change); a shared-delta round fetches each distinct (table, version-range)
group once, compacts insert/delete churn away, and fans the net delta out to
all K maintainers.

Asserted as counters, per round (the seconds are printed, not asserted):

* audit-log delta fetches -- bounded by distinct groups (1 here), not by K,
  while the per-sketch path pays K;
* annotation passes -- the K sketches share one partition, so a round
  annotates the shared delta once (``RoundReport.annotations``), while the
  per-sketch path annotates it K times;
* aggregation passes -- the engine folds only what the sketch reads, the
  HAVING's ``avg``, and the store shares one aggregation per HAVING
  attribute, so a round at K = 16 folds twice (9 templates filter on
  ``avg(b)``, 7 on ``avg(c)``; ``RoundReport.folds``), while the per-sketch
  path folds 16 times.  When every HAVING attribute differs nothing is
  shared: K folds, and the fetches and annotations stay at one;
* aggregation passes of the captures -- a capture adopts the store's equal
  node built at its version and reads the result from the node's state, so
  the scheduler side folds once per distinct node while the per-sketch side
  folds K times;
* both paths produce identical sketches every round.

(a) prints the per-round maintenance time at K = 16, (b) how it grows with K.

Each round commits churn (later commits delete rows inserted by earlier
commits of the same round), so the raw window delta is several times larger
than its net effect -- the situation delta compaction exists for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import IncrementalAggregation
from repro.imp.scheduler import MaintenanceScheduler
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.sketch.ranges import DatabasePartition
from repro.sketch.selection import build_database_partition
from repro.sql.template import template_of
from repro.storage.database import Database
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

ROUNDS = 5
COMMITS_PER_ROUND = 8
BATCH = 50
NUM_ROWS = 2500
NUM_GROUPS = 100
NUM_FRAGMENTS = 16


def distinct_having_templates(count: int) -> list[str]:
    """``count`` (at most nine) of :func:`multi_sketch_templates`' queries
    whose HAVING attributes all differ: the attribute moves on every nine
    templates, so every ninth one is taken."""
    return multi_sketch_templates(9 * count)[::9]


@contextmanager
def counted_passes():
    """Count the annotation passes (``DatabasePartition.masks_of`` calls) and
    the aggregation passes (``IncrementalAggregation.process`` calls) made
    inside the block."""
    calls = {"annotations": 0, "folds": 0}
    masks_of, process = DatabasePartition.masks_of, IncrementalAggregation.process

    def counted_masks_of(self, table, values):
        calls["annotations"] += 1
        return masks_of(self, table, values)

    def counted_process(self, run):
        calls["folds"] += 1
        return process(self, run)

    DatabasePartition.masks_of = counted_masks_of
    IncrementalAggregation.process = counted_process
    try:
        yield calls
    finally:
        DatabasePartition.masks_of = masks_of
        IncrementalAggregation.process = process


def _make_row(row_id: int) -> tuple:
    return (
        row_id,
        row_id % NUM_GROUPS,
        *[round(((row_id * 11 + k * 17) % 1999) / 7.0, 3) for k in range(9)],
    )


class MultiSketchPair:
    """Two identical databases: K sketches behind a scheduler on one, the same
    K sketches as independent maintainers on the other."""

    def __init__(self, templates: list[str], seed: int = 7) -> None:
        self.num_sketches = len(templates)
        self.scheduler_db = Database()
        self.per_sketch_db = Database()
        for database in (self.scheduler_db, self.per_sketch_db):
            load_synthetic(
                database, name="r", num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=seed
            )
        self.store = SketchStore()
        self.scheduler = MaintenanceScheduler(self.scheduler_db, self.store)
        self.per_sketch: list[IncrementalMaintainer] = []
        with counted_passes() as scheduler_captures:
            for sql in templates:
                plan = self.scheduler_db.plan(sql)
                partition = build_database_partition(self.scheduler_db, plan, NUM_FRAGMENTS)
                maintainer = IncrementalMaintainer(self.scheduler_db, plan, partition)
                entry = SketchEntry(
                    template=template_of(sql), sql=sql, plan=plan,
                    partition=partition, maintainer=maintainer,
                )
                # As the middleware captures: adopt an equal node built at
                # this version first, then capture from its state.
                self.store.intern(entry, self.scheduler_db.version)
                maintainer.capture()
                self.store.put(entry)
        with counted_passes() as per_sketch_captures:
            for sql in templates:
                other_plan = self.per_sketch_db.plan(sql)
                other_partition = build_database_partition(
                    self.per_sketch_db, other_plan, NUM_FRAGMENTS
                )
                other = IncrementalMaintainer(self.per_sketch_db, other_plan, other_partition)
                other.capture()
                self.per_sketch.append(other)
        # Aggregation passes of the captures: one per distinct node, and one
        # per sketch on the per-sketch side.
        self.capture_folds = (scheduler_captures["folds"], per_sketch_captures["folds"])
        self._next_id = 10_000_000

    def apply_churn_round(self) -> None:
        """Commit a chain of insert/delete batches to both databases.

        Commit i inserts a fresh batch and deletes the batch commit i-1
        inserted: the raw audit-log window holds
        ``COMMITS_PER_ROUND * BATCH`` inserts plus almost as many deletes,
        while the net effect is a single batch of ``BATCH`` rows.
        """
        previous: list[tuple] = []
        for _ in range(COMMITS_PER_ROUND):
            batch = [_make_row(self._next_id + i) for i in range(BATCH)]
            self._next_id += BATCH
            for database in (self.scheduler_db, self.per_sketch_db):
                if previous:
                    database.delete_rows("r", previous)
                database.insert("r", batch)
            previous = batch

    def maintain_both(self) -> dict[str, float]:
        """One maintenance pass on each side: its seconds, audit-log
        fetches, annotation passes and aggregation passes."""
        fetches_before = self.scheduler_db.delta_fetch_count
        started = time.perf_counter()
        with counted_passes() as scheduler_passes:
            report = self.scheduler.run_round()
        scheduler_seconds = time.perf_counter() - started
        scheduler_fetches = self.scheduler_db.delta_fetch_count - fetches_before
        assert report.maintained == self.num_sketches
        assert scheduler_fetches <= report.groups, (
            "shared rounds must fetch at most one delta per distinct "
            "(table, version-range) group"
        )
        assert report.annotations == scheduler_passes["annotations"]
        assert report.folds == scheduler_passes["folds"]

        fetches_before = self.per_sketch_db.delta_fetch_count
        started = time.perf_counter()
        with counted_passes() as per_sketch_passes:
            for maintainer in self.per_sketch:
                maintainer.maintain()
        per_sketch_seconds = time.perf_counter() - started
        per_sketch_fetches = self.per_sketch_db.delta_fetch_count - fetches_before

        self.assert_sketches_identical()
        return {
            "scheduler_seconds": scheduler_seconds,
            "per_sketch_seconds": per_sketch_seconds,
            "scheduler_fetches": scheduler_fetches,
            "per_sketch_fetches": per_sketch_fetches,
            "scheduler_annotations": scheduler_passes["annotations"],
            "per_sketch_annotations": per_sketch_passes["annotations"],
            "scheduler_folds": scheduler_passes["folds"],
            "per_sketch_folds": per_sketch_passes["folds"],
        }

    def assert_sketches_identical(self) -> None:
        for index, entry in enumerate(self.store.entries()):
            ours = entry.maintainer.sketch
            theirs = self.per_sketch[index].sketch
            assert ours is not None and theirs is not None
            assert set(ours.fragment_ids()) == set(theirs.fragment_ids()), (
                f"sketch {index} diverged between scheduler and per-sketch paths"
            )


def _run_rounds(pair: MultiSketchPair) -> dict[str, float]:
    """Median seconds and the per-round fetch and annotation counts, which
    must be the same every round."""
    rounds = []
    for _ in range(ROUNDS):
        pair.apply_churn_round()
        rounds.append(pair.maintain_both())
    measured: dict[str, float] = {}
    for key in rounds[0]:
        values = sorted(measured_round[key] for measured_round in rounds)
        if key.endswith("_seconds"):
            measured[key] = values[len(values) // 2]
        else:
            assert values[0] == values[-1], f"{key} varies between rounds: {values}"
            measured[key] = values[0]
    measured["scheduler_capture_folds"], measured["per_sketch_capture_folds"] = pair.capture_folds
    return measured


def _assert_shared(measured: dict[str, float], num_sketches: int, folds: int) -> None:
    """All sketches share one table, go stale at the same version and have
    equal partitions: a round is one fetch, one annotation pass and one
    aggregation pass per distinct HAVING attribute (``folds``), while the
    per-sketch path pays one of each per sketch.  So are the captures: each
    sketch whose aggregation the store already holds, built at the same
    version, adopts it and folds nothing."""
    assert measured["scheduler_capture_folds"] == folds
    assert measured["per_sketch_capture_folds"] == num_sketches
    assert measured["scheduler_fetches"] == 1
    assert measured["per_sketch_fetches"] == num_sketches
    assert measured["scheduler_annotations"] == 1
    assert measured["per_sketch_annotations"] == num_sketches
    assert measured["scheduler_folds"] == folds
    assert measured["per_sketch_folds"] == num_sketches


@pytest.mark.parametrize("num_sketches", [16])
def test_fig20a_scheduler_beats_per_sketch_maintenance(num_sketches):
    """At 16 registered sketches, a shared-delta round fetches and annotates
    the delta once where independent maintenance does it 16 times, and folds
    it into two aggregations where independent maintenance folds 16, with
    identical resulting sketches."""
    measured = _run_rounds(MultiSketchPair(multi_sketch_templates(num_sketches)))
    result = ExperimentResult("fig20a")
    for path in ("scheduler", "per_sketch"):
        result.add(path=path.replace("_", "-"), sketches=num_sketches,
                   fetches_per_round=measured[f"{path}_fetches"],
                   annotations_per_round=measured[f"{path}_annotations"],
                   folds_per_round=measured[f"{path}_folds"],
                   seconds=round(measured[f"{path}_seconds"], 5))
    print_rows(result, "Fig. 20a: maintenance per round, scheduler vs per-sketch")
    _assert_shared(measured, num_sketches, folds=2)


def test_fig20a_distinct_having_attributes_share_nothing_but_the_delta():
    """The multi-tenant case: eight templates whose HAVING attributes all
    differ share no aggregation, so a round folds eight times -- and still
    fetches and annotates the delta once, with identical sketches."""
    measured = _run_rounds(MultiSketchPair(distinct_having_templates(8)))
    result = ExperimentResult("fig20a-distinct")
    for path in ("scheduler", "per_sketch"):
        result.add(path=path.replace("_", "-"), sketches=8,
                   fetches_per_round=measured[f"{path}_fetches"],
                   annotations_per_round=measured[f"{path}_annotations"],
                   folds_per_round=measured[f"{path}_folds"],
                   seconds=round(measured[f"{path}_seconds"], 5))
    print_rows(result, "Fig. 20a: distinct HAVING attributes, scheduler vs per-sketch")
    _assert_shared(measured, 8, folds=8)


def test_fig20b_speedup_grows_with_registered_sketches():
    """The scheduler's advantage widens as more sketches share the delta:
    fetch, compaction and annotation are paid once per round whatever K,
    while the per-sketch path pays them K times."""
    rows = [
        (num_sketches, _run_rounds(MultiSketchPair(multi_sketch_templates(num_sketches))))
        for num_sketches in (4, 16)
    ]
    result = ExperimentResult("fig20b")
    for num_sketches, measured in rows:
        result.add(
            sketches=num_sketches,
            scheduler_seconds=round(measured["scheduler_seconds"], 5),
            per_sketch_seconds=round(measured["per_sketch_seconds"], 5),
            speedup=round(
                measured["per_sketch_seconds"] / max(measured["scheduler_seconds"], 1e-9), 2
            ),
        )
    print_rows(result, "Fig. 20b: scheduler speedup as registered sketches grow")
    for num_sketches, measured in rows:
        _assert_shared(measured, num_sketches, folds=1 if num_sketches <= 9 else 2)
