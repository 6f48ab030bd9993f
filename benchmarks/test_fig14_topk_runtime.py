"""Figure 14: top-k maintenance under different deletion strategies.

The paper deletes data from under a top-10 query while varying (i) how many of
the best tuples are buffered in the top-k operator state (20 / 50 / 100) and
(ii) the deletion strategy: always delete the minimal groups, delete uniformly
at random, or mix the two at R-M ratios 2:1 and 4:1.  Observations reproduced
here: larger buffers and more random deletions both reduce how often the
sketch has to be fully recaptured, and the total runtime follows the recapture
count.  The recapture counts are asserted, and every setting's maintained
sketch must end equal to a fresh capture; the seconds are printed.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.engine import IMPConfig, capture_sketch
from repro.imp.maintenance import IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_topk
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

NUM_ROWS = 3000
NUM_GROUPS = 300
UPDATES = 25
DELETE_PER_UPDATE = 10
BUFFERS = [20, 50, 100]
STRATEGIES = ["min-groups", "ratio-2:1", "ratio-4:1", "random"]


def _build(buffer_size: int):
    database = Database()
    table = load_synthetic(database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=31)
    sql = q_topk(k=10)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 50)
    maintainer = IncrementalMaintainer(
        database, plan, partition, IMPConfig(topk_buffer=buffer_size, min_max_buffer=buffer_size)
    )
    maintainer.capture()
    return database, table, maintainer


def _delete_batch(table, strategy: str, step: int):
    if strategy == "min-groups":
        return table.pick_deletes_from_smallest_groups(2)
    if strategy == "random":
        return table.pick_deletes(DELETE_PER_UPDATE)
    ratio = 2 if strategy == "ratio-2:1" else 4
    if step % (ratio + 1) < ratio:
        return table.pick_deletes(DELETE_PER_UPDATE)
    return table.pick_deletes_from_smallest_groups(2)


def run_strategy(buffer_size: int, strategy: str) -> tuple[float, int, bool]:
    """Total maintenance seconds, the number of full recaptures, and whether
    the maintained sketch ends equal to a fresh capture, for one setting."""
    database, table, maintainer = _build(buffer_size)
    recaptures = 0
    total_seconds = 0.0
    for step in range(UPDATES):
        victims = _delete_batch(table, strategy, step)
        if not victims:
            break
        database.delete_rows("r", victims)
        started = time.perf_counter()
        result = maintainer.maintain()
        total_seconds += time.perf_counter() - started
        if result.recaptured:
            recaptures += 1
    fresh = capture_sketch(maintainer.plan, maintainer.partition, database)
    return total_seconds, recaptures, maintainer.sketch == fresh


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every (strategy, buffer) setting, run once."""
    return {
        (strategy, buffer_size): run_strategy(buffer_size, strategy)
        for strategy in STRATEGIES
        for buffer_size in BUFFERS
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("buffer_size", BUFFERS)
def test_fig14_topk_deletion_strategies(runs, strategy, buffer_size):
    total_seconds, recaptures, matches_fresh = runs[(strategy, buffer_size)]
    result = ExperimentResult("fig14")
    result.add(strategy=strategy, buffer=buffer_size, seconds=round(total_seconds, 5),
               recaptures=recaptures)
    print_rows(result, f"Fig. 14 (scaled): top-k, {strategy}, buffer={buffer_size}")
    assert recaptures <= UPDATES
    assert matches_fresh, "the maintained top-k sketch must equal a fresh capture"


def test_fig14_shapes(runs):
    """Larger buffers and more random deletions need fewer recaptures."""
    recaptures = {setting: run[1] for setting, run in runs.items()}
    print(f"\nFig. 14 (scaled): recaptures {recaptures}")
    # (1) With the adversarial min-group strategy, a bigger buffer never needs
    #     more recaptures than a smaller one.
    assert recaptures[("min-groups", 100)] <= recaptures[("min-groups", 20)]
    # (2) Random deletions trigger at most as many recaptures as adversarial ones.
    assert recaptures[("random", 20)] <= recaptures[("min-groups", 20)]
