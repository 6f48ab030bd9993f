"""Figure 17: memory usage of aggregation and join maintenance state.

The paper reports the memory consumed while maintaining Q_groups (pure
group-by aggregation) and Q_joinsel (aggregation over a join): for a fixed
number of groups the state size is stable and overall consumption grows with
the delta size being processed (and with the number of groups).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult
from repro.workloads.queries import q_groups, q_joinsel

from benchmarks.conftest import build_scenario, print_rows


GROUPS = [100, 1000]
DELTAS = [50, 500]


@pytest.fixture(scope="module")
def group_traces() -> dict:
    """Q_groups state memory after capture and after each of three
    maintenance rounds, per group count."""
    traces = {}
    for num_groups in GROUPS:
        scenario = build_scenario(
            q_groups(threshold=900), num_rows=4000, num_groups=num_groups
        )
        before = scenario.incremental.memory_bytes()
        trace = []
        for _ in range(3):
            deletes = scenario.table_handle.pick_deletes(50)
            inserts = scenario.table_handle.make_inserts(50)
            scenario.apply_update(inserts, deletes)
            scenario.incremental.maintain()
            trace.append(scenario.incremental.memory_bytes())
        traces[num_groups] = (before, trace)
    return traces


@pytest.fixture(scope="module")
def join_runs() -> dict:
    """Q_joinsel state memory and tuples processed after one delta, per size."""
    runs = {}
    for delta_size in DELTAS:
        scenario = build_scenario(
            q_joinsel(filter_threshold=2000, having_threshold=2000),
            num_rows=3000,
            num_groups=200,
            with_join_helper=True,
            join_selectivity=0.05,
            helper_rows=500,
        )
        deletes = scenario.table_handle.pick_deletes(delta_size // 2)
        inserts = scenario.table_handle.make_inserts(delta_size - len(deletes))
        scenario.apply_update(inserts, deletes)
        scenario.incremental.maintain()
        processed = scenario.incremental.statistics.tuples_processed
        runs[delta_size] = (scenario.incremental.memory_bytes(), processed)
    return runs


@pytest.mark.parametrize("num_groups", GROUPS)
def test_fig17a_qgroups_state_memory(group_traces, num_groups):
    """Aggregation state memory grows with the number of groups and stays
    stable across maintenance rounds for a fixed group count."""
    before, trace = group_traces[num_groups]
    result = ExperimentResult("fig17a")
    result.add(groups=num_groups, stage="after-capture", memory_bytes=before)
    for step, memory in enumerate(trace):
        result.add(groups=num_groups, stage=f"after-maintenance-{step}", memory_bytes=memory)
    print_rows(result, f"Fig. 17a (scaled): Q_groups state memory, {num_groups} groups")
    assert before > 0
    # Stable: state memory stays within 2x of the post-capture footprint.
    assert max(trace) < before * 2


def test_fig17a_memory_grows_with_groups(group_traces):
    assert group_traces[1000][0] > group_traces[100][0]


@pytest.mark.parametrize("delta_size", DELTAS)
def test_fig17b_qjoinsel_memory_grows_with_delta(join_runs, delta_size):
    """Join maintenance memory (state + delta being processed) grows with the
    delta size, mirroring Fig. 17b."""
    memory, processed = join_runs[delta_size]
    result = ExperimentResult("fig17b")
    result.add(delta=delta_size, memory_bytes=memory, tuples_processed=processed)
    print_rows(result, f"Fig. 17b (scaled): Q_joinsel memory, delta={delta_size}")
    assert memory > 0


def test_fig17b_work_grows_with_delta(join_runs):
    assert join_runs[500][1] > join_runs[50][1]
