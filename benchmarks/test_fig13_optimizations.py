"""Figure 13: effectiveness of IMP's optimizations.

* (a, c) delta selection push-down: pre-filter deltas with the query's WHERE
  condition; cost grows with the fraction of the delta that satisfies the
  condition and beats the unfiltered variant whenever the condition is
  selective.
* (b, d) Bloom-filter join pruning: filter join deltas that have no partner.
  A filter works for its side only until a delta tuple gets past it: the join
  then evaluates the side once and keeps it as a key index, which answers
  exactly.  What the filter saves is that build (never paid when every delta
  tuple is pruned) and the probes before it.
* (e, f) top-l state buffers for Q_space (TPC-H Q10): memory shrinks as fewer
  tuples are kept in the top-k operator state.

Asserted on the engine's counters (delta tuples filtered and processed,
Bloom-pruned tuples, side builds) and the state's estimated bytes, round by
round; the seconds summed over the rounds are printed.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_joinsel, q_selpd, q_space
from repro.workloads.synthetic import load_join_helper, load_synthetic
from repro.workloads.tpch import load_tpch

from benchmarks.conftest import print_rows

ROUNDS = 9


def _selpd_scenario(pushdown: bool):
    database = Database()
    table = load_synthetic(database, num_rows=4000, num_groups=200, seed=3)
    sql = q_selpd(where_threshold=1000, having_threshold=1200)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 64)
    maintainer = IncrementalMaintainer(
        database, plan, partition, IMPConfig(selection_pushdown=pushdown)
    )
    maintainer.capture()
    return database, table, maintainer


@pytest.mark.parametrize("matching_fraction", [0.02, 0.5, 1.0])
def test_fig13a_selection_pushdown(matching_fraction):
    """Push-down filters the delta tuples that fail the WHERE clause before
    any operator sees them, so the work left grows with the matching fraction.

    Asserted on the engine's own counters (deterministic); the seconds go to
    the printed table only.
    """
    delta_size = 100
    matching = int(delta_size * matching_fraction)

    scenarios = {pushdown: _selpd_scenario(pushdown) for pushdown in (True, False)}
    padding = (0.0,) * 7  # attributes d..j of the synthetic schema
    seconds = {True: 0.0, False: 0.0}
    counts: dict[bool, list[tuple[int, int]]] = {True: [], False: []}
    for round_number in range(ROUNDS):
        next_id = 1_000_000 + round_number * delta_size
        # b below the WHERE threshold for "matching" rows, above otherwise.
        rows = [
            (next_id + i, i % 200, 500 if i < matching else 5000, (i % 200) * 10.0) + padding
            for i in range(delta_size)
        ]
        for pushdown in (True, False):
            database, _table, maintainer = scenarios[pushdown]
            database.insert("r", rows)
            before = maintainer.statistics
            filtered, processed = before.delta_tuples_filtered, before.tuples_processed
            started = time.perf_counter()
            maintainer.maintain()
            seconds[pushdown] += time.perf_counter() - started
            after = maintainer.statistics
            counts[pushdown].append(
                (after.delta_tuples_filtered - filtered, after.tuples_processed - processed)
            )

    result = ExperimentResult("fig13a")
    for pushdown, name in ((True, "pushdown"), (False, "no-pushdown")):
        filtered, processed = counts[pushdown][-1]
        result.add(optimization=name, fraction=matching_fraction,
                   seconds=round(seconds[pushdown], 5), filtered=filtered,
                   processed=processed)
    print_rows(result, f"Fig. 13a/c (scaled): delta filter, matching={matching_fraction}, "
                       f"{ROUNDS} rounds")
    # Every round: push-down drops exactly the non-matching delta tuples, the
    # variant without it drops none, and the operators above process less
    # whenever the condition is selective at all.
    for (filtered, processed), (unfiltered, unpruned) in zip(counts[True], counts[False]):
        assert filtered == delta_size - matching
        assert unfiltered == 0
        assert processed <= unpruned
        if matching < delta_size:
            assert processed < unpruned


@pytest.mark.parametrize("join_selectivity", [0.01, 0.5])
@pytest.mark.parametrize("delta_size", [50, 500])
def test_fig13b_bloom_filter_join_pruning(join_selectivity, delta_size):
    """Bloom filters prune until their side is built, and never hurt after."""

    def build(use_bloom: bool):
        database = Database()
        table = load_synthetic(database, num_rows=3000, num_groups=200, seed=5)
        load_join_helper(
            database,
            num_rows=600,
            join_selectivity=join_selectivity,
            join_domain=200,
            seed=6,
        )
        sql = q_joinsel(filter_threshold=5000, having_threshold=5000)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 32)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(use_bloom_filters=use_bloom)
        )
        maintainer.capture()
        return database, table, maintainer

    scenarios = {use_bloom: build(use_bloom) for use_bloom in (True, False)}
    seconds = {True: 0.0, False: 0.0}
    rounds: list[dict[bool, tuple[int, int]]] = []
    for _ in range(ROUNDS):
        outcome = {}
        for use_bloom, (database, table, maintainer) in scenarios.items():
            deletes = table.pick_deletes(delta_size // 2)
            inserts = table.make_inserts(delta_size - len(deletes))
            if deletes:
                database.delete_rows("r", deletes)
            database.insert("r", inserts)
            processed = maintainer.statistics.tuples_processed
            started = time.perf_counter()
            maintainer.maintain()
            seconds[use_bloom] += time.perf_counter() - started
            outcome[use_bloom] = (
                maintainer.statistics.tuples_processed - processed,
                maintainer.sketch.mask,
            )
        rounds.append(outcome)
    pruned = {key: scenarios[key][2].statistics.bloom_filtered_tuples for key in scenarios}
    builds = {key: scenarios[key][2].statistics.backend_round_trips for key in scenarios}

    result = ExperimentResult("fig13b")
    for use_bloom, name in ((True, "bloom"), (False, "no-bloom")):
        result.add(optimization=name, selectivity=join_selectivity, delta=delta_size,
                   seconds=round(seconds[use_bloom], 5), pruned=pruned[use_bloom],
                   side_builds=builds[use_bloom])
    print_rows(
        result,
        f"Fig. 13b/d (scaled): bloom filter, selectivity={join_selectivity}, "
        f"delta={delta_size}, {ROUNDS} rounds",
    )
    if join_selectivity <= 0.01:
        # Low selectivity: most delta tuples have no partner, pruning is large.
        assert pruned[True] > 0
    # Only r changes, so only the helper side is ever needed: without filters
    # it is built by the first delta, with them at most once, when a delta
    # tuple first gets past the filter -- and nothing is pruned without them.
    assert builds[True] <= builds[False] == 1
    assert pruned[False] == 0
    # The filter never costs work: both scenarios replay the same update
    # stream (the tables are seeded alike), so in every round the variant with
    # filters processes at most the tuples the one without does, and both
    # maintain the same sketch.  The seconds are printed, not asserted.
    for outcome in rounds:
        (processed, mask), (unpruned, unpruned_mask) = outcome[True], outcome[False]
        assert processed <= unpruned
        assert mask == unpruned_mask


BUFFERS = [10, 50, None]


@pytest.fixture(scope="module")
def memory_by_buffer() -> dict:
    """Q_space (TPC-H Q10) state memory after capture, per top-l buffer."""
    memory = {}
    for buffer_size in BUFFERS:
        database = Database()
        load_tpch(database, scale=0.06, seed=7)
        plan = database.plan(q_space(k=5))
        partition = build_database_partition(database, plan, 32)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(topk_buffer=buffer_size)
        )
        maintainer.capture()
        memory[buffer_size] = maintainer.memory_bytes()
    return memory


@pytest.mark.parametrize("buffer_size", BUFFERS)
def test_fig13e_topk_state_memory(memory_by_buffer, buffer_size):
    """Q_space (TPC-H Q10): memory of the top-k state shrinks with the buffer."""
    memory = memory_by_buffer[buffer_size]
    result = ExperimentResult("fig13e")
    result.add(buffer=buffer_size if buffer_size is not None else "all",
               memory_bytes=memory)
    print_rows(result, "Fig. 13e/f (scaled): Q_space state memory vs top-l buffer")
    assert memory > 0


def test_fig13f_memory_shrinks_with_buffer(memory_by_buffer):
    """Smaller top-l buffers use less memory (paper's space-optimization insight)."""
    assert memory_by_buffer[10] <= memory_by_buffer[50] <= memory_by_buffer[None]
