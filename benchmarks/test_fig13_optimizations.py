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

from benchmarks.conftest import median_rounds, print_rows


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
def test_fig13a_selection_pushdown(benchmark, matching_fraction):
    """Push-down filters the delta tuples that fail the WHERE clause before
    any operator sees them, so the work left grows with the matching fraction.

    Asserted on the engine's own counters (deterministic); the seconds go to
    the printed table only.
    """
    delta_size = 100
    matching = int(delta_size * matching_fraction)

    def run():
        scenarios = {pushdown: _selpd_scenario(pushdown) for pushdown in (True, False)}
        padding = (0.0,) * 7  # attributes d..j of the synthetic schema
        next_id = 1_000_000
        counts: dict[bool, list[tuple[int, int]]] = {True: [], False: []}

        def one_round() -> tuple[float, float]:
            nonlocal next_id
            rows = []
            for i in range(delta_size):
                # b below the WHERE threshold for "matching" rows, above otherwise.
                b_value = 500 if i < matching else 5000
                rows.append((next_id + i, i % 200, b_value, (i % 200) * 10.0) + padding)
            next_id += delta_size
            seconds = []
            for pushdown in (True, False):
                database, _table, maintainer = scenarios[pushdown]
                database.insert("r", rows)
                before = maintainer.statistics
                filtered, processed = before.delta_tuples_filtered, before.tuples_processed
                started = time.perf_counter()
                maintainer.maintain()
                seconds.append(time.perf_counter() - started)
                after = maintainer.statistics
                counts[pushdown].append(
                    (after.delta_tuples_filtered - filtered, after.tuples_processed - processed)
                )
            return tuple(seconds)

        # Interleaved rounds on two warm scenarios; the medians are reported.
        with_pushdown, without = median_rounds(one_round, repeats=15)
        return {True: with_pushdown, False: without}, counts

    timings, counts = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ExperimentResult("fig13a")
    for pushdown, name in ((True, "pushdown"), (False, "no-pushdown")):
        filtered, processed = counts[pushdown][-1]
        result.add(optimization=name, fraction=matching_fraction,
                   seconds=round(timings[pushdown], 5), filtered=filtered,
                   processed=processed)
    print_rows(result, f"Fig. 13a/c (scaled): delta filter, matching={matching_fraction}")
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
def test_fig13b_bloom_filter_join_pruning(benchmark, join_selectivity, delta_size):
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

    def run():
        scenarios = {use_bloom: build(use_bloom) for use_bloom in (True, False)}
        rounds: list[dict[bool, tuple[int, int]]] = []

        def one_round() -> tuple[float, float]:
            seconds = []
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
                seconds.append(time.perf_counter() - started)
                outcome[use_bloom] = (
                    maintainer.statistics.tuples_processed - processed,
                    maintainer.sketch.mask,
                )
            rounds.append(outcome)
            return tuple(seconds)

        # Interleaved rounds on two warm scenarios (see fig13a).
        timings = dict(zip(scenarios, median_rounds(one_round, repeats=9)))
        for use_bloom, (_database, _table, maintainer) in scenarios.items():
            timings[f"stats_{use_bloom}"] = maintainer.statistics.bloom_filtered_tuples
            timings[f"builds_{use_bloom}"] = maintainer.statistics.backend_round_trips
        return timings, rounds

    timings, rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ExperimentResult("fig13b")
    result.add(optimization="bloom", selectivity=join_selectivity, delta=delta_size,
               seconds=round(timings[True], 5), pruned=timings["stats_True"],
               side_builds=timings["builds_True"])
    result.add(optimization="no-bloom", selectivity=join_selectivity, delta=delta_size,
               seconds=round(timings[False], 5), pruned=timings["stats_False"],
               side_builds=timings["builds_False"])
    print_rows(
        result,
        f"Fig. 13b/d (scaled): bloom filter, selectivity={join_selectivity}, delta={delta_size}",
    )
    if join_selectivity <= 0.01:
        # Low selectivity: most delta tuples have no partner, pruning is large.
        assert timings["stats_True"] > 0
    # Only r changes, so only the helper side is ever needed: without filters
    # it is built by the first delta, with them at most once, when a delta
    # tuple first gets past the filter -- and nothing is pruned without them.
    assert timings["builds_True"] <= timings["builds_False"] == 1
    assert timings["stats_False"] == 0
    # The filter never costs work: both scenarios replay the same update
    # stream (the tables are seeded alike), so in every round the variant with
    # filters processes at most the tuples the one without does, and both
    # maintain the same sketch.  The seconds are printed, not asserted.
    for outcome in rounds:
        (processed, mask), (unpruned, unpruned_mask) = outcome[True], outcome[False]
        assert processed <= unpruned
        assert mask == unpruned_mask


@pytest.mark.parametrize("buffer_size", [10, 50, None])
def test_fig13e_topk_state_memory(benchmark, buffer_size):
    """Q_space (TPC-H Q10): memory of the top-k state shrinks with the buffer."""

    def run():
        database = Database()
        load_tpch(database, scale=0.06, seed=7)
        sql = q_space(k=5)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 32)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(topk_buffer=buffer_size)
        )
        maintainer.capture()
        return maintainer.memory_bytes()

    memory = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ExperimentResult("fig13e")
    result.add(buffer=buffer_size if buffer_size is not None else "all",
               memory_bytes=memory)
    print_rows(result, "Fig. 13e/f (scaled): Q_space state memory vs top-l buffer")
    assert memory > 0
    # Stash for the cross-parameter assertion below.
    _MEMORY_BY_BUFFER[buffer_size] = memory


_MEMORY_BY_BUFFER: dict = {}


def test_fig13f_memory_shrinks_with_buffer(benchmark):
    """Smaller top-l buffers use less memory (paper's space-optimization insight)."""

    def check():
        return dict(_MEMORY_BY_BUFFER)

    memory = benchmark.pedantic(check, rounds=1, iterations=1)
    if 10 in memory and None in memory:
        assert memory[10] <= memory[None]
