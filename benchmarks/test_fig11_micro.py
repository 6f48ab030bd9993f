"""Figure 11: microbenchmarks with realistic delta sizes (10 - 1000 tuples).

Panels (one test class per panel, parameters scaled down):

* (a) Q_having   -- vary the number of aggregation functions (1, 3, 10);
* (b) Q_groups   -- vary the number of groups (50, 1k, 5k);
* (c) Q_join     -- 1-n joins (vary join fan-out);
* (d) Q_join     -- m-n joins (vary the number of join partners per tuple);
* (e) Q_joinsel  -- vary join selectivity (1%, 5%, 10%);
* (f) Q_sketch   -- vary the number of fragments of the partition (10 - 1000).

Expected shapes, checked on what each system reads (one maintenance round
per point; the seconds are printed, not asserted): in every round IMP absorbs
the delta without recapturing -- a full scan only to build a join side --
while FM rescans every table of the query; the delta tuples IMP's operators
process grow with the delta size while the rows FM reads stay the tables'
size; and for realistic deltas (up to 100 tuples) FM reads more rows than IMP
processes tuples.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.workloads.queries import q_groups, q_having, q_join, q_joinsel, q_sketch

from benchmarks.conftest import build_scenario, measure_maintenance, print_rows

REALISTIC_DELTAS = [10, 100, 1000]


def _run_panel(title: str, sweep: dict) -> ExperimentResult:
    """Maintain IMP and FM across a parameter sweep, one round per delta."""
    result = ExperimentResult(title)
    for label, scenario in sweep.items():
        database = scenario.database
        table_rows = sum(
            database.row_count(table) for table in scenario.incremental.plan.referenced_tables()
        )
        rounds = [measure_maintenance(scenario, delta_size) for delta_size in REALISTIC_DELTAS]
        for measured in rounds:
            result.add(system="imp", variant=label, delta=measured.delta,
                       seconds=round(measured.imp_seconds, 5), tuples=measured.imp_processed)
            result.add(system="fm", variant=label, delta=measured.delta,
                       seconds=round(measured.fm_seconds, 5), tuples=measured.fm_rows)
        processed = [measured.imp_processed for measured in rounds]
        assert processed == sorted(set(processed)), f"IMP's work must grow with the delta ({label})"
        assert all(measured.fm_rows == table_rows for measured in rounds), label
        for measured in rounds:
            if measured.delta <= 100:
                assert measured.read_ratio > 1, (
                    f"FM should read more than IMP processes for {label} delta={measured.delta}"
                )
    print_rows(result, title)
    return result


def _fm_rows_at(result: ExperimentResult, delta: int) -> set:
    return {row["tuples"] for row in result.filter(system="fm", delta=delta).rows}


def test_fig11a_number_of_aggregation_functions():
    sweep = {
        f"{count}-aggs": build_scenario(q_having(count), num_rows=4000, num_groups=200)
        for count in (1, 3, 10)
    }
    _run_panel("Fig. 11a (scaled): Q_having, #aggregation functions", sweep)


def test_fig11b_number_of_groups():
    sweep = {
        f"{groups}-groups": build_scenario(
            q_groups(threshold=900), num_rows=4000, num_groups=groups
        )
        for groups in (50, 1000, 5000)
    }
    result = _run_panel("Fig. 11b (scaled): Q_groups, #groups", sweep)
    # FM reads the whole table whatever the number of groups.
    assert _fm_rows_at(result, 100) == {4000}


def test_fig11c_one_to_n_join():
    sweep = {
        f"1-to-{fanout}": build_scenario(
            q_join(filter_threshold=2000, having_threshold=2000),
            num_rows=3000,
            num_groups=150,
            with_join_helper=True,
            helper_rows=150 * fanout,
        )
        for fanout in (1, 5, 20)
    }
    _run_panel("Fig. 11c (scaled): Q_join 1-n join", sweep)


def test_fig11d_m_to_n_join():
    sweep = {}
    for partners in (2, 10):
        sweep[f"{partners}-to-2k"] = build_scenario(
            q_join(filter_threshold=2000, having_threshold=2000),
            num_rows=1500 * partners,
            num_groups=150,
            with_join_helper=True,
            helper_rows=300,
        )
    _run_panel("Fig. 11d (scaled): Q_join m-n join", sweep)


def test_fig11e_join_selectivity():
    sweep = {
        f"{int(selectivity * 100)}%": build_scenario(
            q_joinsel(filter_threshold=2000, having_threshold=2000),
            num_rows=3000,
            num_groups=150,
            with_join_helper=True,
            join_selectivity=selectivity,
            helper_rows=600,
        )
        for selectivity in (0.01, 0.05, 0.10)
    }
    _run_panel("Fig. 11e (scaled): Q_joinsel join selectivity", sweep)


def test_fig11f_partition_granularity():
    sweep = {
        f"{fragments}-fragments": build_scenario(
            q_sketch(filter_threshold=2000, having_threshold=2000),
            num_rows=3000,
            num_groups=500,
            with_join_helper=True,
            helper_rows=500,
            num_fragments=fragments,
        )
        for fragments in (10, 100, 400)
    }
    result = _run_panel("Fig. 11f (scaled): Q_sketch, #fragments", sweep)
    # FM's cost is evaluating the capture query, so the fragment count does
    # not change what it reads (shape observation from the paper).
    assert _fm_rows_at(result, 100) == {3500}


def test_fig11_imp_runtime_grows_with_delta_size():
    """Cross-panel shape: IMP's work grows with the delta size while FM reads
    the whole table every time -- still more than IMP processes at delta=1000."""
    scenario = build_scenario(q_groups(threshold=900), num_rows=5000, num_groups=1000)
    small, large = (measure_maintenance(scenario, delta_size) for delta_size in (10, 1000))
    result = ExperimentResult("fig11-growth")
    for measured in (small, large):
        result.add(delta=measured.delta, imp_seconds=round(measured.imp_seconds, 5),
                   fm_seconds=round(measured.fm_seconds, 5),
                   imp_tuples=measured.imp_processed, fm_rows=measured.fm_rows)
    print_rows(result, "Fig. 11 (scaled): IMP and FM against the delta size")
    assert large.imp_processed > small.imp_processed, "IMP's work should grow with the delta"
    assert small.fm_rows == large.fm_rows == 5000
    assert large.imp_processed < large.fm_rows, "IMP should still process less than FM reads"
