"""Figure 12: break-even analysis -- where full maintenance starts to win.

The paper sweeps the delta size up to a significant fraction of the table and
finds the break-even point (FM faster than IMP) at deltas of roughly 3.5% - 5.5%
of the database for single-table aggregation queries, and lower for joins
because join deltas require a backend round trip.

Scaled down: the sweep covers 0.25% to 50% of a 4k-row table, one maintenance
round per point.  The seconds are printed; the asserts compare what the two
systems read.  FM rescans the query's tables every round while IMP's
operators process a number of delta tuples that grows with the delta, so the
ratio of rows FM reads to tuples IMP processes falls as the delta fraction
grows: it is above 3 (1.5 for the join) for deltas up to 100 tuples, and
drops below 1 -- past the break-even -- at half the table for the
single-table queries and already at a fifth of it for the join.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.workloads.queries import q_groups, q_having, q_joinsel

from benchmarks.conftest import build_scenario, measure_maintenance, print_rows

NUM_ROWS = 4000
SWEEP_FRACTIONS = [0.0025, 0.01, 0.05, 0.20, 0.50]


def _sweep(sql: str, title: str, **scenario_kwargs) -> list:
    scenario = build_scenario(sql, num_rows=NUM_ROWS, **scenario_kwargs)
    rounds = [
        measure_maintenance(scenario, max(2, int(NUM_ROWS * fraction)))
        for fraction in SWEEP_FRACTIONS
    ]
    result = ExperimentResult(title)
    for fraction, measured in zip(SWEEP_FRACTIONS, rounds):
        for system, seconds, tuples in (
            ("imp", measured.imp_seconds, measured.imp_processed),
            ("fm", measured.fm_seconds, measured.fm_rows),
        ):
            result.add(fraction=fraction, delta=measured.delta, system=system,
                       seconds=round(seconds, 5), tuples=tuples)
    print_rows(result, title)
    return rounds


def _assert_breakeven(rounds: list, small_delta_factor: float, breakeven: float) -> None:
    """The read ratio falls with the delta, stays above ``small_delta_factor``
    for deltas up to 100 tuples and first drops below 1 at ``breakeven``."""
    ratios = [measured.read_ratio for measured in rounds]
    assert ratios == sorted(set(ratios), reverse=True), f"the ratio must fall: {ratios}"
    for measured in rounds:
        if measured.delta <= 100:
            assert measured.read_ratio > small_delta_factor, (
                f"IMP should win clearly for delta={measured.delta} "
                f"(FM reads {measured.read_ratio:.1f}x what IMP processes)"
            )
    first_loss = next(f for f, ratio in zip(SWEEP_FRACTIONS, ratios) if ratio < 1)
    assert first_loss == breakeven, ratios


def test_fig12a_q_having_breakeven():
    rounds = _sweep(q_having(3), "Fig. 12a (scaled): Q_having break-even", num_groups=200)
    _assert_breakeven(rounds, small_delta_factor=3, breakeven=0.50)


def test_fig12b_q_groups_breakeven():
    rounds = _sweep(q_groups(threshold=900), "Fig. 12b (scaled): Q_groups break-even",
                    num_groups=1000)
    _assert_breakeven(rounds, small_delta_factor=3, breakeven=0.50)


def test_fig12e_q_joinsel_breakeven_is_lower():
    """Joins require shipping deltas to the backend, so the break-even point of
    Q_joinsel lies at smaller deltas than for the single-table queries."""
    rounds = _sweep(
        q_joinsel(filter_threshold=2000, having_threshold=2000),
        "Fig. 12e (scaled): Q_joinsel break-even",
        num_groups=200,
        with_join_helper=True,
        helper_rows=800,
    )
    _assert_breakeven(rounds, small_delta_factor=1.5, breakeven=0.20)
