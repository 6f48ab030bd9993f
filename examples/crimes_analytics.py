#!/usr/bin/env python3
"""Crime hot-spot monitoring with eager versus lazy sketch maintenance.

A city dashboard repeatedly asks two questions over an incident table that is
appended to throughout the day (and occasionally corrected):

* CQ1 -- how many crimes per beat and year, and
* CQ2 -- which areas have crossed an incident threshold ("hot spots").

The example runs the same stream of updates and dashboard refreshes through
two IMP configurations -- lazy maintenance (maintain when a dashboard refresh
needs the sketch) and eager maintenance with batching (maintain as updates
arrive) -- and reports where the maintenance time is spent, mirroring the
strategy discussion of Sec. 2 and Sec. 8.5 of the paper.

Run with: ``python examples/crimes_analytics.py``
"""

from __future__ import annotations

import time

from repro import Database
from repro.imp.middleware import IMPSystem
from repro.imp.strategies import EagerStrategy, LazyStrategy
from repro.workloads.crimes import CRIMES_Q1, crimes_q2, load_crimes

NUM_ROWS = 15_000
ROUNDS = 6
INSERTS_PER_ROUND = 150
CORRECTIONS_PER_ROUND = 20
HOTSPOT_THRESHOLD = 40


def run_day(strategy_name: str, strategy) -> dict:
    db = Database(f"crimes-{strategy_name}")
    data = load_crimes(db, num_rows=NUM_ROWS, seed=99)
    system = IMPSystem(db, num_fragments=96, strategy=strategy)
    cq2 = crimes_q2(threshold=HOTSPOT_THRESHOLD)

    # Initial dashboard load captures sketches for both queries.
    system.run_query(CRIMES_Q1)
    hotspots = system.run_query(cq2)
    print(f"[{strategy_name}] initial hot spots: {len(hotspots)}")

    refresh_latencies = []
    for _round in range(ROUNDS):
        corrections = data.pick_deletes(CORRECTIONS_PER_ROUND)
        system.apply_update("crimes", data.make_inserts(INSERTS_PER_ROUND), corrections)
        started = time.perf_counter()
        hotspots = system.run_query(cq2)
        system.run_query(CRIMES_Q1)
        refresh_latencies.append(time.perf_counter() - started)

    stats = system.statistics
    return {
        "strategy": strategy_name,
        "hot_spots": len(hotspots),
        "dashboard_refresh_ms": sum(refresh_latencies) / len(refresh_latencies) * 1000,
        "update_path_ms": stats.update_seconds * 1000,
        "maintenances": stats.sketch_maintenances,
        "captures": stats.sketch_captures,
    }


def main() -> None:
    results = [
        run_day("lazy", LazyStrategy()),
        run_day("eager-batch-2", EagerStrategy(batch_size=2)),
    ]
    print()
    header = (
        f"{'strategy':<16} {'hot spots':>9} {'avg refresh (ms)':>17} "
        f"{'update path (ms)':>18} {'maintenances':>13}"
    )
    print(header)
    for result in results:
        print(
            f"{result['strategy']:<16} {result['hot_spots']:>9} "
            f"{result['dashboard_refresh_ms']:>17.2f} {result['update_path_ms']:>18.2f} "
            f"{result['maintenances']:>13}"
        )
    print(
        "\nLazy maintenance defers work to the dashboard refresh (higher read "
        "latency, lower ingest cost); eager maintenance moves the same work to "
        "the update path so refreshes stay fast."
    )


if __name__ == "__main__":
    main()
