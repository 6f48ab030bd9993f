"""Figure 8: end-to-end mixed workloads (queries + updates).

The paper compares the no-sketch baseline (NS), full maintenance (FM) and IMP
on workloads with query-update ratios 1U5Q / 1U1Q / 5U1Q and per-update delta
sizes of 1, 20, 200 and 2000 tuples.  The expected shape: FM pays so much for
recapturing sketches that it is the slowest; IMP wins for query-heavy mixes
and small deltas and loses its edge only for extreme update-heavy workloads
with large deltas.

Scaled down here: 30-operation workloads over a 4k-row synthetic table with
delta sizes 1 / 20 / 200.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult
from repro.imp.middleware import FullMaintenanceSystem, IMPSystem, NoSketchSystem
from repro.storage.database import Database
from repro.workloads.mixed import MixedWorkload, WorkloadRunner
from repro.workloads.queries import q_endtoend
from repro.workloads.synthetic import load_synthetic

from benchmarks.conftest import print_rows

NUM_ROWS = 4000
NUM_GROUPS = 200
NUM_OPERATIONS = 30
RATIOS = ["1U5Q", "1U1Q", "5U1Q"]
DELTA_SIZES = [1, 20, 200]

RESULTS = ExperimentResult("fig08")


def _materialise_operations(ratio: str, delta_size: int):
    source = Database()
    table = load_synthetic(source, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=77)
    workload = MixedWorkload(
        table,
        query_factory=lambda rng: q_endtoend(low=800, high=900),
        ratio=ratio,
        delta_size=delta_size,
        num_operations=NUM_OPERATIONS,
        seed=5,
    )
    return list(workload.operations())


def _make_system(kind: str):
    database = Database()
    load_synthetic(database, num_rows=NUM_ROWS, num_groups=NUM_GROUPS, seed=77)
    if kind == "ns":
        return NoSketchSystem(database)
    if kind == "fm":
        return FullMaintenanceSystem(database, num_fragments=64)
    return IMPSystem(database, num_fragments=64)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("delta_size", DELTA_SIZES)
@pytest.mark.parametrize("system_kind", ["ns", "fm", "imp"])
def test_fig08_mixed_workload(benchmark, ratio, delta_size, system_kind):
    """End-to-end runtime of one system on one (ratio, delta size) workload."""
    operations = _materialise_operations(ratio, delta_size)

    def run_workload():
        system = _make_system(system_kind)
        report = WorkloadRunner(system).run_operations(operations)
        return report.total_seconds

    seconds = benchmark.pedantic(run_workload, rounds=1, iterations=1)
    RESULTS.add(system=system_kind, ratio=ratio, delta=delta_size, seconds=seconds)


@pytest.mark.parametrize("ratio", RATIOS)
def test_fig08_shape_imp_beats_full_maintenance(benchmark, ratio):
    """Shape check on what each system reads, for every delta size: IMP
    captures its sketch once (one full scan) and maintains it from the
    deltas, FM recaptures it -- a full scan -- at every maintenance, and NS
    scans the whole table for every query.  So IMP does fewer full scans than
    FM, and than NS on the query-heavy 1U5Q mix (the paper's headline claim).

    Asserted on counters (deterministic); the seconds go to the printed table.
    """

    def run_comparison():
        rows = []
        for delta_size in [1, 20]:
            operations = _materialise_operations(ratio, delta_size)
            queries = sum(operation.kind == "query" for operation in operations)
            counters = {}
            for kind in ["ns", "fm", "imp"]:
                system = _make_system(kind)
                database = system.database
                scans, index_scans = database.scan_count, database.index_scan_count
                seconds = WorkloadRunner(system).run_operations(operations).total_seconds
                scheduler = getattr(system, "scheduler", None)
                counters[kind] = {
                    "seconds": round(seconds, 4),
                    "full_scans": database.scan_count - scans,
                    "index_scans": database.index_scan_count - index_scans,
                    "maintenances": system.statistics.sketch_maintenances,
                    "recaptures": scheduler.summary()["recaptures"] if scheduler else 0,
                }
            rows.append((delta_size, queries, counters))
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    local = ExperimentResult(f"fig08-shape-{ratio}")
    for delta_size, _queries, counters in rows:
        for kind, values in counters.items():
            local.add(system=kind, ratio=ratio, delta=delta_size, **values)
    print_rows(local, f"Fig. 8 (scaled): end-to-end seconds and table reads, ratio {ratio}")
    for delta_size, queries, counters in rows:
        ns, fm, imp = counters["ns"], counters["fm"], counters["imp"]
        assert (ns["full_scans"], ns["index_scans"]) == (queries, 0)
        assert (imp["full_scans"], imp["recaptures"]) == (1, 0), delta_size
        assert imp["index_scans"] == queries, delta_size
        assert 0 < fm["maintenances"] == fm["recaptures"], delta_size
        assert fm["full_scans"] == 1 + fm["recaptures"] > imp["full_scans"], (
            f"IMP should read less than full maintenance for ratio {ratio}, delta {delta_size}"
        )
        if ratio == "1U5Q":
            assert imp["full_scans"] < ns["full_scans"], (
                "IMP should read less than NS on query-heavy mixes"
            )
