"""Figure 8: end-to-end mixed workloads (queries + updates).

The paper compares the no-sketch baseline (NS), full maintenance (FM) and IMP
on workloads with query-update ratios 1U5Q / 1U1Q / 5U1Q and per-update delta
sizes of 1, 20, 200 and 2000 tuples.  The expected shape: FM pays so much for
recapturing sketches that it is the slowest; IMP wins for query-heavy mixes
and small deltas and loses its edge only for extreme update-heavy workloads
with large deltas.

Scaled down here: 30-operation workloads over a 4k-row synthetic table with
delta sizes 1 / 20 / 200.  The seconds are printed; the asserts count table
reads (full scans, index scans, recaptures), which repeat exactly on any
machine.
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
SYSTEMS = ["ns", "fm", "imp"]


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


def _run(kind: str, ratio: str, delta_size: int) -> dict:
    """Seconds and table reads of one system on one workload."""
    operations = _materialise_operations(ratio, delta_size)
    system = _make_system(kind)
    database = system.database
    scans, index_scans = database.scan_count, database.index_scan_count
    seconds = WorkloadRunner(system).run_operations(operations).total_seconds
    scheduler = getattr(system, "scheduler", None)
    return {
        "seconds": round(seconds, 4),
        "queries": sum(operation.kind == "query" for operation in operations),
        "full_scans": database.scan_count - scans,
        "index_scans": database.index_scan_count - index_scans,
        "maintenances": system.statistics.sketch_maintenances,
        "recaptures": scheduler.summary()["recaptures"] if scheduler else 0,
    }


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        (kind, ratio, delta_size): _run(kind, ratio, delta_size)
        for kind in SYSTEMS
        for ratio in RATIOS
        for delta_size in DELTA_SIZES
    }


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("delta_size", DELTA_SIZES)
@pytest.mark.parametrize("system_kind", SYSTEMS)
def test_fig08_mixed_workload(runs, ratio, delta_size, system_kind):
    """One system on one (ratio, delta size) workload: NS scans the table for
    every query, IMP captures once and answers every query through an index
    scan, FM recaptures -- a full scan -- at every maintenance."""
    counters = runs[(system_kind, ratio, delta_size)]
    result = ExperimentResult("fig08")
    result.add(system=system_kind, ratio=ratio, delta=delta_size, **counters)
    print_rows(result, f"Fig. 8 (scaled): {system_kind}, ratio {ratio}, delta {delta_size}")
    queries = counters["queries"]
    if system_kind == "ns":
        assert (counters["full_scans"], counters["index_scans"]) == (queries, 0)
    elif system_kind == "imp":
        assert (counters["full_scans"], counters["recaptures"]) == (1, 0)
        assert counters["index_scans"] == queries
    else:
        assert 0 < counters["maintenances"] == counters["recaptures"]
        assert counters["full_scans"] == 1 + counters["recaptures"]


@pytest.mark.parametrize("ratio", RATIOS)
def test_fig08_shape_imp_beats_full_maintenance(runs, ratio):
    """Shape check on what each system reads, for every delta size: IMP
    captures its sketch once (one full scan) and maintains it from the
    deltas, FM recaptures it -- a full scan -- at every maintenance, and NS
    scans the whole table for every query.  So IMP does fewer full scans than
    FM, and than NS on the query-heavy 1U5Q mix (the paper's headline claim).

    Asserted on counters (deterministic); the seconds go to the printed table.
    """
    for delta_size in DELTA_SIZES:
        ns, fm, imp = (runs[(kind, ratio, delta_size)] for kind in SYSTEMS)
        assert fm["full_scans"] > imp["full_scans"], (
            f"IMP should read less than full maintenance for ratio {ratio}, delta {delta_size}"
        )
        if ratio == "1U5Q":
            assert imp["full_scans"] < ns["full_scans"], (
                "IMP should read less than NS on query-heavy mixes"
            )
