"""Shared helpers for the benchmark suite.

Every file in this directory regenerates one table or figure of the paper's
evaluation (Sec. 8).  The data sizes are scaled down so the full suite runs in
the test gate.  The assertions check the *shape* of each result on what the
systems read and processed -- full scans, delta fetches, delta tuples, join
side builds, bytes -- which repeats exactly on any machine; the seconds are
printed beside them and never asserted.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_table, write_json
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.synthetic import load_join_helper, load_synthetic


@dataclass
class MaintenanceScenario:
    """A query over a loaded database with maintainers for IMP and FM."""

    database: Database
    table_handle: object
    sql: str
    incremental: IncrementalMaintainer
    full: FullMaintainer

    def apply_update(self, inserts=(), deletes=()):
        """Commit an update batch to the backend."""
        if deletes:
            self.database.delete_rows(self.table_handle.name, deletes)
        if inserts:
            self.database.insert(self.table_handle.name, inserts)


def build_scenario(
    sql: str,
    num_rows: int = 4000,
    num_groups: int = 200,
    num_fragments: int = 64,
    with_join_helper: bool = False,
    join_selectivity: float = 1.0,
    helper_rows: int = 1000,
    config: IMPConfig | None = None,
    seed: int = 7,
) -> MaintenanceScenario:
    """Create a synthetic database, capture sketches with IMP and FM."""
    database = Database()
    table = load_synthetic(
        database, num_rows=num_rows, num_groups=num_groups, seed=seed
    )
    if with_join_helper:
        load_join_helper(
            database,
            num_rows=helper_rows,
            join_selectivity=join_selectivity,
            join_domain=num_groups,
            seed=seed + 1,
        )
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, num_fragments)
    incremental = IncrementalMaintainer(database, plan, partition, config)
    incremental.capture()
    full = FullMaintainer(database, plan, partition)
    full.capture()
    return MaintenanceScenario(database, table, sql, incremental, full)


@dataclass
class MaintenanceRound:
    """What IMP and FM read and did to absorb one update batch.

    ``delta`` is the number of tuples the batch inserted and deleted.  IMP's
    counters are its maintainer's ``MaintenanceResult`` and the growth of the
    database and engine counters while it ran; FM's are the full scans of its
    recapture and the rows of the query's tables it read.  The seconds are
    reported, never asserted.
    """

    delta: int
    imp_seconds: float
    fm_seconds: float
    imp_scans: int
    imp_fetches: int
    imp_side_builds: int
    imp_delta_tuples: int
    imp_processed: int
    imp_recaptured: bool
    fm_scans: int
    fm_rows: int

    @property
    def read_ratio(self) -> float:
        """Rows FM reads per delta tuple IMP's operators process."""
        return self.fm_rows / max(self.imp_processed, 1)

    def assert_reads(self, tables: int) -> None:
        """IMP absorbs the batch from its delta: no recapture, every delta
        tuple counted, at most one fetch per table and a full scan only to
        build a join side (once per side); FM rescans every table."""
        assert not self.imp_recaptured, "IMP must maintain, not recapture"
        assert self.imp_delta_tuples == self.delta
        assert 0 < self.imp_fetches <= tables
        assert self.imp_scans == self.imp_side_builds, "IMP scans a table only to build a join side"
        assert self.fm_scans == tables, "FM recaptures from every table of the query"


def maintain_round(database, incremental, full, delta: int) -> MaintenanceRound:
    """Maintain IMP, then FM, after a committed batch of ``delta`` tuples."""
    tables = incremental.plan.referenced_tables()
    statistics = incremental.statistics
    scans, fetches = database.scan_count, database.delta_fetch_count
    builds, processed = statistics.backend_round_trips, statistics.tuples_processed
    started = time.perf_counter()
    result = incremental.maintain()
    imp_seconds = time.perf_counter() - started
    imp_scans = database.scan_count - scans
    imp_fetches = database.delta_fetch_count - fetches
    fm_rows = sum(database.row_count(table) for table in tables)
    scans = database.scan_count
    started = time.perf_counter()
    full.maintain()
    fm_seconds = time.perf_counter() - started
    return MaintenanceRound(
        delta=delta,
        imp_seconds=imp_seconds,
        fm_seconds=fm_seconds,
        imp_scans=imp_scans,
        imp_fetches=imp_fetches,
        imp_side_builds=statistics.backend_round_trips - builds,
        imp_delta_tuples=result.delta_tuples,
        imp_processed=statistics.tuples_processed - processed,
        imp_recaptured=result.recaptured,
        fm_scans=database.scan_count - scans,
        fm_rows=fm_rows,
    )


def measure_maintenance(scenario: MaintenanceScenario, delta_size: int) -> MaintenanceRound:
    """Commit one batch of ``delta_size`` tuples (half deletes, half inserts)
    and maintain both sketches, checking what each read."""
    deletes = scenario.table_handle.pick_deletes(delta_size // 2)
    inserts = scenario.table_handle.make_inserts(delta_size - len(deletes))
    scenario.apply_update(inserts, deletes)
    measured = maintain_round(
        scenario.database, scenario.incremental, scenario.full, delta_size
    )
    measured.assert_reads(len(scenario.incremental.plan.referenced_tables()))
    return measured


def print_rows(result: ExperimentResult, title: str):
    print()
    print(format_table(result, title=title))


def save_artifact(result: ExperimentResult, fig: str) -> str:
    """Write the experiment as ``BENCH_<fig>.json`` and return the path.

    The destination directory is ``BENCH_ARTIFACT_DIR`` (default: the current
    working directory); CI sets it and uploads the JSON files so every
    benchmark run leaves a machine-readable record next to the printed
    tables.
    """
    directory = os.environ.get("BENCH_ARTIFACT_DIR", ".")
    path = os.path.join(directory, f"BENCH_{fig}.json")
    written = write_json(result, path)
    print(f"\nwrote benchmark artifact {written}")
    return written


