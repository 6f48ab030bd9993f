"""The read counters the figure benchmarks assert on.

The benchmarks compare IMP with full maintenance (FM) by what each system
reads -- ``Database.scan_count``, ``delta_fetch_count``, ``index_scan_count``,
``EngineStatistics.tuples_processed``/``backend_round_trips`` and
``MaintenanceResult.delta_tuples``/``recaptured`` -- instead of by seconds.
These tests pin what each counter means on small tables, so a figure that
fails points at a real change in what a system reads.
"""

import pytest

from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_groups, q_joinsel
from repro.workloads.synthetic import load_join_helper, load_synthetic

QUERIES = {
    "single_table": q_groups(),
    "join": q_joinsel(),
}


class Setup:
    """A loaded database with IMP and FM maintainers of one captured sketch."""

    def __init__(self, sql: str) -> None:
        self.database = Database()
        self.table = load_synthetic(self.database, num_rows=400, num_groups=20, seed=3)
        load_join_helper(
            self.database, num_rows=100, join_selectivity=0.5, join_domain=20, seed=4
        )
        self.plan = self.database.plan(sql)
        self.tables = self.plan.referenced_tables()
        partition = build_database_partition(self.database, self.plan, 8)
        self.imp = IncrementalMaintainer(self.database, self.plan, partition)
        self.fm = FullMaintainer(self.database, self.plan, partition)
        self.capture_scans = {}
        for name, maintainer in (("imp", self.imp), ("fm", self.fm)):
            scans = self.database.scan_count
            maintainer.capture()
            self.capture_scans[name] = self.database.scan_count - scans

    def update(self, deletes: int = 3, inserts: int = 5) -> int:
        """Commit a batch on ``r``; returns the number of tuples it changed."""
        self.database.delete_rows("r", self.table.pick_deletes(deletes))
        self.database.insert("r", self.table.make_inserts(inserts))
        return deletes + inserts

    def reads(self, maintainer):
        """Maintain and return (result, full scans, delta fetches, side builds,
        tuples processed) of that one call."""
        database, statistics = self.database, self.imp.statistics
        scans, fetches = database.scan_count, database.delta_fetch_count
        builds, processed = statistics.backend_round_trips, statistics.tuples_processed
        result = maintainer.maintain()
        return (
            result,
            database.scan_count - scans,
            database.delta_fetch_count - fetches,
            statistics.backend_round_trips - builds,
            statistics.tuples_processed - processed,
        )


@pytest.fixture(params=sorted(QUERIES))
def setup(request):
    return Setup(QUERIES[request.param])


class TestMaintenanceReads:
    def test_capture_scans_every_table_of_the_query_once(self, setup):
        assert setup.capture_scans == {"imp": len(setup.tables), "fm": len(setup.tables)}

    def test_full_maintenance_rescans_every_table_and_reads_no_delta(self, setup):
        setup.update()
        result, scans, fetches, _builds, _processed = setup.reads(setup.fm)
        assert result.recaptured
        assert result.delta_tuples == 0
        assert scans == len(setup.tables)
        assert fetches == 0

    def test_incremental_maintenance_fetches_each_table_once(self, setup):
        setup.update()
        result, _scans, fetches, _builds, _processed = setup.reads(setup.imp)
        assert not result.recaptured
        assert fetches == len(setup.tables)

    def test_delta_tuples_count_inserts_and_deletes(self, setup):
        changed = setup.update(deletes=4, inserts=7)
        result, *_ = setup.reads(setup.imp)
        assert result.delta_tuples == changed == 11

    def test_a_current_sketch_reads_nothing(self, setup):
        setup.update()
        setup.imp.maintain()
        setup.fm.maintain()
        for maintainer in (setup.imp, setup.fm):
            result, scans, fetches, builds, processed = setup.reads(maintainer)
            assert not result.recaptured and result.delta_tuples == 0
            assert (scans, fetches, builds, processed) == (0, 0, 0, 0)

    def test_incremental_maintenance_scans_a_table_only_to_build_a_join_side(self, setup):
        for _round in range(3):
            setup.update()
            _result, scans, _fetches, builds, _processed = setup.reads(setup.imp)
            assert scans == builds

    def test_updates_to_an_unreferenced_table_are_not_fetched(self):
        setup = Setup(QUERIES["single_table"])
        setup.database.insert("tjoinhelp", [(10_000, 1, 1)])
        assert not setup.imp.is_stale()
        result, scans, fetches, _builds, _processed = setup.reads(setup.imp)
        assert (result.delta_tuples, scans, fetches) == (0, 0, 0)


class TestJoinSides:
    def test_a_join_side_is_built_once_and_kept(self):
        setup = Setup(QUERIES["join"])
        builds = []
        for _round in range(3):
            setup.update()
            _result, scans, _fetches, built, _processed = setup.reads(setup.imp)
            builds.append(built)
            assert scans == built
        assert builds == [1, 0, 0]

    def test_single_table_maintenance_never_scans(self):
        setup = Setup(QUERIES["single_table"])
        for _round in range(3):
            setup.update()
            _result, scans, _fetches, builds, _processed = setup.reads(setup.imp)
            assert (scans, builds) == (0, 0)


class TestWorkFollowsTheDelta:
    def test_processed_tuples_grow_with_the_delta(self):
        processed = []
        for changed in (4, 40):
            setup = Setup(QUERIES["single_table"])
            setup.update(deletes=changed // 2, inserts=changed // 2)
            processed.append(setup.reads(setup.imp)[4])
        assert 0 < processed[0] < processed[1]

    def test_full_maintenance_reads_do_not_follow_the_delta(self):
        scans = []
        for changed in (4, 40):
            setup = Setup(QUERIES["single_table"])
            setup.update(deletes=changed // 2, inserts=changed // 2)
            scans.append(setup.reads(setup.fm)[1])
        assert scans == [1, 1]

    def test_batched_updates_are_absorbed_in_one_pass(self):
        setup = Setup(QUERIES["single_table"])
        for _update in range(6):
            setup.database.insert("r", setup.table.make_inserts(1))
        result, scans, fetches, _builds, _processed = setup.reads(setup.imp)
        assert (result.delta_tuples, scans, fetches) == (6, 0, 1)
        assert setup.imp.statistics.maintenance_runs == 1


class TestDatabaseCounters:
    @pytest.fixture()
    def loaded(self):
        database = Database()
        table = load_synthetic(database, num_rows=400, num_groups=20, seed=3)
        database.create_index("r", "b")
        return database, table

    def test_an_indexed_range_is_an_index_scan_not_a_full_scan(self, loaded):
        database, _table = loaded
        scans, index_scans = database.scan_count, database.index_scan_count
        database.query("SELECT id FROM r WHERE b < 50")
        assert database.scan_count == scans
        assert database.index_scan_count == index_scans + 1

    def test_an_unindexed_filter_is_a_full_scan(self, loaded):
        database, _table = loaded
        scans, index_scans = database.scan_count, database.index_scan_count
        database.query("SELECT id FROM r WHERE c < 50")
        assert database.scan_count == scans + 1
        assert database.index_scan_count == index_scans

    def test_row_count_follows_inserts_and_deletes(self, loaded):
        database, table = loaded
        assert database.row_count("r") == 400
        database.delete_rows("r", table.pick_deletes(10))
        assert database.row_count("r") == 390
        database.insert("r", table.make_inserts(3))
        assert database.row_count("r") == 393
