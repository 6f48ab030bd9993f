"""Tests for annotated deltas and incremental operator state."""

import pytest

from repro.core.bitset import BitSet
from repro.core.errors import StateError
from repro.relational.algebra import AggregateFunction
from repro.relational.schema import Schema
from repro.imp.annotated import AnnotatedDelta
from repro.imp.state import (
    AggregationState,
    CountStarAccumulator,
    GroupState,
    MergeState,
    MinMaxAccumulator,
    SumCountAccumulator,
    TopKState,
    make_accumulator,
)

SCHEMA = Schema(["a", "b"])


class TestAnnotatedDelta:
    def _delta(self) -> AnnotatedDelta:
        delta = AnnotatedDelta(SCHEMA)
        delta.append((1, 2), 0b001, 2)
        delta.append((3, 4), 0b010, -1)
        delta.append((5, 6), 0b110, 1)
        return delta

    def test_signed_counts(self):
        delta = self._delta()
        assert delta.insert_count == 3
        assert delta.delete_count == 1
        assert len(delta) == 4
        assert delta
        assert not AnnotatedDelta(SCHEMA)

    def test_annotations_are_plain_masks(self):
        delta = self._delta()
        assert all(type(annotation) is int for annotation in delta.annotations)
        assert sorted(BitSet.from_mask(delta.annotations[2])) == [1, 2]

    def test_entries_stay_in_append_order_and_are_not_merged(self):
        delta = AnnotatedDelta(SCHEMA)
        delta.append((1, 2), 1, 1)
        delta.append((1, 2), 1, -1)
        delta.append((1, 2), 1, 1)
        assert list(delta.entries()) == [((1, 2), 1, 1), ((1, 2), 1, -1), ((1, 2), 1, 1)]
        assert len(delta) == 3

    def test_columns_pivot_rows(self):
        columns = self._delta().columns()
        assert columns[1] == [2, 4, 6]  # built when read, in any order
        assert list(columns) == [[1, 3, 5], [2, 4, 6]]
        assert len(AnnotatedDelta(SCHEMA).columns()) == 2  # no rows: empty columns
        assert AnnotatedDelta(SCHEMA).columns()[0] == []

    def test_filter_keeps_the_three_lists_aligned(self):
        kept = self._delta().filter([True, False, True])
        assert kept.schema == SCHEMA
        assert list(kept.entries()) == [((1, 2), 0b001, 2), ((5, 6), 0b110, 1)]
        assert not self._delta().filter([False, None, False])

    def test_with_rows_keeps_annotations_and_counts(self):
        delta = self._delta()
        narrow = Schema(["a"])
        projected = delta.with_rows(narrow, [(row[0],) for row in delta.rows])
        assert projected.schema == narrow
        assert list(projected.entries()) == [((1,), 0b001, 2), ((3,), 0b010, -1), ((5,), 0b110, 1)]
        # The lists are copies: appending to one delta leaves the other aligned.
        projected.append((7,), 0b001, 1)
        assert len(delta.rows) == len(delta.annotations) == len(delta.counts) == 3

    def test_consolidated_sums_per_annotated_row_and_drops_cancelled(self):
        delta = AnnotatedDelta(SCHEMA)
        delta.append((1, 2), 0b01, 2)
        delta.append((3, 4), 0b10, 1)
        delta.append((1, 2), 0b10, 1)  # same row, other annotation: kept apart
        delta.append((3, 4), 0b10, -1)
        delta.append((1, 2), 0b01, -3)
        assert list(delta.consolidated().entries()) == [((1, 2), 0b01, -1), ((1, 2), 0b10, 1)]
        assert len(delta.rows) == 5  # the source is left as it was
        delta.append((1, 2), 0b10, -1)
        delta.append((1, 2), 0b01, 1)
        assert not delta.consolidated()


class TestAccumulators:
    def test_sum_avg_accumulator(self):
        accumulator = SumCountAccumulator(AggregateFunction.SUM)
        accumulator.update(10, 2)
        accumulator.update(None, 1)
        accumulator.update(5, -1)
        assert accumulator.result() == 15.0
        avg = SumCountAccumulator(AggregateFunction.AVG)
        avg.update(10, 1)
        avg.update(20, 1)
        assert avg.result() == 15.0

    def test_sum_of_only_nulls_is_null(self):
        accumulator = SumCountAccumulator(AggregateFunction.SUM)
        accumulator.update(None, 3)
        assert accumulator.result() is None

    def test_count_accumulators(self):
        count_attr = SumCountAccumulator(AggregateFunction.COUNT)
        count_attr.update(None, 1)
        count_attr.update(5, 2)
        assert count_attr.result() == 2
        count_star = CountStarAccumulator()
        count_star.update(None, 1)
        count_star.update(5, 2)
        assert count_star.result() == 3

    def test_minmax_accumulator_tracks_extremes(self):
        minimum = MinMaxAccumulator(AggregateFunction.MIN)
        for value in [5, 3, 9]:
            minimum.update(value, 1)
        assert minimum.result() == 3
        minimum.update(3, -1)
        assert minimum.result() == 5

    def test_minmax_rejects_wrong_function(self):
        with pytest.raises(StateError):
            MinMaxAccumulator(AggregateFunction.SUM)

    def test_minmax_buffer_eviction_and_exhaustion(self):
        minimum = MinMaxAccumulator(AggregateFunction.MIN, buffer_limit=2)
        for value in [1, 2, 3, 4]:
            minimum.update(value, 1)
        assert minimum.stored_count == 2
        assert minimum.overflow_count == 2
        # Delete both buffered values: the true minimum is now unknown.
        minimum.update(1, -1)
        minimum.update(2, -1)
        assert minimum.exhausted
        with pytest.raises(StateError):
            minimum.result()

    def test_minmax_buffer_survives_overflow_deletes(self):
        maximum = MinMaxAccumulator(AggregateFunction.MAX, buffer_limit=2)
        for value in [1, 2, 3, 4]:
            maximum.update(value, 1)
        # Deleting a non-buffered (small) value only decrements the overflow.
        maximum.update(1, -1)
        assert not maximum.exhausted
        assert maximum.result() == 4

    def test_make_accumulator_dispatch(self):
        assert isinstance(
            make_accumulator(AggregateFunction.MIN, True, 5), MinMaxAccumulator
        )
        assert isinstance(make_accumulator(AggregateFunction.COUNT, False), CountStarAccumulator)
        assert isinstance(make_accumulator(AggregateFunction.SUM, True), SumCountAccumulator)

    def test_payload_roundtrip(self):
        accumulator = MinMaxAccumulator(AggregateFunction.MAX, buffer_limit=3)
        accumulator.update(7, 2)
        restored = MinMaxAccumulator.from_payload(accumulator.to_payload())
        assert restored.result() == 7
        sums = SumCountAccumulator(AggregateFunction.AVG)
        sums.update(4, 2)
        assert SumCountAccumulator.from_payload(sums.to_payload()).result() == 4.0


class TestGroupAndMergeState:
    def test_group_state_tracks_fragments_and_existence(self):
        group = GroupState((1,), [SumCountAccumulator(AggregateFunction.SUM)])
        group.apply([10], 1 << 2, 1)
        group.apply([20], 1 << 3, 1)
        assert group.exists
        assert group.mask == 1 << 2 | 1 << 3
        group.apply([10], 1 << 2, -1)
        assert group.mask == 1 << 3
        group.apply([20], 1 << 3, -1)
        assert not group.exists
        assert group.mask == 0 and group.fragment_counts == {}

    def test_group_mask_changes_only_at_zero_crossings(self):
        group = GroupState((1,), [])
        group.apply((), 0b101, 2)
        assert group.mask == 0b101
        group.apply((), 0b100, -1)
        assert group.mask == 0b101 and group.fragment_counts == {0: 2, 2: 1}
        group.apply((), 0b100, -1)
        assert group.mask == 0b001
        # A count below zero (a delete seen before its insert) is not in the sketch.
        group.apply((), 0b010, -1)
        assert group.mask == 0b001
        group.apply((), 0b010, 2)
        assert group.mask == 0b011

    def test_group_state_payload_roundtrip(self):
        group = GroupState((1, "x"), [SumCountAccumulator(AggregateFunction.SUM)])
        group.apply([5], 1 << 1, 2)
        restored = GroupState.from_payload(group.to_payload())
        assert restored.output_values() == group.output_values()
        assert restored.mask == group.mask == 1 << 1

    def test_aggregation_state_payload_roundtrip(self):
        state = AggregationState()
        group = state.get_or_create((5,), lambda: [SumCountAccumulator(AggregateFunction.SUM)])
        group.apply([2], 1, 1)
        restored = AggregationState.from_payload(state.to_payload())
        assert len(restored) == 1
        assert restored.groups[(5,)].output_values() == (2.0,)

    def test_merge_state_counts(self):
        merge = MergeState()
        assert merge.apply([(0b1000, 2)]) == ({3}, set())
        assert merge.apply([(0b1000, -1), (0b0010, 1)]) == ({1}, set())
        assert merge.counts == {3: 1, 1: 1}
        # Entering and leaving within one batch is no change.
        assert merge.apply([(0b0100, 1), (0b1100, -1)]) == (set(), {3})
        assert merge.active_fragments() == {1}
        restored = MergeState.from_payload(merge.to_payload())
        assert restored.active_fragments() == {1}

    def test_memory_accounting_is_positive(self):
        state = AggregationState()
        group = state.get_or_create((1,), lambda: [SumCountAccumulator(AggregateFunction.SUM)])
        group.apply([1], 1, 1)
        assert state.memory_bytes() > 0
        assert MergeState().memory_bytes() > 0


class TestTopKState:
    def test_top_k_walks_in_order(self):
        state = TopKState()
        state.add((2,), ("b",), 0b10, 1)
        state.add((1,), ("a",), 0b01, 2)
        top = state.top_k(2)
        assert top[0] == (("a",), 0b01, 2)

    def test_remove_and_missing_entries(self):
        state = TopKState()
        state.add((1,), ("a",), 0, 1)
        state.remove((1,), ("a",), 0, 1)
        assert state.stored_count == 0
        # Removing something never stored exhausts the state only when there
        # is no overflow accounting for it.
        state.remove((9,), ("z",), 0, 1)
        assert state.exhausted

    def test_buffer_eviction_and_overflow(self):
        state = TopKState(buffer_limit=2)
        for i in range(5):
            state.add((i,), (f"row{i}",), 0, 1)
        assert state.stored_count == 2
        assert state.overflow_count == 3
        assert state.can_answer(2)
        # Deleting non-buffered tuples is fine.
        state.remove((4,), ("row4",), 0, 1)
        assert not state.exhausted
        # Deleting buffered tuples below k makes it unable to answer.
        state.remove((0,), ("row0",), 0, 1)
        state.remove((1,), ("row1",), 0, 1)
        assert not state.can_answer(2)

    @staticmethod
    def _sorted_fill(entries, buffer_limit):
        """What sorting everything once and storing the first ``buffer_limit``
        copies leaves: (bucket entries per sort key, stored, overflow).  Equal
        ``(row, annotation)`` arrivals merge at their first position; ties on
        the sort key keep arrival order (stable sort)."""
        merged = {}
        for sort_key, row, annotation, multiplicity in entries:
            key = (sort_key, row, annotation)
            merged[key] = merged.get(key, 0) + multiplicity
        buckets, remaining, overflow = {}, buffer_limit, 0
        for (sort_key, row, annotation), multiplicity in sorted(
            merged.items(), key=lambda item: item[0][0]
        ):
            take = min(multiplicity, remaining)
            if take:
                buckets.setdefault(sort_key, []).append(((row, annotation), take))
            remaining -= take
            overflow += multiplicity - take
        return buckets, buffer_limit - remaining, overflow

    @pytest.mark.parametrize("buffer_limit", [1, 3, 4, 5, 7, 20])
    def test_incremental_adds_leave_what_a_sorted_fill_leaves(self, buffer_limit):
        """Duplicate sort keys straddle the buffer boundary, multiplicities
        exceed one, and one annotated tuple arrives twice."""
        entries = [
            ((2,), ("c",), 0b0100, 2),
            ((1,), ("a",), 0b0001, 1),
            ((2,), ("d",), 0b1000, 3),
            ((1,), ("b",), 0b0010, 2),
            ((2,), ("c",), 0b0100, 1),  # again: merges into its first arrival
            ((0,), ("z",), 0b0001, 1),
            ((2,), ("e",), 0b0001, 2),
            ((3,), ("f",), 0b0010, 1),
        ]
        state = TopKState(buffer_limit)
        for entry in entries:
            state.add(*entry)
        buckets, stored, overflow = self._sorted_fill(entries, buffer_limit)
        assert {key: list(bucket.items()) for key, bucket in state.tree.items()} == buckets
        assert (state.stored_count, state.overflow_count) == (stored, overflow)
        assert stored + overflow == sum(entry[3] for entry in entries)

    def test_full_buffer_counts_worse_entries_without_storing_them(self):
        state = TopKState(buffer_limit=2)
        state.add((1,), ("a",), 0, 1)
        state.add((1,), ("b",), 0, 1)
        state.add((1,), ("c",), 0, 4)  # ties with the stored maximum: counted
        state.add((5,), ("d",), 0, 1)
        assert list(state.tree[(1,)]) == [(("a",), 0), (("b",), 0)]
        assert (5,) not in state.tree
        assert (state.stored_count, state.overflow_count) == (2, 5)
        state.add((0,), ("first",), 0, 1)  # better: evicts the latest tie
        assert list(state.tree[(1,)]) == [(("a",), 0)]
        assert (state.stored_count, state.overflow_count) == (2, 6)

    def test_exhausted_topk_raises(self):
        state = TopKState()
        state.exhausted = True
        with pytest.raises(StateError):
            state.top_k(1)

    def test_memory_bytes(self):
        state = TopKState()
        state.add((1,), ("payload" * 10,), 0b10, 1)
        assert state.memory_bytes() > 0
