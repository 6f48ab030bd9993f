"""Tests for annotated deltas and incremental operator state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StateError
from repro.relational import kernels
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.expressions import ColumnRef
from repro.relational.schema import Schema
from repro.imp.annotated import AnnotatedDelta
from repro.imp.persistence import _groups_payload
from repro.imp.operators import MergeOperator
from repro.imp.state import (
    AggregationState,
    MinMaxAccumulator,
    TopKState,
    fold_fragments,
)
from repro.sketch.sketch import SketchDelta, iter_bits
from tests.reference import Feed, merge

SCHEMA = Schema(["a", "b"])


def delta_of(entries, schema: Schema = SCHEMA) -> AnnotatedDelta:
    """An annotated delta of ``(row, annotation, count)`` entries."""
    entries = list(entries)
    return AnnotatedDelta.from_rows(
        schema,
        [row for row, _a, _c in entries],
        [annotation for _r, annotation, _c in entries],
        [count for _r, _a, count in entries],
    )


class TestAnnotatedDelta:
    ENTRIES = [((1, 2), 0b001, 2), ((3, 4), 0b010, -1), ((5, 6), 0b110, 1)]

    def _delta(self) -> AnnotatedDelta:
        return delta_of(self.ENTRIES)

    def test_signed_counts(self):
        delta = self._delta()
        assert delta.multiplicities == [2, -1, 1]
        assert delta.tuple_count == 4
        assert len(delta) == 3  # entries, as for any batch
        assert delta
        assert not AnnotatedDelta.empty(SCHEMA)

    def test_annotations_are_plain_masks_in_the_last_column(self):
        delta = self._delta()
        assert delta.annotations is delta.columns[2]
        assert all(type(annotation) is int for annotation in delta.annotations)
        assert list(iter_bits(delta.annotations[2])) == [1, 2]

    def test_entries_stay_in_order_and_are_not_merged(self):
        delta = delta_of([((1, 2), 1, 1), ((1, 2), 1, -1), ((1, 2), 1, 1)])
        assert list(delta.entries()) == [((1, 2), 1, 1), ((1, 2), 1, -1), ((1, 2), 1, 1)]
        assert len(delta) == 3

    def test_columns_pivot_rows(self):
        delta = self._delta()
        assert delta.columns[1] == [2, 4, 6]
        assert list(delta.columns) == [[1, 3, 5], [2, 4, 6], [0b001, 0b010, 0b110]]
        assert delta.rows() == [(1, 2), (3, 4), (5, 6)]
        empty = AnnotatedDelta.empty(SCHEMA)
        assert list(empty.columns) == [[], [], []]  # no rows: empty columns
        assert empty.rows() == []
        assert delta_of([((), 0b1, 2)], Schema([])).rows() == [()]

    def test_annotate_builds_each_value_column_when_first_read(self):
        read = []
        column = lambda position: read.append(position) or [position] * 3  # noqa: E731
        delta = AnnotatedDelta.annotate(SCHEMA, column, [0b1, 0b10, 0b100], [1, -1, 2])
        assert delta.annotations == [0b1, 0b10, 0b100] and read == []
        assert delta.columns[1] == [1, 1, 1] and read == [1]
        assert list(delta.entries()) == [((0, 1), 0b1, 1), ((0, 1), 0b10, -1), ((0, 1), 0b100, 2)]
        assert read == [1, 0]

    def test_the_filter_kernel_keeps_the_columns_aligned(self):
        kept = kernels.filter_batch(self._delta(), [True, False, True], True)
        assert type(kept) is AnnotatedDelta and kept.schema == SCHEMA
        assert list(kept.entries()) == [((1, 2), 0b001, 2), ((5, 6), 0b110, 1)]
        assert not kernels.filter_batch(self._delta(), [False, None, False], False)

    def test_the_projection_kernel_keeps_annotations_and_counts(self):
        delta = self._delta()
        narrow = Schema(["a"])
        projected = kernels.project_batch(delta, narrow, [delta.columns[0], delta.annotations])
        assert type(projected) is AnnotatedDelta and projected.schema == narrow
        assert list(projected.entries()) == [((1,), 0b001, 2), ((3,), 0b010, -1), ((5,), 0b110, 1)]
        # The source is left as it was.
        assert list(delta.entries()) == self.ENTRIES

    def test_relabel_keeps_the_class_and_the_columns(self):
        delta = self._delta()
        relabeled = delta.relabel(SCHEMA.qualify("t"))
        assert type(relabeled) is AnnotatedDelta
        assert relabeled.columns is delta.columns
        assert list(relabeled.entries()) == self.ENTRIES

    def test_a_fork_shares_the_built_columns_and_builds_the_rest_itself(self):
        """A view of a shared node's delta (one per engine) builds the
        columns nobody built yet on its own."""
        delta = self._delta()
        first = delta.columns[0]
        fork = delta.columns.fork()
        assert fork[0] is first
        assert fork[1] == delta.columns[1] and fork[1] is not delta.columns[1]
        assert list(fork) == list(delta.columns)

    def test_consolidate_sums_per_annotated_row_and_drops_cancelled(self):
        entries = [
            ((1, 2), 0b01, 2),
            ((3, 4), 0b10, 1),
            ((1, 2), 0b10, 1),  # same row, other annotation: kept apart
            ((3, 4), 0b10, -1),
            ((1, 2), 0b01, -3),
        ]
        delta = delta_of(entries)
        merged = delta.consolidate()
        assert type(merged) is AnnotatedDelta
        assert list(merged.entries()) == [((1, 2), 0b01, -1), ((1, 2), 0b10, 1)]
        assert list(delta.entries()) == entries  # the source is left as it was
        assert not delta_of(entries + [((1, 2), 0b10, -1), ((1, 2), 0b01, 1)]).consolidate()

    def test_a_pair_through_zero_moves_to_its_next_occurrence(self):
        delta = delta_of(
            [((1, 1), 1, 1), ((2, 2), 2, 2), ((1, 1), 1, -1), ((3, 3), 4, 1), ((1, 1), 1, 2)]
        )
        assert list(delta.consolidate().entries()) == [
            ((2, 2), 2, 2),
            ((3, 3), 4, 1),
            ((1, 1), 1, 2),
        ]

    def test_unit_counts_sum_per_pair_in_first_occurrence_order(self):
        delta = delta_of([((1.0, 0), 1, 1), ((2, 0), 1, 1), ((1, 0), 1, 1), ((True, 0), 2, 1)])
        assert repr(list(delta.consolidate().entries())) == repr(
            [((1.0, 0), 1, 2), ((2, 0), 1, 1), ((True, 0), 2, 1)]
        )


def aggregate(function: AggregateFunction, argument: str | None = "v") -> Aggregate:
    return Aggregate(function, None if argument is None else ColumnRef(argument), "x")


def fold(state: AggregationState, entries) -> list[int]:
    """Fold ``(key, argument values, annotation, count)`` entries as one
    batch; returns their slots."""
    ids = state.slot_ids([key for key, _values, _annotation, _count in entries])
    arguments = [
        None if spec.argument is None else [values[i] for _key, values, _a, _c in entries]
        for i, spec in enumerate(state.aggregates)
    ]
    state.fold(
        ids,
        arguments,
        [annotation for _key, _values, annotation, _count in entries],
        [count for _key, _values, _annotation, count in entries],
    )
    return ids


def group(state: AggregationState, key: tuple) -> int:
    return state.slots[key]


class TestAccumulators:
    def test_sum_avg_accumulator(self):
        state = AggregationState(
            [aggregate(AggregateFunction.SUM), aggregate(AggregateFunction.AVG)]
        )
        fold(state, [((1,), (10, 10), 0, 2), ((1,), (None, None), 0, 1)])
        fold(state, [((1,), (5, 5), 0, -1)])
        # 2 * 10 - 5 over 2 - 1 non-NULL tuples; the NULL counts for neither.
        assert state.values([group(state, (1,))]) == [(15.0, 15.0)]
        fold(state, [((2,), (10, 10), 0, 1), ((2,), (20, 20), 0, 1)])
        assert state.values([group(state, (2,))]) == [(30.0, 15.0)]

    def test_sum_of_only_nulls_is_null(self):
        state = AggregationState([aggregate(AggregateFunction.SUM)])
        fold(state, [((), (None,), 0, 3)])
        assert state.values([group(state, ())]) == [(None,)]
        assert state.total_count[group(state, ())] == 3

    def test_count_accumulators(self):
        state = AggregationState(
            [aggregate(AggregateFunction.COUNT), aggregate(AggregateFunction.COUNT, None)]
        )
        fold(state, [((), (None, None), 0, 1), ((), (5, None), 0, 2)])
        assert state.values([group(state, ())]) == [(2, 3)]
        # count(*) is the group's tuple count; it keeps no list of its own.
        assert state.non_null[1] is None and state.totals[0] is None

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
        assert len(minimum.values) == 2
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

    def test_slot_lists_follow_the_aggregate_functions(self):
        state = AggregationState(
            [
                aggregate(AggregateFunction.MIN),
                aggregate(AggregateFunction.COUNT, None),
                aggregate(AggregateFunction.SUM),
                aggregate(AggregateFunction.COUNT),
            ],
            min_max_buffer=5,
        )
        assert [column is not None for column in state.extremes] == [True, False, False, False]
        assert [column is not None for column in state.totals] == [False, False, True, False]
        assert [column is not None for column in state.non_null] == [False, False, True, True]
        (slot,) = fold(state, [((1,), (4, None, 4, 4), 0, 1)])
        assert state.extremes[0][slot].buffer_limit == 5
        assert state.exhausted([slot]) == set()

    def test_min_max_payload(self):
        specs = [aggregate(AggregateFunction.MAX), aggregate(AggregateFunction.AVG)]
        state = AggregationState(specs, min_max_buffer=3)
        fold(state, [((1,), (7, 4), 0, 2), ((1,), (9, 5), 0, 1)])
        assert _groups_payload(state)[0]["accumulators"][0] == {
            "kind": "min_max",
            "function": "max",
            "buffer_limit": 3,
            "overflow_count": 0,
            "exhausted": False,
            "values": [(7, 2), (9, 1)],
        }


class TestGroupAndMergeState:
    def test_group_state_tracks_fragments_and_existence(self):
        state = AggregationState([aggregate(AggregateFunction.SUM)])
        (slot, _) = fold(state, [((1,), (10,), 1 << 2, 1), ((1,), (20,), 1 << 3, 1)])
        assert state.total_count[slot] > 0
        assert state.mask[slot] == 1 << 2 | 1 << 3
        fold(state, [((1,), (10,), 1 << 2, -1)])
        assert state.mask[slot] == 1 << 3
        fold(state, [((1,), (20,), 1 << 3, -1)])
        assert state.total_count[slot] == 0
        assert state.mask[slot] == 0 and state.fragment_counts[slot] == {}
        # A dropped group's slot is cleared and reused by the next new key.
        state.drop(slot)
        assert len(state) == 0 and state.free == [slot]
        assert fold(state, [((7,), (1,), 1, 1)]) == [slot]
        assert state.values([slot]) == [(1.0,)] and state.keys[slot] == (7,)

    def test_group_mask_changes_only_at_zero_crossings(self):
        state = AggregationState()
        (slot,) = fold(state, [((1,), (), 0b101, 2)])
        assert state.mask[slot] == 0b101
        fold(state, [((1,), (), 0b100, -1)])
        assert state.mask[slot] == 0b101 and state.fragment_counts[slot] == {0: 2, 2: 1}
        fold(state, [((1,), (), 0b100, -1)])
        assert state.mask[slot] == 0b001
        # A count below zero (a delete seen before its insert) is not in the sketch.
        fold(state, [((1,), (), 0b010, -1)])
        assert state.mask[slot] == 0b001
        fold(state, [((1,), (), 0b010, 2)])
        assert state.mask[slot] == 0b011

    def test_group_state_payload(self):
        state = AggregationState([aggregate(AggregateFunction.SUM)])
        fold(state, [((1, "x"), (5,), 1 << 1, 2)])
        assert _groups_payload(state) == [
            {
                "key": {"__tuple__": [1, "x"]},
                "total_count": 2,
                "fragment_counts": {1: 2},
                "accumulators": [
                    {
                        "kind": "sum_count",
                        "function": "sum",
                        "total": 10.0,
                        "non_null_count": 2,
                        "star_count": 2,
                    }
                ],
            }
        ]

    def test_merge_operator_counts(self):
        merge = MergeOperator(Feed(SCHEMA))

        def apply(entries):
            merge.child.queue(((0, 0), mask, count) for mask, count in entries)
            delta = merge.process_to_sketch_delta(None)
            return delta.added, delta.removed

        assert apply([(0b1000, 2)]) == ({3}, set())
        assert apply([(0b1000, -1), (0b0010, 1)]) == ({1}, set())
        assert merge.counts == {3: 1, 1: 1}
        # Entering and leaving within one batch is no change.
        assert apply([(0b0100, 1), (0b1100, -1)]) == (set(), {3})
        assert merge.mask == 0b0010 and merge.counts == {1: 1}

    def test_shared_fold_with_one_slot(self):
        counts, masks = {}, [0]
        fold_fragments([0, 0], [0b101, 0b100], [1, 1], [counts], masks)
        assert counts == {0: 1, 2: 2} and masks == [0b101]
        # A count that passes through zero is re-appended at the end.
        fold_fragments([0, 0], [0b001, 0b001], [-1, 1], [counts], masks)
        assert list(counts.items()) == [(2, 2), (0, 1)] and masks == [0b101]

    def test_memory_accounting_is_positive(self):
        state = AggregationState([aggregate(AggregateFunction.SUM)])
        fold(state, [((1,), (1,), 1, 1)])
        assert state.memory_bytes() > 0
        assert MergeOperator(Feed(SCHEMA)).memory_bytes() > 0


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
        assert {key: list(bucket.items()) for key, bucket in state.buckets.items()} == buckets
        assert (state.stored_count, state.overflow_count) == (stored, overflow)
        assert stored + overflow == sum(entry[3] for entry in entries)

    def test_full_buffer_counts_worse_entries_without_storing_them(self):
        state = TopKState(buffer_limit=2)
        state.add((1,), ("a",), 0, 1)
        state.add((1,), ("b",), 0, 1)
        state.add((1,), ("c",), 0, 4)  # ties with the stored maximum: counted
        state.add((5,), ("d",), 0, 1)
        assert list(state.buckets[(1,)]) == [(("a",), 0), (("b",), 0)]
        assert (5,) not in state.buckets
        assert (state.stored_count, state.overflow_count) == (2, 5)
        state.add((0,), ("first",), 0, 1)  # better: evicts the latest tie
        assert list(state.buckets[(1,)]) == [(("a",), 0)]
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


# -- μ against the one merge ------------------------------------------------------------

MASKS = st.integers(min_value=0, max_value=0b111111)


@st.composite
def streams(draw) -> list[tuple[list[int], list[int]]]:
    """Batches of ``(annotations, counts)``.  A unit-count batch only inserts
    single tuples; a mixed-sign batch inserts and deletes, in any order, and
    deletes only annotated tuples present before it."""
    present: dict[int, int] = {}
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if draw(st.booleans()):
            annotations = draw(st.lists(MASKS, max_size=12))
            counts = [1] * len(annotations)
        else:
            held = {mask: count for mask, count in present.items() if count > 0}
            entries = []
            for _ in range(draw(st.integers(min_value=0, max_value=12))):
                if held and draw(st.booleans()):
                    mask = draw(st.sampled_from(sorted(held)))
                    count = draw(st.integers(min_value=1, max_value=held[mask]))
                    held[mask] -= count
                    if not held[mask]:
                        del held[mask]
                    entries.append((mask, -count))
                else:
                    entries.append((draw(MASKS), draw(st.integers(min_value=1, max_value=3))))
            annotations = [mask for mask, _count in entries]
            counts = [count for _mask, count in entries]
        for mask, count in zip(annotations, counts):
            present[mask] = present.get(mask, 0) + count
        batches.append((annotations, counts))
    return batches


@settings(max_examples=300, deadline=None)
@given(streams())
def test_the_merge_operator_counts_fragments_as_the_one_merge_does(stream):
    """``μ``'s counts are the one merge of each entry's count into each of its
    fragments, entry by entry and in order, never netting equal masks: a
    count that passes through zero leaves and re-enters at the end.  A
    fragment enters the sketch when its count turns positive and leaves when
    it drops to zero."""
    merge_operator, totals = MergeOperator(Feed(SCHEMA)), {}
    for annotations, counts in stream:
        before = dict(totals)
        merge(
            (
                (fragment, count)
                for annotation, count in zip(annotations, counts)
                for fragment in iter_bits(annotation)
            ),
            totals,
        )
        entries = zip([(0, 0)] * len(counts), annotations, counts)
        merge_operator.child.queue(entries)
        entered = frozenset(totals.keys() - before.keys())
        left = frozenset(before.keys() - totals.keys())
        assert merge_operator.process_to_sketch_delta(None) == SketchDelta(entered, left)
        assert list(merge_operator.counts.items()) == list(totals.items())
        assert merge_operator.mask == sum(1 << fragment for fragment in totals)
