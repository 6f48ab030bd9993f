"""Model tests of IMP's ordered state against a sorted ``Counter``.

:class:`MinMaxAccumulator` (a ``min``/``max`` group's values) and
:class:`TopKState` (a top-k operator's entries) keep their values or sort
keys in a dict plus a sorted key list.  Random signed updates are applied to
each and to a plain ``Counter``; after every step the state must answer what
sorting the counter answers -- with and without a bounded buffer, whose
eviction keeps exactly the best ``stored`` copies and whose exhaustion is
reported rather than hidden.  NaN sorts after every number; top-k keys are
``order_component`` tuples, DESC text (``_Reversed``) included.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StateError
from repro.imp.state import MinMaxAccumulator, TopKState, _SortedDict
from repro.relational.algebra import AggregateFunction
from repro.relational.schema import descending_component, order_component

NAN = math.nan
MIN, MAX = AggregateFunction.MIN, AggregateFunction.MAX
NUMBERS = [NAN, -0.0, 0.0, 1, 1.0, True, 2.5, -3, 7, 100]
TEXT = ["a", "b", "ab", "z", ""]
BUFFERS = [None, 1, 2, 3, 5]


def updates(pool: list):
    """``(pool index, count, delete?)`` steps; a delete takes back at most
    what is live (deltas never delete what is not there)."""
    return st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 3), st.booleans()),
        max_size=60,
    )


def nan_last(value) -> tuple:
    return (1, 0) if value != value else (0, value)


def check_sorted(state_dict) -> None:
    assert state_dict.order == sorted(state_dict)  # sorted, and exactly the dict's keys


def same(first, second) -> bool:
    return first == second or (first != first and second != second)


class TestSortedDict:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NUMBERS[1:]), st.booleans()), max_size=80))
    def test_matches_a_dict_and_sorted(self, operations):
        state, model = _SortedDict(), {}
        for key, delete in operations:
            if delete and key in model:
                del state[key]
                del model[key]
            elif not delete:
                state[key] = model[key] = model.get(key, 0) + 1
            check_sorted(state)
            assert dict(state) == model
            assert list(state.items()) == sorted(model.items())

    def test_equal_keys_of_other_types_are_one_key(self):
        state = _SortedDict()
        for key in (1, True, 1.0, 0.0, -0.0):
            state[key] = state.get(key, 0) + 1
        assert list(state.items()) == [(0.0, 2), (1, 3)]
        assert repr(state.order) == "[0.0, 1]"  # the first arrival is the key
        del state[True]
        assert state.order == [0.0] and list(state) == [0.0]

    def test_an_incomparable_key_raises_before_any_change(self):
        state = _SortedDict()
        state["b"] = 1
        with pytest.raises(TypeError):
            state[2] = 1
        assert state == {"b": 1} and state.order == ["b"]

    def test_smallest_and_largest_are_the_ends_of_the_order(self):
        state = _SortedDict()
        for key in (5, -2, 9, 3):
            state[key] = str(key)
        assert (state.order[0], state.order[-1]) == (-2, 9)
        del state[9]
        del state[-2]
        assert (state.order[0], state.order[-1]) == (3, 5)


class TestMinMaxAccumulator:
    @pytest.mark.parametrize("buffer", BUFFERS)
    @pytest.mark.parametrize("function", [MIN, MAX])
    @pytest.mark.parametrize("pool", [NUMBERS, TEXT], ids=["numbers", "text"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_matches_a_sorted_counter(self, pool, function, buffer, data):
        accumulator = MinMaxAccumulator(function, buffer)
        live: Counter = Counter()
        for index, count, delete in data.draw(updates(pool)):
            value = pool[index]
            if delete:
                count = min(count, live[value])
                if not count:
                    continue
            accumulator.update(value, -count if delete else count)
            live[value] += -count if delete else count
            live = +live

            check_sorted(accumulator.values)
            ranked = sorted(live.elements(), key=nan_last)
            if function is MAX:
                ranked.reverse()
            held = accumulator.stored
            assert held + accumulator.overflow_count == len(ranked)
            assert held == len(ranked) if buffer is None else held <= buffer
            # The buffer holds exactly the best ``stored`` copies.
            assert Counter(dict(accumulator.items())) == Counter(ranked[:held])
            if accumulator.exhausted:
                assert buffer is not None and not held and accumulator.overflow_count
                with pytest.raises(StateError):
                    accumulator.result()
                return
            assert same(accumulator.result(), ranked[0] if ranked else None)

    @pytest.mark.parametrize(
        "values, minimum, maximum",
        [
            ([NAN, 3.0, 1.0], 1.0, NAN),
            ([3.0, NAN, 1.0], 1.0, NAN),
            ([NAN, NAN], NAN, NAN),
            ([-0.0, 0.0], -0.0, -0.0),
            ([True, 1, 1.0], True, True),
        ],
    )
    def test_nan_sorts_after_every_number(self, values, minimum, maximum):
        for function, expected in ((MIN, minimum), (MAX, maximum)):
            accumulator = MinMaxAccumulator(function)
            for value in values:
                accumulator.update(value, 1)
            assert repr(accumulator.result()) == repr(expected)

    def test_deleting_the_nan_restores_the_numbers(self):
        maximum = MinMaxAccumulator(MAX)
        for value in (2.0, NAN, 5.0):
            maximum.update(value, 1)
        assert math.isnan(maximum.result())
        maximum.update(NAN, -1)
        assert maximum.result() == 5.0 and maximum.items() == [(2.0, 1), (5.0, 1)]

    @pytest.mark.parametrize("first, second", [(NAN, "x"), ("x", NAN), (5, "x")])
    def test_values_that_do_not_compare_raise_before_any_change(self, first, second):
        accumulator = MinMaxAccumulator(MIN)
        accumulator.update(first, 1)
        before = accumulator.items()
        with pytest.raises(TypeError):
            accumulator.update(second, 1)
        assert repr(accumulator.items()) == repr(before) and accumulator.stored == 1


# Sort keys of one ASC numeric item and one DESC text item: NaN's component
# ties with itself, the text ones compare reversed through ``_Reversed``.
# Each row comes with two annotations, so a sort key holds several entries.
ENTRIES = [
    ((x, name), annotation)
    for x in (NAN, 0.0, 1, 2.5, None)
    for name in ("a", "b", "z")
    for annotation in (0b01, 0b10)
]


def sort_key(row: tuple) -> tuple:
    return (order_component(row[0]), descending_component(row[1]))


class TestTopKState:
    @pytest.mark.parametrize("buffer", BUFFERS)
    @pytest.mark.parametrize("k", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_a_sorted_counter(self, k, buffer, data):
        state = TopKState(buffer)
        live: Counter = Counter()  # (row, annotation) -> count, in arrival order
        for index, count, delete in data.draw(updates(ENTRIES)):
            entry = ENTRIES[index]
            if delete:
                count = min(count, live[entry])
                if not count:
                    continue
                state.remove(sort_key(entry[0]), *entry, count)
                live[entry] -= count
            else:
                state.add(sort_key(entry[0]), *entry, count)
                live[entry] += count
            live = +live

            check_sorted(state.buckets)
            assert not state.exhausted  # only deleting what is not there exhausts
            stored = state.stored_count
            assert stored + state.overflow_count == sum(live.values())
            ranked = sorted(live.elements(), key=lambda entry: sort_key(entry[0]))
            if buffer is None:
                # Unbounded: every entry, by sort key, then in arrival order.
                walked = [
                    (row, annotation, count)
                    for _key, bucket in state.buckets.items()
                    for (row, annotation), count in bucket.items()
                ]
                expected = sorted(live.items(), key=lambda item: sort_key(item[0][0]))
                assert walked == [(row, annotation, count) for (row, annotation), count in expected]
                assert state.top_k(k) == _first(walked, k)
            else:
                # Bounded: the buffer holds the best ``stored`` copies by sort
                # key; ties at its edge may keep any of the tied entries.
                assert stored <= buffer
                held = [
                    key for key, bucket in state.buckets.items() for count in bucket.values()
                    for _ in range(count)
                ]
                assert held == [sort_key(row) for row, _a in ranked[:stored]]
            if state.can_answer(k):
                top = state.top_k(k)
                assert [sort_key(row) for row, _a, count in top for _ in range(count)] == [
                    sort_key(row) for row, _a in ranked[:k]
                ]
            else:
                assert buffer is not None and stored < k and state.overflow_count

    def test_deleting_what_is_not_there_exhausts(self):
        state = TopKState(buffer_limit=2)
        for i in range(3):
            state.add((i,), (i,), 0, 1)
        state.remove((9,), (9,), 0, 2)
        assert state.exhausted and not state.can_answer(1)
        with pytest.raises(StateError):
            state.top_k(1)


def _first(walked: list, k: int) -> list:
    """The first ``k`` copies of ``(row, annotation, count)`` entries."""
    taken, remaining = [], k
    for row, annotation, count in walked:
        if remaining <= 0:
            break
        taken.append((row, annotation, min(count, remaining)))
        remaining -= min(count, remaining)
    return taken
