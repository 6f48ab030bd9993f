"""Operator state for the incremental engine.

Each stateful incremental operator keeps exactly the state described in
Sec. 5.2 of the paper:

* aggregation (:class:`AggregationState`): per group its tuple count, the map
  ``ℱ_g`` counting, for every range of the partition, how many input tuples
  of the group carry that range in their sketch, and per aggregate
  ``SUM``/``CNT`` (``sum``/``count``/``avg``) or the values with their counts
  in sorted order (``min``/``max``, optionally truncated to a top-``l``
  buffer, Sec. 7.2).  Groups are *slots*: the key maps to an index into one
  list per quantity, and a batch is folded into the lists column by column
  with the batch kernel's ``fold_aggregate`` at signed counts;
* top-k: a sorted map from ORDER BY keys to annotated tuples and their
  multiplicities (optionally truncated to ``l ≥ k`` entries);
* duplicate elimination: the aggregation slots with no aggregate, keyed by
  row -- per-row reference counts and their ``ℱ``;
* join: per input, a Bloom filter over its join keys until a delta of the
  other input first needs partners, and from then on the input's annotated
  result as a key index, brought forward by the input's own deltas;
* the merge operator ``μ``: a count per range of how many result tuples carry
  that range.

All states support byte-size estimation (for the memory experiments), and
:mod:`repro.imp.persistence` serialises all but the join's so the middleware
can persist and restore them through the backend database (Sec. 2).  Join
state is derived data: a restored join rebuilds it lazily.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from typing import Any

from repro.core.bloom import BloomFilter
from repro.core.errors import StateError
from repro.core.timing import MemoryMeter
from repro.imp.annotated import AnnotatedDelta
from repro.relational import kernels
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.schema import Row
from repro.sketch.sketch import iter_bits


class _SortedDict(dict):
    """A dict whose keys are also kept in a sorted list, ``order`` -- the
    paper's ordered ``CNT`` structure (Sec. 5.2.6, 5.2.7).

    The smallest key is ``order[0]``, the largest ``order[-1]``, and
    :meth:`items` walks ``order``.  A new key is placed by bisection, a
    removed one found by bisection, and the list shifts at C speed, which
    beats a balanced tree up to tens of thousands of keys.  Keys must be
    hashable, mutually comparable and equal exactly when neither sorts
    before the other -- so NaN is never a key.  Only ``d[key] = value`` and
    ``del d[key]`` may change the keys.
    """

    __slots__ = ("order",)

    def __init__(self) -> None:
        super().__init__()
        self.order: list = []

    def __setitem__(self, key: Any, value: Any) -> None:
        if key not in self:
            insort(self.order, key)  # an incomparable key raises before any change
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        del self.order[bisect_left(self.order, key)]

    def items(self) -> Iterator[tuple[Any, Any]]:  # type: ignore[override]
        """``(key, value)`` pairs in ascending key order."""
        return ((key, self[key]) for key in self.order)


class MinMaxAccumulator:
    """One group's values of a ``min``/``max`` aggregate (Sec. 5.2.6);
    :class:`AggregationState` keeps one per slot.

    ``values`` counts each value in a :class:`_SortedDict`.  NaN, which no
    comparison orders, is not a key: ``nan_count`` counts it, and it sorts
    after every number (:func:`~repro.relational.schema.order_component`'s
    rule, and PostgreSQL's) -- ``min`` is NaN only when every value is, and
    ``max`` is NaN once any value is.

    With a ``buffer_limit`` only the ``l`` best values are retained
    (smallest for min, largest for max); values beyond the buffer are only
    counted.  When deletions exhaust the buffer while overflow values remain,
    the accumulator can no longer produce the correct extreme and reports
    itself as *exhausted*, signalling the engine to recapture (Sec. 7.2,
    "Optimizing Minimum, Maximum, and Top-k").
    """

    __slots__ = (
        "function", "values", "nan_count", "stored", "buffer_limit", "overflow_count", "exhausted"
    )

    def __init__(self, function: AggregateFunction, buffer_limit: int | None = None) -> None:
        if function not in (AggregateFunction.MIN, AggregateFunction.MAX):
            raise StateError("MinMaxAccumulator only supports min and max")
        self.function = function
        self.values = _SortedDict()
        self.nan_count = 0
        self.stored = 0  # values held, NaN included
        self.buffer_limit = buffer_limit
        self.overflow_count = 0
        self.exhausted = False

    # -- updates -------------------------------------------------------------------

    def update(self, value: object, multiplicity: int) -> None:
        """Apply a signed multiplicity of ``value``."""
        if value is None:
            return
        if value != value or self.nan_count:
            # NaN is a float: a value no float orders with raises here, as it
            # does in the batch kernel's fold, even though NaN is not a key.
            _ = value < (self.values.order[0] if self.values else math.nan)
        if multiplicity > 0:
            self._insert(value, multiplicity)
        elif multiplicity < 0:
            self._delete(value, -multiplicity)

    def _insert(self, value: object, count: int) -> None:
        # No counted-only value beats a buffered one, so a value worse than the
        # buffer's worst is only counted: buffered, it could hide a better one.
        if self.overflow_count and self.stored:
            worst = self._worst()
            pair = (worst, value) if self.function is AggregateFunction.MIN else (value, worst)
            if self._before(*pair):
                self.overflow_count += count
                return
        self.hold(value, count)
        while self.buffer_limit is not None and self.stored > self.buffer_limit:
            self.overflow_count += self._remove(self._worst(), self.stored - self.buffer_limit)

    def hold(self, value: object, count: int) -> None:
        """Store ``count`` copies of ``value``, bypassing the buffer."""
        if value != value:
            self.nan_count += count
        else:
            self.values[value] = self.values.get(value, 0) + count
        self.stored += count

    @staticmethod
    def _before(first: object, second: object) -> bool:
        """Whether ``first`` sorts before ``second``, NaN after every number."""
        return first == first and (second != second or first < second)  # type: ignore[operator]

    def _worst(self) -> object:
        if self.function is AggregateFunction.MIN:
            return math.nan if self.nan_count else self.values.order[-1]
        return self.values.order[0] if self.values else math.nan

    def _remove(self, value: object, count: int) -> int:
        """Remove up to ``count`` stored copies of ``value``; how many went."""
        if value != value:
            removed = min(self.nan_count, count)
            self.nan_count -= removed
        else:
            held = self.values.get(value, 0)
            removed = min(held, count)
            if removed < held:
                self.values[value] = held - removed
            elif held:
                del self.values[value]
        self.stored -= removed
        return removed

    def _delete(self, value: object, count: int) -> None:
        missing = count - self._remove(value, count)
        if missing > 0:
            # The deleted values were (presumably) beyond the buffer.
            if self.overflow_count >= missing:
                self.overflow_count -= missing
            else:
                self.overflow_count = 0
                self.exhausted = True
        if not self.stored and self.overflow_count > 0:
            # We know values exist but not what they are.
            self.exhausted = True

    # -- results -------------------------------------------------------------------

    def items(self) -> list[tuple[object, int]]:
        """``(value, count)`` of the stored values in ascending order, NaN last."""
        items = list(self.values.items())
        if self.nan_count:
            items.append((math.nan, self.nan_count))
        return items

    def result(self) -> object:
        """The current minimum / maximum (None when no non-null values exist)."""
        if self.exhausted:
            raise StateError("min/max state exhausted; sketch must be recaptured")
        if self.function is AggregateFunction.MAX and self.nan_count:
            return math.nan
        if self.values:
            order = self.values.order
            return order[0] if self.function is AggregateFunction.MIN else order[-1]
        return math.nan if self.nan_count else None


# Which aggregates keep a per-slot total, non-NULL count or multiset.
_SUMMED = (AggregateFunction.SUM, AggregateFunction.AVG)
_COUNTED = (*_SUMMED, AggregateFunction.COUNT)
_EXTREMES = (AggregateFunction.MIN, AggregateFunction.MAX)


class AggregationState:
    """State of an incremental aggregation operator, one slot per group.

    ``slots`` maps each live group key to its slot, in order of creation, and
    every quantity of a group is an entry of a list indexed by slot:

    * ``keys``; ``total_count``, the group's signed tuple count (the group
      exists while it is positive, and it is every ``count(*)``);
      ``fragment_counts``, the map ``ℱ_g`` from fragment to count; ``mask``,
      the fragments whose count is positive (the group's sketch, changed only
      where a count crosses zero);
    * per aggregate, ``totals`` (``sum``/``avg``) and ``non_null`` (the
      tuples with a non-NULL value: ``sum``/``avg``/``count``), or
      ``extremes`` (``min``/``max``: a :class:`MinMaxAccumulator` per slot);
      the entry is ``None`` for a list the aggregate does not keep;
    * per ``sum``/``avg``, ``non_finite``: ``slot -> [NaN, +inf, -inf]``
      counts for the slots holding such values.  They never enter the total
      (``total - nan`` is still NaN, so a deleted NaN would never leave it):
      the result is NaN while there is a NaN or both infinities, else the
      one infinity held, else the total.

    A dropped group's slot is cleared and kept on ``free`` for the next new
    key.  With no aggregates this is duplicate elimination's state: per-row
    reference counts and their ``ℱ``.  :mod:`repro.imp.persistence` writes
    and reads it as one dict per group.
    """

    def __init__(
        self, aggregates: Sequence[Aggregate] = (), min_max_buffer: int | None = None
    ) -> None:
        self.aggregates = tuple(aggregates)
        self.min_max_buffer = min_max_buffer
        self.slots: dict[Any, int] = {}
        self.keys: list = []
        self.total_count: list[int] = []
        self.fragment_counts: list[dict[int, int]] = []
        self.mask: list[int] = []
        functions = [None if a.argument is None else a.function for a in self.aggregates]
        self.totals = [[] if function in _SUMMED else None for function in functions]
        self.non_null = [[] if function in _COUNTED else None for function in functions]
        self.extremes = [[] if function in _EXTREMES else None for function in functions]
        self.non_finite: list[dict[int, list[int]] | None] = [
            {} if function in _SUMMED else None for function in functions
        ]
        self.free: list[int] = []
        self._results = [self._result(index) for index in range(len(functions))]

    def _result(self, index: int) -> Callable[[list[int]], list]:
        """``slots -> values`` of one aggregate (full-evaluation semantics)."""
        aggregate = self.aggregates[index]
        if aggregate.argument is None:
            total_count = self.total_count
            return lambda slots: [total_count[slot] for slot in slots]
        extremes = self.extremes[index]
        if extremes is not None:
            return lambda slots: [extremes[slot].result() for slot in slots]
        non_null = self.non_null[index]
        if aggregate.function is AggregateFunction.COUNT:
            return lambda slots: [non_null[slot] for slot in slots]
        totals, non_finite = self.totals[index], self.non_finite[index]
        average = aggregate.function is AggregateFunction.AVG

        def sums(slots: list[int]) -> list:
            if average:
                values = [totals[s] / non_null[s] if non_null[s] else None for s in slots]
            else:
                values = [totals[s] if non_null[s] else None for s in slots]
            if non_finite:
                # A slot holding NaN or ±inf shows its non-finite total, as
                # an average too.
                values = [
                    _non_finite_total(non_finite[s]) if s in non_finite else value
                    for s, value in zip(slots, values)
                ]
            return values

        return sums

    def slot_ids(self, keys: Iterable) -> list[int]:
        """The slot of each key; new keys get one (freed slots first) in
        order of first occurrence."""
        keys = list(keys)
        slots = self.slots
        new_keys = [key for key in dict.fromkeys(keys) if key not in slots]
        if new_keys:
            self._allocate(new_keys)
        return list(map(slots.__getitem__, keys))

    def _allocate(self, new_keys: list) -> None:
        slots, free = self.slots, self.free
        grown = max(0, len(new_keys) - len(free))
        if grown:
            start = len(self.keys)
            self.keys.extend([None] * grown)
            for column, empty in self._defaults():
                column.extend([empty() for _ in range(grown)])
            free[:0] = range(start + grown - 1, start - 1, -1)  # popped after the freed
        for key in new_keys:
            slot = free.pop()
            self.keys[slot] = key
            slots[key] = slot

    def drop(self, slot: int) -> None:
        """Forget the group in ``slot`` and free the slot."""
        del self.slots[self.keys[slot]]
        self.keys[slot] = None
        for column, empty in self._defaults():
            column[slot] = empty()
        for non_finite in self.non_finite:
            if non_finite:
                # Net counts are zero by now, unless a fold that failed on a
                # later aggregate counted values in a slot it allocated.
                non_finite.pop(slot, None)
        self.free.append(slot)

    def _defaults(self) -> list[tuple[list, Callable[[], object]]]:
        """Each per-slot list but ``keys``, with what an empty slot holds."""
        defaults: list[tuple[list, Callable[[], object]]] = [
            (self.total_count, int),
            (self.fragment_counts, dict),
            (self.mask, int),
        ]
        for aggregate, totals, non_null, extremes in zip(
            self.aggregates, self.totals, self.non_null, self.extremes
        ):
            if totals is not None:
                defaults.append((totals, float))
            if non_null is not None:
                defaults.append((non_null, int))
            if extremes is not None:
                empty = partial(MinMaxAccumulator, aggregate.function, self.min_max_buffer)
                defaults.append((extremes, empty))
        return defaults

    def fold(
        self,
        ids: list[int],
        arguments: Sequence[list | None],
        annotations: list[int],
        counts: list[int],
    ) -> None:
        """Add ``counts[i]`` (signed) annotated tuples to slot ``ids[i]``;
        ``arguments`` holds one value column per aggregate (``None`` for
        ``count(*)``).  Sums and counts are the batch kernel's fold; min/max
        update their slot's multiset per entry.  A ``sum``/``avg`` column
        whose C-level sum is not finite takes a per-value pass first that
        moves its NaN and ±inf into ``non_finite``.

        A value an aggregate cannot fold raises :class:`AggregateError`
        before any ``total_count`` or ``ℱ`` changes, so a slot this batch
        allocated is still empty -- but aggregates of the batch's groups may
        already be folded in part."""
        for aggregate, column, totals, non_null, extremes, non_finite in zip(
            self.aggregates,
            arguments,
            self.totals,
            self.non_null,
            self.extremes,
            self.non_finite,
        ):
            try:
                if non_finite is not None and not math.isfinite(sum(filter(None, column))):
                    column = _count_non_finite(non_finite, ids, column, counts)
                if non_null is not None:
                    kernels.fold_aggregate(ids, column, counts, non_null, totals)
                if extremes is not None:
                    for slot, value, count in zip(ids, column, counts):
                        extremes[slot].update(value, count)
            except TypeError as exc:
                raise kernels.fold_error(aggregate) from exc
        kernels.fold_aggregate(ids, None, counts, self.total_count)
        fragment_counts, mask = self.fragment_counts, self.mask
        entries: Iterable[tuple[int, int, int]] = zip(ids, annotations, counts)
        if counts.count(1) == len(counts):
            # Every count is 1 (a capture, an insert-only delta): fold each
            # distinct annotated slot once, with its number of entries.
            pairs = Counter(zip(ids, annotations))
            entries = ((slot, annotation, count) for (slot, annotation), count in pairs.items())
        for slot, annotation, count in entries:
            per_fragment = fragment_counts[slot]
            while annotation:
                low = annotation & -annotation
                annotation ^= low
                fragment = low.bit_length() - 1
                updated = per_fragment.get(fragment, 0) + count
                if updated:
                    per_fragment[fragment] = updated
                else:
                    per_fragment.pop(fragment, None)
                # ``updated - count`` is the count before: touch the mask only
                # when the count crosses zero.
                if updated > 0:
                    if updated <= count:
                        mask[slot] |= low
                elif updated > count:
                    mask[slot] &= ~low

    def values(self, slots: list[int]) -> list[tuple]:
        """The aggregate results of each group in ``slots`` (``()`` per group
        with no aggregate)."""
        if not self._results:
            return [()] * len(slots)
        return list(zip(*[result(slots) for result in self._results]))

    def exhausted(self, slots: list[int]) -> set[int]:
        """The groups in ``slots`` where a min/max lost track of its extreme."""
        return {
            slot
            for extremes in self.extremes
            if extremes is not None
            for slot in slots
            if extremes[slot].exhausted
        }

    def __len__(self) -> int:
        return len(self.slots)

    def memory_bytes(self) -> int:
        """Estimated memory footprint of the aggregation state."""
        columns = [column for column, _empty in self._defaults()]
        columns += [non_finite for non_finite in self.non_finite if non_finite]
        return MemoryMeter().measure_many([self.slots, self.keys, *columns, self.free])


def _count_non_finite(
    non_finite: dict[int, list[int]], ids: list[int], column: list, counts: list[int]
) -> list:
    """Add the signed count of each NaN, +inf and -inf of ``column`` to its
    slot's ``[NaN, +inf, -inf]`` in ``non_finite``; the column with each of
    them replaced by ``0.0``, which leaves a total as it is but is still a
    non-NULL value."""
    finite = list(column)
    touched = set()
    for i, value in enumerate(column):
        if value is not None and not math.isfinite(value):
            slot = ids[i]
            kinds = non_finite.setdefault(slot, [0, 0, 0])
            kinds[0 if value != value else 1 if value > 0 else 2] += counts[i]
            finite[i] = 0.0
            touched.add(slot)
    for slot in touched:
        if not any(non_finite[slot]):
            del non_finite[slot]
    return finite


def _non_finite_total(kinds: list[int]) -> float:
    """The sum of a slot's values given its ``[NaN, +inf, -inf]`` counts."""
    nan, positive, negative = kinds
    if nan or (positive and negative):
        return math.nan
    return math.inf if positive else -math.inf


class JoinSideState:
    """What an incremental join keeps of one input's current result.

    A side is either *summarised* by a Bloom filter over its join keys --
    enough to tell that a delta tuple of the other side has no partner -- or,
    from the first time a partner is actually needed, *materialised* as a key
    index ``buckets[join key][(row, annotation)] = signed count``.
    Materialising releases the filter: the index answers exactly.  A side
    with neither (filters disabled, state restored from the backend) prunes
    nothing and is materialised by the first delta of the other side.

    Buckets are dicts, never sets: probe results feed float accumulators in
    entry order, so a bucket iterates in insertion order.  A theta or cross
    join keys every row by ``()`` and so keeps a single bucket.
    """

    def __init__(self) -> None:
        self.bloom: BloomFilter | None = None
        self.buckets: dict[tuple, dict[tuple[Row, int], int]] | None = None
        self._entries = 0  # entries over all buckets, for memory_bytes()

    def summarise(
        self, key: Callable[[Row], tuple], whole: AnnotatedDelta, false_positive_rate: float
    ) -> None:
        """Seed the filter from the side's ``whole`` result."""
        keys = set(map(key, whole.rows))
        self.bloom = BloomFilter(max(len(keys), 16), false_positive_rate)
        self.bloom.add_all(keys)

    def materialise(self, key: Callable[[Row], tuple], whole: AnnotatedDelta) -> None:
        """Index the side's ``whole`` result and release the filter."""
        self.bloom = None
        self.buckets = {}
        self._entries = 0
        self.apply(key, whole)

    def apply(self, key: Callable[[Row], tuple], delta: AnnotatedDelta) -> None:
        """Bring the side forward by its own delta.  Inserted keys enter the
        filter of a summarised side; a materialised side adds the signed
        counts and drops entries (and buckets) that reach zero."""
        buckets = self.buckets
        if buckets is None:
            if self.bloom is not None:
                self.bloom.add_all(
                    {key(row) for row, count in zip(delta.rows, delta.counts) if count > 0}
                )
            return
        for join_key, entry, count in zip(
            map(key, delta.rows), zip(delta.rows, delta.annotations), delta.counts
        ):
            bucket = buckets.get(join_key)
            if bucket is None:
                bucket = buckets[join_key] = {}
            previous = bucket.get(entry, 0)
            if previous + count:
                bucket[entry] = previous + count
                if not previous:
                    self._entries += 1
            else:
                del bucket[entry]
                self._entries -= 1
                if not bucket:
                    del buckets[join_key]

    def memory_bytes(self) -> int:
        """Footprint of the filter or of the index, whichever the side has.

        The index is not walked (a store with a memory budget asks after every
        round): its bucket and entry counts are multiplied by the size of the
        first bucket's key tuple (its values are the rows' own) and the deep
        size of that bucket's first entry plus its dict slot.  The slot is
        priced on a fresh one-entry dict, not on the sampled bucket: a dict
        that has shrunk keeps the capacity it grew to.
        """
        buckets = self.buckets
        if buckets is None:
            return self.bloom.byte_size() if self.bloom is not None else 0
        size = sys.getsizeof(buckets)
        if buckets:
            join_key, bucket = next(iter(buckets.items()))
            entry = next(iter(bucket))
            size += len(buckets) * sys.getsizeof(join_key)
            size += self._entries * (
                MemoryMeter().measure_many((entry, bucket[entry]))
                + sys.getsizeof({entry: bucket[entry]})
            )
        return size


class TopKState:
    """State of the incremental top-k operator (Sec. 5.2.7).

    ``buckets`` maps ORDER BY sort keys (``order_component`` tuples, never
    NaN) to the annotated tuples sharing that key and their multiplicities,
    in a :class:`_SortedDict`.  With a ``buffer_limit`` only
    the best ``l`` tuples are stored; the rest are only counted so deletions of
    buffered tuples can be detected as exhausting the buffer.
    """

    def __init__(self, buffer_limit: int | None = None) -> None:
        self.buckets = _SortedDict()  # sort key -> {(row, annotation): count}
        self.buffer_limit = buffer_limit
        self.stored_count = 0
        self.overflow_count = 0
        self.exhausted = False

    # -- updates ------------------------------------------------------------------

    def add(self, sort_key: tuple, row: Row, annotation: int, multiplicity: int) -> None:
        """Insert ``multiplicity`` copies of a tuple annotated with a fragment mask.

        The buffer holds the first ``buffer_limit`` copies in ``(sort key,
        arrival)`` order -- what a stable sort of everything added would keep.
        """
        bucket = self.buckets.get(sort_key)
        entry = (row, annotation)
        if (
            self.buffer_limit is not None
            and (self.stored_count >= self.buffer_limit or self.overflow_count)
            and (bucket is None or entry not in bucket)
            and not (self.buckets and sort_key < self.buckets.order[-1])
        ):
            # A new entry that sorts behind everything stored is only counted
            # once the buffer is full or holds less than there is: stored, it
            # could hide a counted-only entry that sorts before it.
            self.overflow_count += multiplicity
            return
        if bucket is None:
            bucket = self.buckets[sort_key] = {}
        bucket[entry] = bucket.get(entry, 0) + multiplicity
        self.stored_count += multiplicity
        self._evict_overflow()

    def remove(self, sort_key: tuple, row: Row, annotation: int, multiplicity: int) -> None:
        """Remove up to ``multiplicity`` copies of an annotated tuple."""
        bucket = self.buckets.get(sort_key)
        entry = (row, annotation)
        available = bucket.get(entry, 0) if bucket else 0
        removed = min(available, multiplicity)
        if removed:
            remaining = available - removed
            if remaining:
                bucket[entry] = remaining  # type: ignore[index]
            else:
                del bucket[entry]  # type: ignore[arg-type]
                if not bucket:
                    del self.buckets[sort_key]
            self.stored_count -= removed
        missing = multiplicity - removed
        if missing > 0:
            if self.overflow_count >= missing:
                self.overflow_count -= missing
            else:
                self.overflow_count = 0
                self.exhausted = True

    def _evict_overflow(self) -> None:
        if self.buffer_limit is None:
            return
        while self.stored_count > self.buffer_limit:
            largest_key = self.buckets.order[-1]
            bucket = self.buckets[largest_key]
            entry = next(reversed(bucket))  # the latest arrival of the worst key
            count = bucket[entry]
            evict = min(count, self.stored_count - self.buffer_limit)
            remaining = count - evict
            if remaining:
                bucket[entry] = remaining
            else:
                del bucket[entry]
                if not bucket:
                    del self.buckets[largest_key]
            self.stored_count -= evict
            self.overflow_count += evict

    # -- queries ------------------------------------------------------------------

    def top_k(self, k: int) -> list[tuple[Row, int, int]]:
        """The current top-k ``(row, fragment mask, multiplicity)`` entries
        (with truncated multiplicities)."""
        if self.exhausted:
            raise StateError("top-k state exhausted; sketch must be recaptured")
        result: list[tuple[Row, int, int]] = []
        remaining = k
        for _key, bucket in self.buckets.items():
            for (row, annotation), multiplicity in bucket.items():
                if remaining <= 0:
                    return result
                take = min(multiplicity, remaining)
                result.append((row, annotation, take))
                remaining -= take
            if remaining <= 0:
                break
        return result

    def can_answer(self, k: int) -> bool:
        """Whether the buffer still holds enough tuples to produce a top-k."""
        if self.exhausted:
            return False
        if self.overflow_count == 0:
            return True
        return self.stored_count >= k

    def memory_bytes(self) -> int:
        return MemoryMeter().measure(self.buckets) + 64

    def __len__(self) -> int:
        return self.stored_count


class MergeState:
    """Reference counts of the merge operator ``μ`` (Sec. 5.1)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def apply(
        self, entries: Iterable[tuple[int, int]]
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Add ``count`` (signed) references to every fragment of each
        ``(annotation mask, count)`` entry.

        Returns the fragments that ``(entered, left)`` the sketch, i.e. whose
        reference count became positive / stopped being positive.
        """
        totals = self.counts
        before: dict[int, int] = {}
        for annotation, count in entries:
            for fragment in iter_bits(annotation):
                current = totals.get(fragment, 0)
                before.setdefault(fragment, current)
                if current + count:
                    totals[fragment] = current + count
                else:
                    totals.pop(fragment, None)
        entered = {f for f, old in before.items() if old <= 0 < totals.get(f, 0)}
        left = {f for f, old in before.items() if old > 0 >= totals.get(f, 0)}
        return frozenset(entered), frozenset(left)

    def active_fragments(self) -> set[int]:
        """Fragments with a positive reference count (the current sketch)."""
        return {fragment for fragment, count in self.counts.items() if count > 0}

    def memory_bytes(self) -> int:
        return MemoryMeter().measure(self.counts)
