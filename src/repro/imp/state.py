"""Operator state for the incremental engine.

Each stateful incremental operator keeps exactly the state described in
Sec. 5.2 of the paper:

* aggregation with ``sum``/``count``/``avg``: per-group ``SUM``/``CNT`` plus a
  map ``ℱ_g`` counting, for every range of the partition, how many input
  tuples of the group carry that range in their sketch;
* aggregation with ``min``/``max``: the same ``ℱ_g`` plus a balanced search
  tree over the aggregate values (optionally truncated to a top-``l`` buffer,
  Sec. 7.2);
* top-k: an ordered map from ORDER BY keys to annotated tuples and their
  multiplicities (optionally truncated to ``l ≥ k`` entries);
* duplicate elimination: per-row reference counts with their ``ℱ`` map;
* join: per input, a Bloom filter over its join keys until a delta of the
  other input first needs partners, and from then on the input's annotated
  result as a key index, brought forward by the input's own deltas;
* the merge operator ``μ``: a count per range of how many result tuples carry
  that range.

All states support byte-size estimation (for the memory experiments) and, all
but the join's, a plain-Python payload serialisation so the middleware can
persist and restore them through the backend database (Sec. 2).  Join state
is derived data: a restored join rebuilds it lazily.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.core.bitset import iter_bits
from repro.core.bloom import BloomFilter
from repro.core.errors import StateError
from repro.core.rbtree import RedBlackTree, SortedMultiSet
from repro.core.timing import MemoryMeter
from repro.imp.annotated import AnnotatedDelta
from repro.relational.algebra import AggregateFunction
from repro.relational.schema import Row


class SumCountAccumulator:
    """Accumulator shared by ``sum``, ``count`` and ``avg`` (Sec. 5.2.5)."""

    __slots__ = ("function", "total", "non_null_count", "star_count")

    #: Only min/max accumulators can lose track of their value (Sec. 7.2).
    exhausted = False

    def __init__(self, function: AggregateFunction) -> None:
        self.function = function
        self.total = 0.0
        self.non_null_count = 0
        self.star_count = 0

    def update(self, value: object, multiplicity: int) -> None:
        """Apply ``multiplicity`` (signed) occurrences of ``value``."""
        self.star_count += multiplicity
        if value is None:
            return
        self.non_null_count += multiplicity
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self.total += float(value) * multiplicity  # type: ignore[arg-type]

    def result(self) -> object:
        """Current aggregate value (matching full evaluation semantics)."""
        if self.function is AggregateFunction.COUNT:
            return self.non_null_count if self.non_null_count or self.star_count == 0 else 0
        if self.non_null_count == 0:
            return None
        if self.function is AggregateFunction.SUM:
            return self.total
        if self.function is AggregateFunction.AVG:
            return self.total / self.non_null_count
        raise StateError(f"accumulator does not support {self.function}")

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "sum_count",
            "function": self.function.value,
            "total": self.total,
            "non_null_count": self.non_null_count,
            "star_count": self.star_count,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SumCountAccumulator":
        accumulator = cls(AggregateFunction(payload["function"]))
        accumulator.total = payload["total"]
        accumulator.non_null_count = payload["non_null_count"]
        accumulator.star_count = payload["star_count"]
        return accumulator


class CountStarAccumulator(SumCountAccumulator):
    """Accumulator for ``count(*)`` which counts NULLs as well."""

    def __init__(self) -> None:
        super().__init__(AggregateFunction.COUNT)

    def result(self) -> object:
        return self.star_count

    def to_payload(self) -> dict[str, Any]:
        payload = super().to_payload()
        payload["kind"] = "count_star"
        return payload


class MinMaxAccumulator:
    """Accumulator for ``min``/``max`` backed by a sorted multiset (Sec. 5.2.6).

    With a ``buffer_limit`` only the ``l`` best values are retained
    (smallest for min, largest for max); values beyond the buffer are only
    counted.  When deletions exhaust the buffer while overflow values remain,
    the accumulator can no longer produce the correct extreme and reports
    itself as *exhausted*, signalling the engine to recapture (Sec. 7.2,
    "Optimizing Minimum, Maximum, and Top-k").
    """

    __slots__ = ("function", "values", "buffer_limit", "overflow_count", "exhausted")

    def __init__(self, function: AggregateFunction, buffer_limit: int | None = None) -> None:
        if function not in (AggregateFunction.MIN, AggregateFunction.MAX):
            raise StateError("MinMaxAccumulator only supports min and max")
        self.function = function
        self.values: SortedMultiSet[Any] = SortedMultiSet()
        self.buffer_limit = buffer_limit
        self.overflow_count = 0
        self.exhausted = False

    # -- updates -------------------------------------------------------------------

    def update(self, value: object, multiplicity: int) -> None:
        """Apply a signed multiplicity of ``value``."""
        if value is None:
            return
        if multiplicity > 0:
            self._insert(value, multiplicity)
        elif multiplicity < 0:
            self._delete(value, -multiplicity)

    def _insert(self, value: object, count: int) -> None:
        self.values.add(value, count)
        self._evict_overflow()

    def _evict_overflow(self) -> None:
        if self.buffer_limit is None:
            return
        while len(self.values) > self.buffer_limit:
            victim = self.values.max() if self.function is AggregateFunction.MIN else self.values.min()
            removed = self.values.remove(victim, 1)
            if removed == 0:  # pragma: no cover - defensive
                break
            self.overflow_count += removed

    def _delete(self, value: object, count: int) -> None:
        removed = self.values.remove(value, count)
        missing = count - removed
        if missing > 0:
            # The deleted values were (presumably) beyond the buffer.
            if self.overflow_count >= missing:
                self.overflow_count -= missing
            else:
                self.overflow_count = 0
                self.exhausted = True
        if len(self.values) == 0 and self.overflow_count > 0:
            # We know values exist but not what they are.
            self.exhausted = True

    # -- results -------------------------------------------------------------------

    def result(self) -> object:
        """The current minimum / maximum (None when no non-null values exist)."""
        if self.exhausted:
            raise StateError("min/max state exhausted; sketch must be recaptured")
        if len(self.values) == 0:
            return None
        return self.values.min() if self.function is AggregateFunction.MIN else self.values.max()

    @property
    def stored_count(self) -> int:
        """Number of values currently kept in the buffer."""
        return len(self.values)

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "min_max",
            "function": self.function.value,
            "buffer_limit": self.buffer_limit,
            "overflow_count": self.overflow_count,
            "exhausted": self.exhausted,
            "values": list(self.values.items()),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "MinMaxAccumulator":
        accumulator = cls(AggregateFunction(payload["function"]), payload["buffer_limit"])
        accumulator.overflow_count = payload["overflow_count"]
        accumulator.exhausted = payload["exhausted"]
        for value, count in payload["values"]:
            accumulator.values.add(value, count)
        return accumulator


def make_accumulator(
    function: AggregateFunction,
    has_argument: bool,
    min_max_buffer: int | None = None,
) -> SumCountAccumulator | MinMaxAccumulator:
    """Create the appropriate accumulator for an aggregate specification."""
    if function in (AggregateFunction.MIN, AggregateFunction.MAX):
        return MinMaxAccumulator(function, min_max_buffer)
    if function is AggregateFunction.COUNT and not has_argument:
        return CountStarAccumulator()
    return SumCountAccumulator(function)


class GroupState:
    """Per-group state of an incremental aggregation operator.

    ``mask`` is the group's sketch as a fragment bit mask: the ranges whose
    ``ℱ_g`` count is positive.  It only changes when a count crosses zero,
    so it is kept up to date there instead of being rebuilt from the counts.
    """

    __slots__ = ("key", "total_count", "fragment_counts", "mask", "accumulators")

    def __init__(self, key: tuple, accumulators: list) -> None:
        self.key = key
        self.total_count = 0
        self.fragment_counts: dict[int, int] = {}
        self.mask = 0
        self.accumulators = accumulators

    def apply(self, argument_values: Iterable[object], annotation: int, count: int) -> None:
        """Apply ``count`` (signed) occurrences of one annotated input tuple."""
        self.total_count += count
        for accumulator, value in zip(self.accumulators, argument_values):
            accumulator.update(value, count)
        fragment_counts = self.fragment_counts
        for fragment in iter_bits(annotation):
            updated = fragment_counts.get(fragment, 0) + count
            if updated:
                fragment_counts[fragment] = updated
            else:
                fragment_counts.pop(fragment, None)
            # ``updated - count`` is the count before: touch the mask only
            # when the count crosses zero.
            if updated > 0:
                if updated <= count:
                    self.mask |= 1 << fragment
            elif updated > count:
                self.mask &= ~(1 << fragment)

    @property
    def exists(self) -> bool:
        """Whether the group still has input tuples."""
        return self.total_count > 0

    def output_values(self) -> tuple:
        """The aggregate results for the group."""
        return tuple([accumulator.result() for accumulator in self.accumulators])

    def exhausted(self) -> bool:
        """Whether any min/max accumulator lost track of its extreme value."""
        return any([accumulator.exhausted for accumulator in self.accumulators])

    def to_payload(self) -> dict[str, Any]:
        return {
            "key": list(self.key),
            "total_count": self.total_count,
            "fragment_counts": dict(self.fragment_counts),
            "accumulators": [accumulator.to_payload() for accumulator in self.accumulators],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "GroupState":
        accumulators = []
        for accumulator_payload in payload["accumulators"]:
            if accumulator_payload["kind"] == "min_max":
                accumulators.append(MinMaxAccumulator.from_payload(accumulator_payload))
            elif accumulator_payload["kind"] == "count_star":
                accumulators.append(CountStarAccumulator.from_payload(accumulator_payload))
            else:
                accumulators.append(SumCountAccumulator.from_payload(accumulator_payload))
        state = cls(tuple(payload["key"]), accumulators)
        state.total_count = payload["total_count"]
        state.fragment_counts = {int(k): v for k, v in payload["fragment_counts"].items()}
        state.mask = sum(1 << k for k, v in state.fragment_counts.items() if v > 0)
        return state


class AggregationState:
    """State of an incremental aggregation operator: a map group -> GroupState."""

    def __init__(self) -> None:
        self.groups: dict[tuple, GroupState] = {}

    def get_or_create(self, key: tuple, accumulator_factory) -> GroupState:
        state = self.groups.get(key)
        if state is None:
            state = GroupState(key, accumulator_factory())
            self.groups[key] = state
        return state

    def drop(self, key: tuple) -> None:
        self.groups.pop(key, None)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[GroupState]:
        return iter(self.groups.values())

    def memory_bytes(self) -> int:
        """Estimated memory footprint of the aggregation state."""
        return MemoryMeter().measure(self.groups)

    def to_payload(self) -> dict[str, Any]:
        return {"groups": [state.to_payload() for state in self.groups.values()]}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "AggregationState":
        state = cls()
        for group_payload in payload["groups"]:
            group = GroupState.from_payload(group_payload)
            state.groups[group.key] = group
        return state


class DistinctState:
    """Per-row reference counts for incremental duplicate elimination."""

    def __init__(self) -> None:
        self.rows: dict[Row, GroupState] = {}

    def get_or_create(self, row: Row) -> GroupState:
        state = self.rows.get(row)
        if state is None:
            state = GroupState(row, [])
            self.rows[row] = state
        return state

    def drop(self, row: Row) -> None:
        self.rows.pop(row, None)

    def __len__(self) -> int:
        return len(self.rows)

    def memory_bytes(self) -> int:
        return MemoryMeter().measure(self.rows)


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

    A balanced search tree maps ORDER BY sort keys to the annotated tuples
    sharing that key and their multiplicities.  With a ``buffer_limit`` only
    the best ``l`` tuples are stored; the rest are only counted so deletions of
    buffered tuples can be detected as exhausting the buffer.
    """

    def __init__(self, buffer_limit: int | None = None) -> None:
        self.tree: RedBlackTree[tuple, dict[tuple[Row, int], int]] = RedBlackTree()
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
        bucket = self.tree.get(sort_key)
        entry = (row, annotation)
        if (
            self.buffer_limit is not None
            and self.stored_count >= self.buffer_limit
            and (bucket is None or entry not in bucket)
            and not (self.tree and sort_key < self.tree.max_key())
        ):
            # A new entry that sorts behind everything stored is only counted.
            self.overflow_count += multiplicity
            return
        if bucket is None:
            bucket = {}
            self.tree.insert(sort_key, bucket)
        bucket[entry] = bucket.get(entry, 0) + multiplicity
        self.stored_count += multiplicity
        self._evict_overflow()

    def remove(self, sort_key: tuple, row: Row, annotation: int, multiplicity: int) -> None:
        """Remove up to ``multiplicity`` copies of an annotated tuple."""
        bucket = self.tree.get(sort_key)
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
                    self.tree.delete(sort_key)
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
            largest_key = self.tree.max_key()
            bucket = self.tree[largest_key]
            entry = next(reversed(bucket))  # the latest arrival of the worst key
            count = bucket[entry]
            evict = min(count, self.stored_count - self.buffer_limit)
            remaining = count - evict
            if remaining:
                bucket[entry] = remaining
            else:
                del bucket[entry]
                if not bucket:
                    self.tree.delete(largest_key)
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
        for _key, bucket in self.tree.items():
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
        entries = []
        for key, bucket in self.tree.items():
            entries.append(key)
            entries.append(bucket)
        return MemoryMeter().measure_many(entries) + 64

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

    def to_payload(self) -> dict[str, Any]:
        return {"counts": dict(self.counts)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "MergeState":
        state = cls()
        state.counts = {int(k): v for k, v in payload["counts"].items()}
        return state
