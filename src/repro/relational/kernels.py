"""Operator kernels over :class:`~repro.relational.columnar.ColumnBatch`.

Each kernel implements one relational operator column-at-a-time: it receives
input batches plus pre-evaluated value columns (produced by batch-compiled
expressions, see ``Expression.compile_batch``) and returns a new batch.
Every plan node has a kernel; :class:`~repro.relational.evaluator.Evaluator`
only wires them together.

The entry order of a kernel's output is part of its contract and is stated on
the kernel: float aggregates accumulate in entry order and LIMIT ties are cut
in entry order, so the order decides results bit for bit.  The row oracle
(:mod:`repro.relational.oracle`) is held to the same results by the
differential tests; nothing here imports it.

Input batches are never mutated; output batches may share input column lists
(both sides treat them as read-only).  The filter and the projection return
a batch of their input's class, so IMP's annotated deltas run through them
too, the annotation column carried like any other.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from functools import partial
from heapq import nsmallest
from itertools import compress, count
from operator import ne, neg
from typing import NamedTuple

from repro.core.errors import AggregateError
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.columnar import ColumnBatch, LazyColumns
from repro.relational.schema import Schema, descending_component, order_component


def filter_batch(batch: ColumnBatch, values: list, strict: bool) -> ColumnBatch:
    """Keep the entries whose predicate value is ``True`` (SQL selection).

    ``values`` is the predicate's value column; with ``strict`` the values
    are known to be ``True/False/None`` so truthiness equals ``is True`` and
    the C-level ``compress`` consumes them directly.  The multiplicities are
    compressed here (every consumer needs the entry count); the result keeps
    the input's columns and the mask and compresses a column when it is first
    read, so an operator above that reads two attributes never pays for the
    rest (see :class:`~repro.relational.columnar.LazyColumns`).
    """
    if not strict:
        values = [value is True for value in values]
    source = batch.columns
    columns = LazyColumns(
        len(source), lambda position: list(compress(source[position], values))
    )
    multiplicities = list(compress(batch.multiplicities, values))
    return type(batch)(batch.schema, columns, multiplicities, batch.consolidated)


def project_batch(
    batch: ColumnBatch, schema: Schema, value_columns: list[list]
) -> ColumnBatch:
    """Replace the attribute columns with projected value columns.

    Distinct input rows may project to equal output rows, so the result is
    never flagged consolidated.
    """
    return type(batch)(schema, value_columns, batch.multiplicities, consolidated=False)


def hash_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    pairs: list[tuple[int, int]],
) -> ColumnBatch:
    """Hash join: build over the right columns, probe with the left.

    ``pairs`` are ``(left position, right position)`` equality columns; with
    no pairs every entry has the key ``()``, one bucket holds the whole right
    side and the result is the cross product (which is how theta joins run:
    cross, then the caller's filter).  Entries are paired by
    :func:`join_positions`, the matcher the incremental join shares, and a
    key holding NULL or NaN matches nothing, so the caller checks only the
    conjuncts that are not key pairs.  Output order: left entries outer, the
    right entries of the key in their input order inner.

    A side whose every column is a key column (a zero-column side included)
    is consolidated first: for it equal keys are equal rows, so a duplicate
    would only be paired with every partner and merged again above.  The
    output is flagged ``consolidated`` when both inputs are, since pairs of
    distinct rows are distinct.  Neither rule changes the consolidated
    result: a merged pair sits where the pair of its left row's first
    occurrence (or of the first occurrence in the right bucket) would, and
    multiplicities are integer products and sums.

    A key-only right side, once merged, holds one entry per key, so each
    left entry has at most one partner and the pairs are the matched left
    entries in left order: :func:`semi_join_batch` builds exactly them
    without pair lists.
    """
    schema = left.schema.concat(right.schema)
    left_positions = [p for p, _ in pairs]
    right_positions = [p for _, p in pairs]
    if len(set(left_positions)) == len(left.schema):
        left = left.consolidate()
    if len(set(right_positions)) == len(right.schema):
        return semi_join_batch(
            schema, left, right.consolidate(), left_positions, right_positions
        )
    take_left, take_right, multiplicities = join_positions(
        key_column(left.columns, left_positions, len(left)),
        join_index(key_column(right.columns, right_positions, len(right))),
        left.multiplicities,
        right.multiplicities,
    )
    columns = [[column[i] for i in take_left] for column in left.columns]
    columns.extend([column[j] for j in take_right] for column in right.columns)
    return ColumnBatch(
        schema, columns, multiplicities, consolidated=left.consolidated and right.consolidated
    )


def semi_join_batch(
    schema: Schema,
    left: ColumnBatch,
    right: ColumnBatch,
    left_positions: list[int],
    right_positions: list[int],
) -> ColumnBatch:
    """The hash join's output for a consolidated right side whose key
    columns cover all of its columns, so that its keys are distinct.

    Each left key looks up its one partner position (a key holding NULL or
    NaN has none, as in :func:`join_index`); the matched left entries are
    kept with ``compress`` at their count times the partner's.  Output
    order: matched left entries in left order -- the hash join's, since each
    bucket holds one entry.  Columns are built when first read
    (:class:`~repro.relational.columnar.LazyColumns`): a left column is
    compressed, a right column gathered at the partner positions.  The
    output is ``consolidated`` when the left side is.
    """
    partners = without_unequal_keys(
        dict(zip(key_column(right.columns, right_positions, len(right)), count()))
    )
    found = list(map(partners.get, key_column(left.columns, left_positions, len(left))))
    keep = [j is not None for j in found]
    taken = list(compress(found, keep))
    right_counts = right.multiplicities
    multiplicities = [
        left_count * right_counts[j]
        for left_count, j in zip(compress(left.multiplicities, keep), taken)
    ]
    left_columns, right_columns = left.columns, right.columns
    width = len(left_columns)

    def build(position: int) -> list:
        if position < width:
            return list(compress(left_columns[position], keep))
        return list(map(right_columns[position - width].__getitem__, taken))

    columns = LazyColumns(width + len(right_columns), build)
    return ColumnBatch(schema, columns, multiplicities, left.consolidated)


def key_column(columns: Sequence[list], positions: list[int], n: int) -> list:
    """The join key of each of ``n`` entries over the key columns at
    ``positions``: the raw value for one key column, value tuples for
    several, ``()`` for none."""
    if len(positions) == 1:
        return columns[positions[0]]
    if not positions:
        return [()] * n
    return list(zip(*(columns[p] for p in positions)))


def join_index(build_keys: list) -> dict:
    """``join key -> build positions`` in entry order.  A key holding NULL or
    NaN is left out (:func:`without_unequal_keys`)."""
    index: dict = {}
    for j, key in enumerate(build_keys):
        bucket = index.get(key)
        if bucket is None:
            index[key] = [j]
        else:
            bucket.append(j)
    return without_unequal_keys(index)


def without_unequal_keys(index: dict) -> dict:
    """``index`` with every key holding NULL or NaN deleted.  SQL ``=`` is
    never true for such a key, while a dict would match ``None`` to ``None``
    and a NaN object to itself."""
    # Every key of one column has one spelling: tuples, or raw values.
    if type(next(iter(index), None)) is tuple:
        unequal = [key for key in index if any(v is None or v != v for v in key)]
    else:
        # NULL, and NaN: the one value unequal to itself (C-level ``ne``).
        index.pop(None, None)
        unequal = list(compress(index, map(ne, index, index)))
    for key in unequal:
        del index[key]
    return index


def join_positions(
    probe_keys: list, index: dict, probe_counts: list[int], build_counts: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The hash join's matcher: every probe entry paired with every build
    entry of its key in ``index`` (:func:`join_index` of the build keys).
    Returns the take lists (probe and build position of each pair) and each
    pair's count, the product of the two entries' counts.  Order: probe
    entries outer, a key's build entries in their order inner."""
    take_probe: list[int] = []
    take_build: list[int] = []
    counts: list[int] = []
    get = index.get
    for i, key in enumerate(probe_keys):
        bucket = get(key)
        if not bucket:
            continue
        probe_count = probe_counts[i]
        for j in bucket:
            take_probe.append(i)
            take_build.append(j)
            counts.append(probe_count * build_counts[j])
    return take_probe, take_build, counts


def distinct_batch(batch: ColumnBatch) -> ColumnBatch:
    """Duplicate removal: consolidate, then reset every multiplicity to one."""
    merged = batch.consolidate()
    return ColumnBatch(merged.schema, merged.columns, [1] * len(merged), consolidated=True)


def aggregate_batch(
    schema: Schema,
    aggregates: tuple[Aggregate, ...],
    groups: Groups,
    argument_columns: list[list | None],
    multiplicities: list[int],
    grouped: bool,
) -> ColumnBatch:
    """Grouped aggregation over pre-evaluated argument columns, grouped by
    ``groups`` (:func:`groups_of` the key columns).

    One grouped fold: each aggregate is one pass over ``(group id, value,
    multiplicity)`` into per-group lists (:func:`fold_aggregate`, which the
    incremental aggregation applies at signed counts).  ``argument_columns``
    holds ``None`` for ``count(*)``; NULL values are ignored.

    When each group's entries are contiguous -- an index range scan on the
    group key returns them so, one bucket per value -- and the groups are
    long enough on average, ``groups.runs`` holds their bounds and
    :func:`fold_aggregate` folds one group run at a time (counts always,
    sums and avgs when every multiplicity is 1); the results do not change
    by a bit.

    The input must fold as its consolidation would (the caller guarantees
    it): it is consolidated, or consolidating it would merge nothing (the
    evaluator proves that for clustered input, one ``set`` per group run),
    or no fold can tell.  Counts and min/max never can, nor can a sum or avg
    whose values are ints, bools and NULL of magnitude at most ``m`` over
    entries whose multiplicities add up to ``n`` with ``m * n <= 2**53``,
    since those add up exactly.  Output order: one entry per group, in order
    of first occurrence.  A group's sum adds
    ``value * multiplicity`` to ``0.0`` in entry order, which fixes the low
    bits of float sums; the first occurrence wins ties of min/max.
    """
    ids, keys, runs = groups
    if not keys and not grouped:
        # Aggregation without GROUP BY over an empty input produces one row.
        columns = [[over_nothing(aggregate)] for aggregate in aggregates]
        return ColumnBatch(schema, columns, [1], consolidated=True)
    # count(*), and count and avg over a column without NULLs, share this list.
    sizes = fold_aggregate(ids, None, multiplicities, [0] * len(keys), runs=runs)
    width = len(schema) - len(aggregates)
    if width == 1:
        columns = [keys]
    else:
        columns = [list(column) for column in zip(*keys)] or [[] for _ in range(width)]
    for aggregate, column in zip(aggregates, argument_columns):
        try:
            columns.append(
                _fold(aggregate.function, ids, column, multiplicities, sizes, runs)
            )
        except (TypeError, OverflowError) as exc:
            raise fold_error(aggregate, exc) from exc
    # Group keys are distinct and prefix every output row, so rows are too.
    return ColumnBatch(schema, columns, [1] * len(keys), consolidated=True)


def _fold(
    function: AggregateFunction,
    ids: list[int],
    column: list | None,
    multiplicities: list[int],
    sizes: list[int],
    runs: list[tuple[int, int, int]] | None,
) -> list:
    """One aggregate's value per group."""
    if column is None:
        return sizes
    # NaN sorts after every number (``order_component``'s rule): min holds a
    # NaN only until a number comes, max takes one as soon as it comes.
    # ``<``/``>`` are evaluated first, so values that do not compare raise.
    best: list = [None] * len(sizes)
    if function is AggregateFunction.MIN:
        for slot, value in zip(ids, column):
            if value is not None:
                current = best[slot]
                if current is None or value < current or current != current:
                    best[slot] = value
        return best
    if function is AggregateFunction.MAX:
        for slot, value in zip(ids, column):
            if value is not None:
                current = best[slot]
                if current is None or value > current or value != value:
                    best[slot] = value
        return best
    totals = None if function is AggregateFunction.COUNT else [0.0] * len(sizes)
    non_null = fold_aggregate(
        ids, column, multiplicities, [0] * len(sizes), totals, sizes, runs
    )
    if totals is None:
        return non_null
    if function is AggregateFunction.SUM:
        return [total if count else None for total, count in zip(totals, non_null)]
    return [total / count if count else None for total, count in zip(totals, non_null)]


class Groups(NamedTuple):
    """The groups of ``n`` entries: each entry's group id (``ids``, numbered
    by first occurrence), the group keys in id order -- raw values for one
    key column, value tuples for several, the one group ``()`` for none --
    and the groups' runs (:func:`group_runs`), or None."""

    ids: list[int]
    keys: list
    runs: list[tuple[int, int, int]] | None


def groups_of(key_columns: list[list], n: int) -> Groups:
    """The :class:`Groups` of ``n`` entries over the GROUP BY value columns
    ``key_columns``."""
    if not key_columns:
        ids, keys = [0] * n, [()] if n else []
    else:
        values = key_columns[0] if len(key_columns) == 1 else zip(*key_columns)
        # A missing key gets the next id: the dict's size before it is added.
        slots: defaultdict = defaultdict()
        slots.default_factory = slots.__len__
        ids, keys = list(map(slots.__getitem__, values)), list(slots)
    return Groups(ids, keys, group_runs(ids, len(keys)))


# The shortest mean group run :func:`group_runs` hands out: the break-even
# point.  A count(*) plus a sum at unit multiplicities, folded run by run
# with the run bounds and the sortedness test included, costs what the
# per-entry loops cost at runs of 12 entries, about 0.7 times at 30 and 0.5
# times at 1 000, and twice at 4 (``timeit`` inside a function over 6 000
# values, CPython 3.11 and 3.12).
_MIN_MEAN_RUN = 12


def group_runs(ids: list[int], groups: int) -> list[tuple[int, int, int]] | None:
    """``(slot, start, stop)`` of each of the ``groups`` slots that
    :func:`groups_of` numbered, when every slot's entries are contiguous and
    the runs are at least :data:`_MIN_MEAN_RUN` entries long on average;
    otherwise None.

    Numbered by first occurrence, the slots' entries are contiguous exactly
    when ``ids`` is non-decreasing.  Two O(1) tests go before the O(n) one:
    the mean run length, and the last id being the last slot.  (Every prefix
    of new keys looks sorted, so no prefix test could reject early.)
    """
    n = len(ids)
    if (
        not groups
        or n < _MIN_MEAN_RUN * groups
        or ids[-1] != groups - 1
        or ids != sorted(ids)
    ):
        return None
    starts = list(map(partial(bisect_left, ids), range(groups)))
    starts.append(n)
    return list(zip(range(groups), starts, starts[1:]))


def fold_aggregate(
    ids: list[int],
    column: list | None,
    multiplicities: list[int],
    non_null: list[int],
    totals: list[float] | None = None,
    sizes: list[int] | None = None,
    runs: list[tuple[int, int, int]] | None = None,
) -> list[int]:
    """Fold one aggregate's value column into per-slot lists, entry ``i``
    into slot ``ids[i]``: its multiplicity into ``non_null`` unless its
    value is NULL (``column`` None is ``count(*)``: every entry counts) and,
    given ``totals``, ``value * multiplicity`` into ``totals`` in entry
    order.  A non-numeric value raises ``TypeError``.

    Given ``runs`` (:func:`group_runs` of ``ids``) and a column without
    NULL, each slot's entries fold as one run.  Its count is the run's
    length, or the int sum of its multiplicities (exact, and at C speed: on
    ``mixed_1u5q``'s clustered non-unit inputs the whole count fold costs
    about 33 ns/value against the per-entry loop's 72, CPython 3.11 on an
    Intel Xeon).  At unit multiplicities
    its total is a local accumulator that starts at ``totals[slot]``, adds
    the run's values in entry order and is written back once: the per-entry
    loop's float additions in the same order, so every result is
    bit-identical.  (Never ``sum()`` or ``math.fsum`` on floats: their
    rounding differs from sequential additions, and ``sum()``'s differs
    between Python versions.)  Other multiplicities keep the per-entry sum:
    the ``value * multiplicity`` products cost about what a run saves.

    Returns the per-slot non-NULL counts: ``non_null``, or, if the caller
    passes the slots' entry counts as ``sizes`` and no value is NULL, those.
    """
    # Every multiplicity is 1 (a query over consolidated input, a capture,
    # an insert-only delta): then ``value * 1`` is ``value``, bit for bit.
    unit = multiplicities.count(1) == len(multiplicities)
    if column is not None and _holds_null(column):
        for slot, value, multiplicity in zip(ids, column, multiplicities):
            if value is not None:
                non_null[slot] += multiplicity
                if totals is not None:
                    totals[slot] += value * multiplicity
        return non_null
    if totals is not None:
        if runs is not None and unit:
            for slot, start, stop in runs:
                total = totals[slot]
                for value in column[start:stop]:
                    total += value
                totals[slot] = total
        elif unit:
            for slot, value in zip(ids, column):
                totals[slot] += value
        else:
            for slot, value, multiplicity in zip(ids, column, multiplicities):
                totals[slot] += value * multiplicity
    if sizes is not None:
        return sizes
    if runs is not None and unit:
        for slot, start, stop in runs:
            non_null[slot] += stop - start
    elif runs is not None:
        for slot, start, stop in runs:
            non_null[slot] += sum(multiplicities[start:stop])
    elif unit:
        for slot in ids:
            non_null[slot] += 1
    else:
        for slot, multiplicity in zip(ids, multiplicities):
            non_null[slot] += multiplicity
    return non_null


def _holds_null(column: list) -> bool:
    """Whether ``column`` holds NULL.  ``sum`` is the probe, its value
    unused: it runs through numbers at C speed and stops at the first value
    it cannot add, while ``None in column`` pays a rich comparison per
    value, about ten times as much; only a column ``sum`` cannot add is
    searched."""
    try:
        sum(column)
    except (TypeError, OverflowError):
        return None in column
    return False


def over_nothing(aggregate: Aggregate) -> object:
    """The aggregate over no input: 0 for count, NULL otherwise."""
    return 0 if aggregate.function is AggregateFunction.COUNT else None


def fold_error(aggregate: Aggregate, error: Exception) -> AggregateError:
    """The error for a fold that met a value ``aggregate`` cannot aggregate:
    ``error`` is the ``TypeError`` (a value of the wrong type) or the
    ``OverflowError`` (an int out of float range) the fold raised."""
    argument = "*" if aggregate.argument is None else aggregate.argument.canonical()
    problem = "out of float range" if isinstance(error, OverflowError) else "of that type"
    return AggregateError(
        f"{aggregate.function.value}({argument}) cannot aggregate a value {problem}"
    )


def order_keys(key_columns: list[list], ascending: Sequence[bool]) -> list[tuple]:
    """Per-entry sort keys for ORDER BY value columns and their directions.

    Values are keyed by :func:`~repro.relational.schema.order_component`
    (``descending_component`` for DESC items), the rule every ORDER BY in the
    system shares; the oracles apply the same components per row.  The
    incremental top-k operator keys its entries here, always by components:
    its ``TopKState`` keeps keys across deltas (a plain-number delta followed
    by one holding NULL would put raw and component keys in one sorted key
    list) and the engine-state dumps pin them.  :func:`top_k_batch` sorts a
    plain-number column by its own values instead, in the same order.
    """
    return list(
        zip(
            *(
                map(order_component if asc else descending_component, column)
                for column, asc in zip(key_columns, ascending)
            )
        )
    )


def _column_keys(column: list, ascending: bool):
    """One ORDER BY column's sort keys for :func:`top_k_batch`, in
    :func:`order_keys`' order.

    A column of plain numbers (int, float, bool; no NaN) is its own key, or
    its negation for DESC: ``order_component`` keys such a value ``(2, v)``
    and ``descending_component`` ``(-2, -v)``, which compare exactly as ``v``
    and ``-v`` do, ties included (``1``/``1.0``/``True``, ``-0.0``/``0.0``,
    exact int/float comparison past 2**53).  ``sum`` is the probe, as in
    :func:`_holds_null`: it runs through numbers at C speed and raises at
    text, NULL or an int beyond float range beside a float; its value is NaN
    when the column holds NaN (or both infinities), and of another type for
    the numeric types ``order_component`` keys by their text (``Decimal``,
    ``complex``).  Any such column is keyed by components."""
    try:
        total = sum(column)
    except (TypeError, OverflowError):
        total = None
    if type(total) in (int, float) and total == total:
        return column if ascending else map(neg, column)
    return map(order_component if ascending else descending_component, column)


def top_k_batch(
    batch: ColumnBatch, key_columns: list[list], ascending: Sequence[bool], k: int
) -> ColumnBatch:
    """The first ``k`` tuples of ``batch`` in ORDER BY order (SQL LIMIT).

    ``key_columns`` are the value columns of the ORDER BY expressions and
    ``ascending`` their directions, sorted in :func:`order_keys`' order: a
    plain-number column by its own values (:func:`_column_keys`), every
    other column by its ``order_component`` keys; one key column is its key
    list, several are zipped.  ``batch`` must be consolidated (the caller
    guarantees it).  Output order: ascending by key, entries with equal keys
    in their input order (``nsmallest`` is ``sorted(...)[:k]``, which is
    stable); the multiplicity of the last entry taken is cut so that the
    output holds at most ``k`` tuples.
    """
    per_column = [_column_keys(column, asc) for column, asc in zip(key_columns, ascending)]
    keys = per_column[0] if len(per_column) == 1 else zip(*per_column)
    if not isinstance(keys, list):
        keys = list(keys)
    # Every entry holds at least one tuple, so k entries always suffice.
    taken = nsmallest(k, range(len(keys)), key=keys.__getitem__)
    multiplicities: list[int] = []
    remaining = k
    for i in taken:
        if not remaining:
            break
        take = min(batch.multiplicities[i], remaining)
        multiplicities.append(take)
        remaining -= take
    del taken[len(multiplicities) :]
    source = batch.columns
    columns = LazyColumns(
        len(source), lambda position: [source[position][i] for i in taken]
    )
    return ColumnBatch(batch.schema, columns, multiplicities, consolidated=True)
