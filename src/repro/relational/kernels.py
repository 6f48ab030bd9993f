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
(both sides treat them as read-only).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from heapq import nsmallest
from itertools import compress

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
    return ColumnBatch(batch.schema, columns, multiplicities, batch.consolidated)


def project_batch(
    batch: ColumnBatch, schema: Schema, value_columns: list[list]
) -> ColumnBatch:
    """Replace the attribute columns with projected value columns.

    Distinct input rows may project to equal output rows, so the result is
    never flagged consolidated.
    """
    return ColumnBatch(schema, value_columns, batch.multiplicities, consolidated=False)


def hash_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    pairs: list[tuple[int, int]],
) -> ColumnBatch:
    """Hash join: build over the right columns, probe with the left.

    ``pairs`` are ``(left position, right position)`` equality columns; with
    no pairs every entry has the key ``()``, one bucket holds the whole right
    side and the result is the cross product (which is how theta joins run:
    cross, then the caller's filter).  Key matching uses plain ``==`` (so
    ``None`` keys *do* match here); the caller re-checks the full join
    condition on the output batch, which rejects NULL matches and applies any
    residual conjuncts.  Output order: left entries outer, the right entries
    of the key in their input order inner.

    A side whose every column is a key column (a zero-column side included)
    is consolidated first: for it equal keys are equal rows, so a duplicate
    would only be paired with every partner and merged again above.  The
    output is flagged ``consolidated`` when both inputs are, since pairs of
    distinct rows are distinct.  Neither rule changes the consolidated
    result: a merged pair sits where the pair of its left row's first
    occurrence (or of the first occurrence in the right bucket) would, and
    multiplicities are integer products and sums.
    """
    schema = left.schema.concat(right.schema)
    left_positions = [p for p, _ in pairs]
    right_positions = [p for _, p in pairs]
    if len(set(left_positions)) == len(left.schema):
        left = left.consolidate()
    if len(set(right_positions)) == len(right.schema):
        right = right.consolidate()
    left_keys = _key_column(left, left_positions)
    right_keys = _key_column(right, right_positions)
    index: dict = {}
    for j, key in enumerate(right_keys):
        bucket = index.get(key)
        if bucket is None:
            index[key] = [j]
        else:
            bucket.append(j)
    left_mults = left.multiplicities
    right_mults = right.multiplicities
    take_left: list[int] = []
    take_right: list[int] = []
    multiplicities: list[int] = []
    get = index.get
    for i, key in enumerate(left_keys):
        bucket = get(key)
        if not bucket:
            continue
        left_mult = left_mults[i]
        for j in bucket:
            take_left.append(i)
            take_right.append(j)
            multiplicities.append(left_mult * right_mults[j])
    columns = [[column[i] for i in take_left] for column in left.columns]
    columns.extend([column[j] for j in take_right] for column in right.columns)
    return ColumnBatch(
        schema, columns, multiplicities, consolidated=left.consolidated and right.consolidated
    )


def _key_column(batch: ColumnBatch, positions: list[int]) -> list:
    """Join-key values per entry: the raw column for one key, tuples otherwise."""
    if len(positions) == 1:
        return batch.columns[positions[0]]
    if not positions:
        return [()] * len(batch)
    return list(zip(*(batch.columns[p] for p in positions)))


def distinct_batch(batch: ColumnBatch) -> ColumnBatch:
    """Duplicate removal: consolidate, then reset every multiplicity to one."""
    merged = batch.consolidate()
    return ColumnBatch(merged.schema, merged.columns, [1] * len(merged), consolidated=True)


def aggregate_batch(
    schema: Schema,
    aggregates: tuple[Aggregate, ...],
    key_columns: list[list],
    argument_columns: list[list | None],
    multiplicities: list[int],
    grouped: bool,
) -> ColumnBatch:
    """Grouped aggregation over pre-evaluated key and argument columns.

    One grouped fold: :func:`group_ids` numbers the groups, then each
    aggregate is one pass over ``(group id, value, multiplicity)`` into
    per-group lists (:func:`fold_aggregate`, which the incremental
    aggregation applies at signed counts).  ``argument_columns`` holds
    ``None`` for ``count(*)``; NULL values are ignored.

    The input must be consolidated (the caller guarantees it).  Output order:
    one entry per group, in order of first occurrence.  A group's sum adds
    ``value * multiplicity`` to ``0.0`` in entry order, which fixes the low
    bits of float sums; the first occurrence wins ties of min/max.
    """
    n = len(multiplicities)
    ids, keys = group_ids(key_columns, n)
    if not keys and not grouped:
        # Aggregation without GROUP BY over an empty input produces one row.
        columns = [[over_nothing(aggregate)] for aggregate in aggregates]
        return ColumnBatch(schema, columns, [1], consolidated=True)
    # count(*), and count and avg over a column without NULLs, share this list.
    sizes = fold_aggregate(ids, None, multiplicities, [0] * len(keys))
    if len(key_columns) == 1:
        columns = [keys]
    else:
        columns = [list(column) for column in zip(*keys)] or [[] for _ in key_columns]
    for aggregate, column in zip(aggregates, argument_columns):
        try:
            columns.append(_fold(aggregate.function, ids, column, multiplicities, sizes))
        except TypeError as exc:
            raise fold_error(aggregate) from exc
    # Group keys are distinct and prefix every output row, so rows are too.
    return ColumnBatch(schema, columns, [1] * len(keys), consolidated=True)


def _fold(
    function: AggregateFunction,
    ids: list[int],
    column: list | None,
    multiplicities: list[int],
    sizes: list[int],
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
    non_null = fold_aggregate(ids, column, multiplicities, [0] * len(sizes), totals, sizes)
    if totals is None:
        return non_null
    if function is AggregateFunction.SUM:
        return [total if count else None for total, count in zip(totals, non_null)]
    return [total / count if count else None for total, count in zip(totals, non_null)]


def group_ids(key_columns: list[list], n: int) -> tuple[list[int], list]:
    """The group id of each of ``n`` entries, numbered by first occurrence,
    and the group keys in id order: raw values for one key column, value
    tuples for several, the one group ``()`` for none."""
    if not key_columns:
        return [0] * n, [()] if n else []
    keys = key_columns[0] if len(key_columns) == 1 else zip(*key_columns)
    # A missing key gets the next id: the dict's size before it is added.
    slots: defaultdict = defaultdict()
    slots.default_factory = slots.__len__
    return list(map(slots.__getitem__, keys)), list(slots)


def fold_aggregate(
    ids: list[int],
    column: list | None,
    multiplicities: list[int],
    non_null: list[int],
    totals: list[float] | None = None,
    sizes: list[int] | None = None,
) -> list[int]:
    """Fold one aggregate's value column into per-slot lists, entry ``i``
    into slot ``ids[i]``: its multiplicity into ``non_null`` unless its
    value is NULL (``column`` None is ``count(*)``: every entry counts) and,
    given ``totals``, ``value * multiplicity`` into ``totals`` in entry
    order.  A non-numeric value raises ``TypeError``.

    Returns the per-slot non-NULL counts: ``non_null``, or, if the caller
    passes the slots' entry counts as ``sizes`` and no value is NULL, those.
    """
    # Every multiplicity is 1 (a query over consolidated input, a capture,
    # an insert-only delta): then ``value * 1`` is ``value``, bit for bit.
    unit = multiplicities.count(1) == len(multiplicities)
    if column is not None and None in column:
        for slot, value, multiplicity in zip(ids, column, multiplicities):
            if value is not None:
                non_null[slot] += multiplicity
                if totals is not None:
                    totals[slot] += value * multiplicity
        return non_null
    if totals is not None:
        if unit:
            for slot, value in zip(ids, column):
                totals[slot] += value
        else:
            for slot, value, multiplicity in zip(ids, column, multiplicities):
                totals[slot] += value * multiplicity
    if sizes is not None:
        return sizes
    if unit:
        for slot in ids:
            non_null[slot] += 1
    else:
        for slot, multiplicity in zip(ids, multiplicities):
            non_null[slot] += multiplicity
    return non_null


def over_nothing(aggregate: Aggregate) -> object:
    """The aggregate over no input: 0 for count, NULL otherwise."""
    return 0 if aggregate.function is AggregateFunction.COUNT else None


def fold_error(aggregate: Aggregate) -> AggregateError:
    """The error for a fold that met a value ``aggregate`` cannot aggregate."""
    argument = "*" if aggregate.argument is None else aggregate.argument.canonical()
    return AggregateError(
        f"{aggregate.function.value}({argument}) cannot aggregate a value of that type"
    )


def order_keys(key_columns: list[list], ascending: Sequence[bool]) -> list[tuple]:
    """Per-entry sort keys for ORDER BY value columns and their directions.

    Values are keyed by :func:`~repro.relational.schema.order_component`
    (``descending_component`` for DESC items), the rule every ORDER BY in the
    system shares: the top-k kernel and the incremental top-k operator key
    their entries here, and the oracles apply the same components per row.
    """
    return list(
        zip(
            *(
                map(order_component if asc else descending_component, column)
                for column, asc in zip(key_columns, ascending)
            )
        )
    )


def top_k_batch(
    batch: ColumnBatch, key_columns: list[list], ascending: Sequence[bool], k: int
) -> ColumnBatch:
    """The first ``k`` tuples of ``batch`` in ORDER BY order (SQL LIMIT).

    ``key_columns`` are the value columns of the ORDER BY expressions and
    ``ascending`` their directions, keyed by :func:`order_keys`.  ``batch``
    must be consolidated (the caller guarantees it).  Output order: ascending
    by key, entries with equal keys in their input order (``nsmallest`` is
    ``sorted(...)[:k]``, which is stable); the multiplicity of the last entry
    taken is cut so that the output holds at most ``k`` tuples.
    """
    keys = order_keys(key_columns, ascending)
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
