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

from collections.abc import Sequence
from heapq import nsmallest
from itertools import compress

from repro.relational.algebra import Aggregate
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
    """
    schema = left.schema.concat(right.schema)
    left_keys = _key_column(left, [p for p, _ in pairs])
    right_keys = _key_column(right, [p for _, p in pairs])
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
    return ColumnBatch(schema, columns, multiplicities, consolidated=False)


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

    The input entries must be consolidated (the caller guarantees it): each
    group then accumulates one term per distinct input row, in entry order,
    which fixes the low bits of float sums.  Groups come out in order of
    first occurrence.  ``argument_columns`` holds ``None`` for ``count(*)``.
    """
    groups: dict[tuple, list[int]] = {}
    if key_columns:
        if len(key_columns) == 1:
            keys: list[tuple] = [(key,) for key in key_columns[0]]
        else:
            keys = list(zip(*key_columns))
        get = groups.get
        for i, key in enumerate(keys):
            positions = get(key)
            if positions is None:
                groups[key] = [i]
            else:
                positions.append(i)
    elif multiplicities:
        groups[()] = list(range(len(multiplicities)))
    if not groups and not grouped:
        # Aggregation without GROUP BY over an empty input produces one row.
        groups[()] = []
    rows: list[tuple] = []
    for key, positions in groups.items():
        values = tuple(
            _aggregate_positions(aggregate, column, positions, multiplicities)
            for aggregate, column in zip(aggregates, argument_columns)
        )
        rows.append(key + values)
    if rows:
        columns = (list(column) for column in zip(*rows))
    else:
        columns = ([] for _ in range(len(schema)))
    # Group keys are distinct and prefix every output row, so rows are too.
    return ColumnBatch(schema, columns, [1] * len(rows), consolidated=True)


def _aggregate_positions(
    aggregate: Aggregate,
    column: list | None,
    positions: list[int],
    multiplicities: list[int],
) -> object:
    """One aggregate over the group's entries.

    NULL values are ignored (SQL semantics); an empty or all-NULL group
    yields NULL for sum/avg/min/max and 0 for count.  Sums start from
    ``0.0`` and add ``value * multiplicity`` in entry order; the first
    occurrence wins ties of min/max.
    """
    if column is None:
        return sum(multiplicities[i] for i in positions)
    name = aggregate.function.value
    if name == "count":
        count = 0
        for i in positions:
            if column[i] is not None:
                count += multiplicities[i]
        return count
    if name in ("sum", "avg"):
        total = 0.0
        count = 0
        seen_any = False
        for i in positions:
            value = column[i]
            if value is None:
                continue
            seen_any = True
            count += multiplicities[i]
            total += value * multiplicities[i]
        if not seen_any:
            return None
        if name == "sum":
            return total
        return total / count if count else None
    best = None
    if name == "min":
        for i in positions:
            value = column[i]
            if value is None:
                continue
            if best is None or value < best:
                best = value
        return best
    for i in positions:  # max
        value = column[i]
        if value is None:
            continue
        if best is None or value > best:
            best = value
    return best


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
