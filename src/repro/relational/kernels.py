"""Vectorized operator kernels over :class:`~repro.relational.columnar.ColumnBatch`.

Each kernel implements one relational operator column-at-a-time: it receives
input batches plus pre-evaluated value columns (produced by batch-compiled
expressions, see ``Expression.compile_batch``) and returns a new batch.  The
kernels mirror the row engine's semantics *and* its processing order exactly
-- entry order equals the order in which the row loops of
:class:`~repro.relational.evaluator.Evaluator` would visit the same tuples --
so converting a kernel pipeline's output at the boundary yields bit-identical
relations, including the accumulation order of float aggregates.

Input batches are never mutated; output batches may share input column lists
(both sides treat them as read-only).
"""

from __future__ import annotations

from itertools import compress

from repro.relational.algebra import Aggregate
from repro.relational.columnar import ColumnBatch, LazyColumns
from repro.relational.expressions import (
    Between,
    Comparison,
    Expression,
    IsNull,
    Literal,
    LogicalOp,
    Not,
)
from repro.relational.schema import Schema


def strict_boolean(expression: Expression) -> bool:
    """Whether a batch-compiled ``expression`` yields only ``True/False/None``.

    The boolean-producing node types normalise their output to strict
    three-valued logic, so their value columns can drive
    :func:`itertools.compress` directly.  Any other expression (a bare column
    reference, arithmetic, a scalar function call) may produce arbitrary
    truthy values, which the row engine's ``predicate(row) is True`` test
    would reject -- those masks must be normalised first.
    """
    return isinstance(expression, (Comparison, Between, IsNull, LogicalOp, Not, Literal))


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
    """Equi hash join: build over the right columns, probe with the left.

    ``pairs`` are ``(left position, right position)`` equality columns.  Like
    the row engine, key matching uses plain ``==`` (so ``None`` keys *do*
    match here); the caller re-checks the full join condition on the output
    batch, which rejects NULL matches and applies any residual conjuncts.
    Output order is the row engine's: left entries outer, per-key build order
    inner.
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

    The input entries must be consolidated (the caller guarantees it) so the
    per-group value sequences -- and hence the float accumulation order --
    equal the row engine's.  ``argument_columns`` holds ``None`` for
    ``count(*)``.
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

    Inlined accumulation loops mirror
    :func:`repro.relational.evaluator.compute_aggregate` operation-for-
    operation (NULL skipping, ``total += value * multiplicity`` in entry
    order, first-wins ties of min/max) so results are bit-identical.
    """
    if column is None:
        return sum(multiplicities[i] for i in positions)
    function = aggregate.function
    name = function.value
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
    # min / max: first occurrence wins ties, exactly like min()/max() over
    # the incremental pairs of compute_aggregate.
    best = None
    if name == "min":
        for i in positions:
            value = column[i]
            if value is None:
                continue
            if best is None or value < best:
                best = value
        return best
    if name == "max":
        for i in positions:
            value = column[i]
            if value is None:
                continue
            if best is None or value > best:
                best = value
        return best
    from repro.relational.evaluator import compute_aggregate

    return compute_aggregate(
        function, ((column[i], multiplicities[i]) for i in positions)
    )
