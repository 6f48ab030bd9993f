"""Table statistics used for sketch range selection and cost estimates.

The paper uses the bounds of equi-depth histograms maintained by the DBMS as
the ranges of a partition (Sec. 7.4) and generates ranges that cover the whole
domain of an attribute, not only its active domain.  This module provides
equi-depth boundary computation and simple column statistics; the
optimizer's interval-selectivity estimate over those boundaries lives beside
its caller, in :mod:`repro.relational.optimizer`.  NULL and NaN
have no place in an order, so neither bounds nor minimum/maximum see them.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for one attribute of a table."""

    attribute: str
    row_count: int
    null_count: int
    distinct_count: int
    minimum: object | None
    maximum: object | None


def expand_multiplicities(
    values: Sequence[object], multiplicities: Collection[int]
) -> list[object]:
    """A bag column as a list: each value repeated by its (positive)
    multiplicity, in order (NULL and NaN included)."""
    if sum(multiplicities) == len(multiplicities):  # every multiplicity is 1
        return list(values)
    return [value for value, count in zip(values, multiplicities) for _ in range(count)]


def collect_column_statistics(attribute: str, values: Sequence[object]) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for a column's values (the
    minimum and maximum of its orderable ones: NaN is skipped like NULL, and
    a column holding values that do not compare, such as ``1`` and ``'x'``,
    has neither)."""
    distinct = set(values)
    # The distinct values tell whether NULL is there; a column without it is
    # used as it is.
    non_null = values if None not in distinct else [v for v in values if v is not None]
    # NaN compares false, so min and max pass over it -- unless they start
    # from it, as the first value.
    ordered = non_null
    if non_null and non_null[0] != non_null[0]:
        ordered = [value for value in non_null if value == value]
    minimum = maximum = None
    if ordered:
        try:
            minimum, maximum = min(ordered), max(ordered)
        except TypeError:
            pass
    return ColumnStatistics(
        attribute=attribute,
        row_count=len(values),
        null_count=len(values) - len(non_null),
        distinct_count=len(distinct) - (None in distinct),
        minimum=minimum,
        maximum=maximum,
    )


def equi_depth_boundaries(values: Sequence[object], num_buckets: int) -> list[float]:
    """Boundaries of an equi-depth histogram with ``num_buckets`` buckets.

    Returns ``num_buckets + 1`` increasing boundary values where each adjacent
    pair delimits a bucket containing roughly the same number of values.
    Duplicate boundaries caused by heavy hitters are collapsed, so the result
    may contain fewer buckets than requested (matching how DBMS statistics
    behave on skewed data).  NULL and NaN are skipped: no order places them;
    every other value is read as a float.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    try:
        data = list(map(float, values))
    except TypeError:  # a NULL: skip it, and NaN, value by value
        data = [float(value) for value in values if value is not None and value == value]
    else:
        # A float sum is NaN exactly when a NaN (or both infinities) is summed.
        total = sum(data)
        if total != total:
            data = [value for value in data if value == value]
    data.sort()
    if not data:
        raise ValueError("cannot build a histogram over an empty column")
    boundaries = [data[0]]
    for bucket in range(1, num_buckets):
        index = min(len(data) - 1, round(bucket * len(data) / num_buckets))
        candidate = data[index]
        if candidate > boundaries[-1]:
            boundaries.append(candidate)
    if data[-1] > boundaries[-1]:
        boundaries.append(data[-1])
    elif len(boundaries) == 1:
        # A single distinct value still needs two boundaries to delimit one
        # (zero-width) bucket.  For every other input the maximum is already
        # the last boundary; appending it again would create a duplicated
        # final boundary and a degenerate zero-width last bucket.
        boundaries.append(boundaries[-1])
    return boundaries


class ColumnSummaries(dict):
    """A memo of the column statistics and equi-depth boundaries of one
    state of some tables, each computed on first request; ``clear()`` forgets
    them.  ``column(table, attribute)`` reads a column's values, each
    repeated by its multiplicity; tables are named in lower case."""

    def column_statistics(
        self, column: Callable[[str, str], list], table: str, attribute: str
    ) -> ColumnStatistics:
        key = (table, attribute)
        if key not in self:
            self[key] = collect_column_statistics(attribute, column(table, attribute))
        return self[key]

    def equi_depth_ranges(
        self, column: Callable[[str, str], list], table: str, attribute: str, num_buckets: int
    ) -> list[float]:
        """A copy of the boundaries, so callers cannot corrupt the memo."""
        key = (table, attribute, num_buckets)
        if key not in self:
            self[key] = equi_depth_boundaries(column(table, attribute), num_buckets)
        return list(self[key])
