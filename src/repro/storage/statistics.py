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

from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import is_not


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for one attribute of a table."""

    attribute: str
    row_count: int
    null_count: int
    distinct_count: int
    minimum: object | None
    maximum: object | None


def collect_column_statistics(
    attribute: str, values: Sequence[object], counts: Collection[int]
) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for a bag column: the value of each
    distinct row and, in the same order, its (positive) multiplicity.  The
    minimum and maximum are those of its orderable values: NaN is skipped like
    NULL, and a column holding values that do not compare, such as ``1`` and
    ``'x'``, has neither."""
    distinct = set(values)
    null_count = 0
    non_null = values
    if None in distinct:
        null_count = sum(count for value, count in zip(values, counts) if value is None)
        non_null = [value for value in values if value is not None]
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
        row_count=sum(counts),
        null_count=null_count,
        distinct_count=len(distinct) - (None in distinct),
        minimum=minimum,
        maximum=maximum,
    )


def equi_depth_boundaries(
    values: Sequence[object], counts: Collection[int], num_buckets: int
) -> list[float]:
    """Boundaries of an equi-depth histogram with ``num_buckets`` buckets over
    a bag column: the value of each distinct row and its multiplicity.

    Returns ``num_buckets + 1`` increasing boundary values where each adjacent
    pair delimits a bucket containing roughly the same number of values.
    Duplicate boundaries caused by heavy hitters are collapsed, so the result
    may contain fewer buckets than requested (matching how DBMS statistics
    behave on skewed data).  NULL and NaN are skipped: no order places them;
    every other value is read as a float.

    The boundaries are those of the sorted column with every value repeated
    by its count, picked from the sorted distinct floats by their running
    counts.  Equal floats are one key under the first spelling the column
    holds, so a zero boundary keeps the sign of the column's first zero.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    weights = _float_counts(values, counts)
    for value in [value for value in weights if value != value]:
        del weights[value]  # NaN
    if not weights:
        raise ValueError("cannot build a histogram over an empty column")
    keys = sorted(weights)
    ends = list(accumulate(map(weights.__getitem__, keys)))
    size = ends[-1]
    boundaries = [keys[0]]
    for bucket in range(1, num_buckets):
        index = min(size - 1, round(bucket * size / num_buckets))
        candidate = keys[bisect_right(ends, index)]
        if candidate > boundaries[-1]:
            boundaries.append(candidate)
    if keys[-1] > boundaries[-1]:
        boundaries.append(keys[-1])
    elif len(boundaries) == 1:
        # A single distinct value still needs two boundaries to delimit one
        # (zero-width) bucket.  For every other input the maximum is already
        # the last boundary; appending it again would create a duplicated
        # final boundary and a degenerate zero-width last bucket.
        boundaries.append(boundaries[-1])
    return boundaries


def _float_counts(values: Sequence[object], counts: Collection[int]) -> Counter:
    """Each value but NULL read as a float, with the rows holding it."""
    if sum(counts) == len(counts):  # every count is 1
        return Counter(map(float, filter(partial(is_not, None), values)))
    weights: Counter = Counter()
    for value, count in zip(values, counts):
        if value is not None:
            weights[float(value)] += count
    return weights


class ColumnSummaries(dict):
    """A memo of the column statistics and equi-depth boundaries of one
    state of some tables, each computed on first request; ``clear()`` forgets
    them.  ``column(table, attribute)`` reads a column as the value of each
    distinct row and the rows' multiplicities; tables are named in lower
    case."""

    def column_statistics(
        self, column: Callable[[str, str], tuple], table: str, attribute: str
    ) -> ColumnStatistics:
        key = (table, attribute)
        if key not in self:
            self[key] = collect_column_statistics(attribute, *column(table, attribute))
        return self[key]

    def equi_depth_ranges(
        self, column: Callable[[str, str], tuple], table: str, attribute: str, num_buckets: int
    ) -> list[float]:
        """A copy of the boundaries, so callers cannot corrupt the memo."""
        key = (table, attribute, num_buckets)
        if key not in self:
            self[key] = equi_depth_boundaries(*column(table, attribute), num_buckets)
        return list(self[key])
