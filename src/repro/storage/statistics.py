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

from collections.abc import Sequence
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


def collect_column_statistics(attribute: str, values: Sequence[object]) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for a column's values (the
    minimum and maximum of its orderable ones: NaN is skipped like NULL, and
    a column holding values that do not compare, such as ``1`` and ``'x'``,
    has neither)."""
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
        row_count=len(values),
        null_count=len(values) - len(non_null),
        distinct_count=len(set(non_null)),
        minimum=minimum,
        maximum=maximum,
    )


def equi_depth_boundaries(
    values: Sequence[float], num_buckets: int
) -> list[float]:
    """Boundaries of an equi-depth histogram with ``num_buckets`` buckets.

    Returns ``num_buckets + 1`` increasing boundary values where each adjacent
    pair delimits a bucket containing roughly the same number of values.
    Duplicate boundaries caused by heavy hitters are collapsed, so the result
    may contain fewer buckets than requested (matching how DBMS statistics
    behave on skewed data).  NULL and NaN are skipped: no order places them.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    data = sorted(value for value in values if value is not None and value == value)
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
