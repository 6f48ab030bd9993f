"""Predicate analysis: extracting index-usable range constraints.

The backend database can serve selections over an indexed attribute by an
index range scan instead of a full table scan -- this is the physical design
(indexes, zone maps) that provenance-based data skipping piggybacks on.  The
functions here derive, from an arbitrary selection predicate, a set of value
intervals for one attribute such that every satisfying tuple falls into one of
the intervals; returning ``None`` means the predicate gives no usable bound.
The intervals may over-approximate the predicate, so the fetched rows are
re-checked -- but only with the conjuncts the intervals do not prove exactly
(:func:`is_exact_bound`), which for a sketch's range disjunction is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.relational.expressions import (
    Between,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    LogicalOp,
    column_versus_literal,
)
from repro.relational.schema import Schema


@dataclass(frozen=True)
class Interval:
    """A closed/open value interval ``low .. high``.

    Bounds keep the literal's own value: Python compares int and float
    exactly, where ``float()`` would round an int above ``2**53``.
    """

    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = True

    @staticmethod
    def everything() -> "Interval":
        return Interval(-math.inf, math.inf)

    def is_empty(self) -> bool:
        if self.low > self.high:
            return True
        if self.low == self.high:
            return not (self.low_inclusive and self.high_inclusive)
        return False

    def intersect(self, other: "Interval") -> "Interval":
        if self.low > other.low or (self.low == other.low and not self.low_inclusive):
            low, low_inclusive = self.low, self.low_inclusive
        else:
            low, low_inclusive = other.low, other.low_inclusive
        if self.high < other.high or (self.high == other.high and not self.high_inclusive):
            high, high_inclusive = self.high, self.high_inclusive
        else:
            high, high_inclusive = other.high, other.high_inclusive
        return Interval(low, high, low_inclusive, high_inclusive)


def _matches_attribute(name: str, attribute: str) -> bool:
    return Schema.bare_name(name) == Schema.bare_name(attribute)


def _numeric(value: object) -> float | None:
    """``value`` as an interval bound: a number that is neither a bool nor NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        return None
    return value


def _comparison_interval(expression: Comparison, attribute: str) -> list[Interval] | None:
    shape = column_versus_literal(expression)
    if shape is None or not _matches_attribute(shape[0], attribute):
        return None
    _name, op, constant = shape
    if constant is None:
        return []  # a comparison with NULL is never TRUE
    value = _numeric(constant)
    if value is None:
        return None
    if op == "=":
        return [Interval(value, value)]
    if op == "<":
        return [Interval(-math.inf, value, True, False)]
    if op == "<=":
        return [Interval(-math.inf, value, True, True)]
    if op == ">":
        return [Interval(value, math.inf, False, True)]
    if op == ">=":
        return [Interval(value, math.inf, True, True)]
    return None


def extract_intervals(predicate: Expression, attribute: str) -> list[Interval] | None:
    """Intervals for ``attribute`` implied by ``predicate``.

    Guarantee: every tuple satisfying the predicate has its ``attribute`` value
    inside one of the returned intervals.  ``None`` means no bound could be
    derived (the caller must fall back to a full scan).  A comparison with
    NULL, or a BETWEEN of two NULLs, is never TRUE: no interval.  A BETWEEN
    with one NULL bound is never TRUE either, but where its other bound's
    comparison raises the full scan raises, so it gives that half (for the
    fetched rows to be rechecked, see :func:`is_exact_bound`).
    """
    if isinstance(predicate, Comparison):
        return _comparison_interval(predicate, attribute)
    if isinstance(predicate, Between):
        operand, low, high = predicate.operand, predicate.low, predicate.high
        if (
            isinstance(operand, ColumnRef)
            and _matches_attribute(operand.name, attribute)
            and isinstance(low, Literal)
            and isinstance(high, Literal)
        ):
            if low.value is None and high.value is None:
                return []
            low_value = -math.inf if low.value is None else _numeric(low.value)
            high_value = math.inf if high.value is None else _numeric(high.value)
            if low_value is not None and high_value is not None:
                return [Interval(low_value, high_value)]
        return None
    if isinstance(predicate, LogicalOp):
        if predicate.op == "AND":
            # Intersect the bounds of every conjunct that provides one; a
            # conjunct without bounds simply does not narrow the result.
            combined: list[Interval] | None = None
            for operand in predicate.operands:
                intervals = extract_intervals(operand, attribute)
                if intervals is None:
                    continue
                if combined is None:
                    combined = intervals
                else:
                    combined = [
                        a.intersect(b)
                        for a in combined
                        for b in intervals
                        if not a.intersect(b).is_empty()
                    ]
            return combined
        if predicate.op == "OR":
            union: list[Interval] = []
            for operand in predicate.operands:
                intervals = extract_intervals(operand, attribute)
                if intervals is None:
                    # One disjunct without bounds makes the whole OR unbounded.
                    return None
                union.extend(intervals)
            return union
    return None


def is_exact_bound(predicate: Expression, attribute: str) -> bool:
    """Whether ``predicate`` is true of exactly the rows whose ``attribute``
    value lies in ``extract_intervals(predicate, attribute)``.

    True for a comparison of the attribute with a number under ``= < <= >
    >=`` (either operand order), a BETWEEN of two numbers, and any AND/OR
    tree of those (a sketch's range disjunction): the bounds are exact, and
    NULL and NaN, which satisfy no such comparison, are not indexed -- so the
    rows an index scan fetches over the intervals need no recheck of it.  So
    is a comparison with NULL (no interval, no row).  ``<>``, a comparison
    with another column, another attribute, or a BETWEEN with one NULL bound
    (the other bound's half) are not proven.
    """
    if isinstance(predicate, LogicalOp):
        return all(is_exact_bound(operand, attribute) for operand in predicate.operands)
    if not isinstance(predicate, (Comparison, Between)):
        return False
    intervals = extract_intervals(predicate, attribute)
    if isinstance(predicate, Between) and intervals:
        return None not in (predicate.low.value, predicate.high.value)
    return intervals is not None


def intervals_are_selective(intervals: list[Interval] | None) -> bool:
    """Whether the extracted intervals actually restrict the scanned values."""
    if intervals is None:
        return False
    if not intervals:
        return True
    return not any(
        math.isinf(interval.low) and math.isinf(interval.high) for interval in intervals
    )
