"""The *use* rewrite: instrument a query to skip data outside a sketch.

Given a provenance sketch, every access to a partitioned table is augmented
with a disjunction of BETWEEN conditions over the sketch's ranges (adjacent
ranges merged, footnote 2 of the paper).  The rewritten plan is then evaluated
by the backend; because the sketch is safe, the result equals evaluating the
original query over the full database while touching far less data.
"""

from __future__ import annotations

import math

from repro.relational.algebra import PlanNode, Selection, TableScan
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    LogicalOp,
)
from repro.sketch.sketch import ProvenanceSketch


def sketch_predicate(
    sketch: ProvenanceSketch, table: str, attribute: str | None = None
) -> Expression | None:
    """The filter predicate for ``table`` induced by ``sketch``.

    Returns None when the table is not partitioned (no filtering possible) or
    the sketch holds the table's outside fragment (a NULL or NaN value no
    range condition selects), and a contradiction (``1 = 0``) when the sketch
    covers no fragment of the table, since no tuple of that table contributes
    to the query result.
    """
    if not sketch.partition.has_table(table) or sketch.partition.outside_id(table) in sketch:
        return None
    partition = sketch.partition.partition_of(table)
    column = ColumnRef(attribute or partition.attribute)
    merged = sketch.merged_ranges_for(table)
    if not merged:
        return Comparison("=", Literal(1), Literal(0))
    disjuncts: list[Expression] = []
    for low, high, closed_high in merged:
        conditions: list[Expression] = []
        if not math.isinf(low):
            conditions.append(Comparison(">=", column, Literal(low)))
        if not math.isinf(high):
            operator = "<=" if closed_high else "<"
            conditions.append(Comparison(operator, column, Literal(high)))
        if not conditions:
            # The merged range spans the whole domain: no filtering is needed
            # for this table (the sketch covers it entirely).
            return None
        if len(conditions) == 1:
            disjuncts.append(conditions[0])
        else:
            disjuncts.append(LogicalOp("AND", conditions))
    if len(disjuncts) == 1:
        return disjuncts[0]
    return LogicalOp("OR", disjuncts)


def instrument_plan(plan: PlanNode, sketch: ProvenanceSketch) -> PlanNode:
    """Rewrite ``plan`` so scans of partitioned tables filter by ``sketch``."""
    if not isinstance(plan, TableScan):
        return plan.with_children([instrument_plan(child, sketch) for child in plan.children()])
    if not sketch.partition.has_table(plan.table):
        return plan
    attribute = sketch.partition.partition_of(plan.table).attribute
    predicate = sketch_predicate(sketch, plan.table, f"{plan.alias}.{attribute}")
    return plan if predicate is None else Selection(plan, predicate)

