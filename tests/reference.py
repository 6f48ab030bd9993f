"""Reference semantics the engine is held to.

Scalar expressions: the tree-walking interpreter
``repro.relational.oracle.interpret`` (re-exported here).  The engine only
ever runs the one lowering, ``Expression.compile_batch`` column kernels;
:func:`checked_value` holds that lowering to the interpreter, over a single
entry and over a whole generated column.

Whole queries: the reference oracle is
``Database.query(q, optimize_plans=False, vectorize=False)`` -- the literal
plan on ``repro.relational.oracle.RowEvaluator``, the row-at-a-time module
the engine never imports; :func:`assert_systems_match_oracle` drives the
middleware systems against it.

Sketch capture: :class:`AnnotatedEvaluator` evaluates a plan under the
paper's annotated semantics (Sec. 4.3) one row at a time over a dict of
``(row, frozenset of fragment ids)`` entries, every expression interpreted
per row.  The engine's
only annotated evaluation is a from-scratch pass of the columnar, int-mask
incremental operators (``repro.imp.operators``); this oracle shares no code
with ``repro.imp`` and states what that pass must produce, tuple by tuple and
as a sketch.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import pytest

from repro.core.errors import PlanError
from repro.imp.engine import IMPConfig, compile_plan
from repro.imp.middleware import IMPSystem, NoSketchSystem
from repro.imp.operators import Pass
from repro.relational.algebra import (
    Aggregate,
    Aggregation,
    Distinct,
    Join,
    PlanNode,
    Projection,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.evaluator import RelationProvider
from repro.relational.expressions import Expression
from repro.relational.oracle import compute_aggregate, interpret, make_order_key
from repro.relational.schema import Relation, Row, Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch

def checked_value(expression: Expression, row: Row, schema: Schema) -> Any:
    """The interpreted value of ``expression`` for ``row``, after asserting
    that the engine's lowering produces exactly it (same value, same type):
    over ``row`` as the only entry (``n = 1``) and over a whole column batch
    holding ``row``, an all-NULL row and ``row`` again.  A node that raises
    for ``row`` must raise the same way at ``n = 1`` -- and not at ``n = 0``.
    """
    kernel = expression.compile_batch(schema)
    assert kernel([[] for _ in schema], 0) == []
    try:
        expected = interpret(expression, row, schema)
    except Exception as error:
        with pytest.raises(type(error)):
            kernel([[value] for value in row], 1)
        raise
    for entries in ([row], [row, (None,) * len(row), row]):
        reference = [interpret(expression, each, schema) for each in entries]
        values = kernel([list(column) for column in zip(*entries)], len(entries))
        assert values == reference
        assert list(map(type, values)) == list(map(type, reference))
    return expected


def assert_systems_match_oracle(database, queries, insert_batches, num_fragments=16):
    """Run every query through ``IMPSystem`` and ``NoSketchSystem`` before each
    batch of inserts into ``r`` and assert both answer exactly as the
    reference oracle does.  Returns the IMP system for further assertions."""
    imp = IMPSystem(database, num_fragments=num_fragments)
    no_sketch = NoSketchSystem(database)
    for inserts in insert_batches:
        for sql in queries:
            reference = database.query(sql, optimize_plans=False, vectorize=False)
            assert imp.run_query(sql) == reference, sql
            assert no_sketch.run_query(sql) == reference, sql
        imp.apply_update("r", inserts=inserts)
    return imp


def random_insert_batches(rng, count, first_id=20_000):
    """``count`` small insert batches for a table ``r(id, a, b, c)``."""
    batches = []
    for _ in range(count):
        size = rng.randrange(1, 4)
        batches.append(
            [
                (first_id + i, rng.randrange(15), rng.randrange(100), rng.randrange(300))
                for i in range(size)
            ]
        )
        first_id += size
    return batches


class AnnotatedRelation:
    """A bag of sketch-annotated tuples ``⟨t, P⟩`` (paper Def. 4.3).

    Entries are keyed by ``(row, annotation)`` so equal tuples with different
    provenance stay distinct.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: dict[tuple[Row, frozenset[int]], int] = {}

    def add(self, row: Row, annotation: frozenset[int], multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of the annotated tuple."""
        if multiplicity <= 0:
            return
        key = (tuple(row), annotation)
        self._entries[key] = self._entries.get(key, 0) + multiplicity

    def items(self) -> Iterator[tuple[Row, frozenset[int], int]]:
        """Iterate over ``(row, annotation, multiplicity)`` triples."""
        for (row, annotation), multiplicity in self._entries.items():
            yield row, annotation, multiplicity

    def entries(self) -> dict[tuple[Row, frozenset[int]], int]:
        """``(row, annotation) -> multiplicity``."""
        return dict(self._entries)

    def to_relation(self) -> Relation:
        """Drop annotations (the paper's tuple-extraction function ``T``)."""
        result = Relation(self.schema)
        for row, _annotation, multiplicity in self.items():
            result.add(row, multiplicity)
        return result

    def combined_annotation(self) -> frozenset[int]:
        """Union of all annotations (the ``S(F(...))`` of the correctness proof)."""
        return frozenset().union(*(annotation for _row, annotation, _m in self.items()))


class AnnotatedEvaluator:
    """Evaluate logical plans propagating provenance-sketch annotations."""

    def __init__(self, provider: RelationProvider, partition: DatabasePartition) -> None:
        self._provider = provider
        self._partition = partition

    def evaluate(self, plan: PlanNode) -> AnnotatedRelation:
        """Evaluate ``plan`` under annotated semantics."""
        return self._evaluate(plan)

    def capture(self, plan: PlanNode) -> ProvenanceSketch:
        """Capture the provenance sketch of ``plan`` over the current database."""
        result = self.evaluate(plan)
        return ProvenanceSketch(self._partition, result.combined_annotation())

    def _evaluate(self, node: PlanNode) -> AnnotatedRelation:
        if isinstance(node, TableScan):
            return self._table_scan(node)
        if isinstance(node, Selection):
            return self._selection(node)
        if isinstance(node, Projection):
            return self._projection(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Aggregation):
            return self._aggregation(node)
        if isinstance(node, Distinct):
            return self._distinct(node)
        if isinstance(node, TopK):
            return self._top_k(node)
        raise PlanError(
            f"annotated evaluation does not support plan node {type(node).__name__}"
        )

    def _table_scan(self, node: TableScan) -> AnnotatedRelation:
        """Each row annotated with the fragment its partition value falls into
        (the table's outside fragment for NULL and NaN, no fragment for
        unpartitioned tables)."""
        base = self._provider.relation(node.table)
        result = AnnotatedRelation(base.schema.qualify(node.alias))
        position = None
        if self._partition.has_table(node.table):
            attribute = self._partition.partition_of(node.table).attribute
            position = base.schema.index_of(attribute)
        for row, multiplicity in base.items():
            annotation: frozenset[int] = frozenset()
            if position is not None:
                value = row[position]
                if value is None or value != value:
                    annotation = frozenset({self._partition.outside_id(node.table)})
                else:
                    annotation = frozenset({self._partition.fragment_of(node.table, value)})
            result.add(row, annotation, multiplicity)
        return result

    def _selection(self, node: Selection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        for row, annotation, multiplicity in child.items():
            if interpret(node.predicate, row, child.schema) is True:
                result.add(row, annotation, multiplicity)
        return result

    def _projection(self, node: Projection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = Schema(item.alias for item in node.items)
        result = AnnotatedRelation(schema)
        for row, annotation, multiplicity in child.items():
            values = [interpret(item.expression, row, child.schema) for item in node.items]
            result.add(tuple(values), annotation, multiplicity)
        return result

    def _join(self, node: Join) -> AnnotatedRelation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        schema = left.schema.concat(right.schema)
        result = AnnotatedRelation(schema)
        for left_row, left_annotation, left_mult in left.items():
            for right_row, right_annotation, right_mult in right.items():
                combined = left_row + right_row
                if (
                    node.condition is None
                    or interpret(node.condition, combined, schema) is True
                ):
                    result.add(
                        combined, left_annotation | right_annotation, left_mult * right_mult
                    )
        return result

    def _aggregation(self, node: Aggregation) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = node.output_schema(self._provider)  # type: ignore[arg-type]
        groups: dict[tuple, dict[str, object]] = {}
        for row, annotation, multiplicity in child.items():
            key = tuple(interpret(e, row, child.schema) for e in node.group_by)
            group = groups.setdefault(key, {"rows": [], "annotation": frozenset()})
            group["rows"].append((row, multiplicity))  # type: ignore[union-attr]
            group["annotation"] |= annotation  # type: ignore[operator]
        result = AnnotatedRelation(schema)
        if not groups and not node.group_by:
            values = tuple(
                self._aggregate(aggregate, child.schema, []) for aggregate in node.aggregates
            )
            result.add(values, frozenset(), 1)
            return result
        for key, group in groups.items():
            rows = group["rows"]
            values = tuple(
                self._aggregate(aggregate, child.schema, rows)  # type: ignore[arg-type]
                for aggregate in node.aggregates
            )
            result.add(key + values, group["annotation"], 1)  # type: ignore[arg-type]
        return result

    @staticmethod
    def _aggregate(
        aggregate: Aggregate, schema: Schema, rows: list[tuple[Row, int]]
    ) -> object:
        if aggregate.argument is None:
            return sum(multiplicity for _row, multiplicity in rows)
        values = (
            (interpret(aggregate.argument, row, schema), multiplicity)
            for row, multiplicity in rows
        )
        return compute_aggregate(aggregate.function, values)

    def _distinct(self, node: Distinct) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        merged: dict[Row, frozenset[int]] = {}
        for row, annotation, _multiplicity in child.items():
            merged[row] = merged.get(row, frozenset()) | annotation
        for row, annotation in merged.items():
            result.add(row, annotation, 1)
        return result

    def _top_k(self, node: TopK) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        order_key = make_order_key(node.order_by, child.schema)
        entries = sorted(child.items(), key=lambda entry: order_key(entry[0]))
        result = AnnotatedRelation(child.schema)
        remaining = node.k
        for row, annotation, multiplicity in entries:
            if remaining <= 0:
                break
            take = min(multiplicity, remaining)
            result.add(row, annotation, take)
            remaining -= take
        return result


def engine_output(plan, partition, database) -> dict[tuple[Row, frozenset[int]], int]:
    """The root output of the engine's from-scratch pass, shaped like the
    oracle's entries: ``(row, annotation) -> multiplicity``, each int mask
    spelled out as the set of its bit positions."""
    root = compile_plan(plan, partition, database, IMPConfig())
    output = root.process(Pass.scratch(database.version))
    entries: dict[tuple[Row, frozenset[int]], int] = {}
    for row, mask, count in output.entries():
        key = (row, frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
        entries[key] = entries.get(key, 0) + count
    return entries
