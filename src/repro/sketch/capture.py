"""Sketch capture: evaluating queries under annotated semantics.

To capture a sketch for a query the paper runs an instrumented *capture query*
that propagates coarse-grained provenance (the range each input tuple belongs
to) through the operators of the query and finally unions the annotations of
all result tuples into a sketch.  :class:`AnnotatedEvaluator` implements that
instrumented evaluation directly over logical plans; it is used

* to capture new sketches (blue pipeline in Fig. 2),
* by the full-maintenance baseline, which recaptures the sketch from scratch,
* and by the incremental engine to initialise operator state and to evaluate
  the non-delta side of joins outsourced to the backend.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.bitset import BitSet
from repro.core.errors import PlanError
from repro.relational.algebra import (
    Aggregation,
    Distinct,
    Join,
    PlanNode,
    Projection,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.evaluator import (
    RelationProvider,
    compute_aggregate,
    make_order_key,
)
from repro.relational.expressions import (
    CompiledExpression,
    compile_expression,
    compile_row_expressions,
)
from repro.relational.schema import Relation, Row, Schema
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch


class AnnotatedRelation:
    """A bag of sketch-annotated tuples ``⟨t, P⟩`` (paper Def. 4.3).

    Entries are keyed by ``(row, annotation)`` so equal tuples with different
    provenance stay distinct, which the merge operator's reference counts rely
    on.
    """

    __slots__ = ("schema", "_entries")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: dict[tuple[Row, BitSet], int] = {}

    @classmethod
    def from_entries(
        cls, schema: Schema, entries: dict[tuple[Row, BitSet], int]
    ) -> "AnnotatedRelation":
        """Adopt a ``(row tuple, annotation) -> positive multiplicity`` mapping."""
        relation = cls(schema)
        relation._entries = entries
        return relation

    def add(self, row: Row, annotation: BitSet, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of the annotated tuple."""
        if multiplicity <= 0:
            return
        key = (tuple(row), annotation)
        self._entries[key] = self._entries.get(key, 0) + multiplicity

    def items(self) -> Iterator[tuple[Row, BitSet, int]]:
        """Iterate over ``(row, annotation, multiplicity)`` triples."""
        for (row, annotation), multiplicity in self._entries.items():
            yield row, annotation, multiplicity

    def __len__(self) -> int:
        """Total number of annotated tuples (counting duplicates)."""
        return sum(self._entries.values())

    def __bool__(self) -> bool:
        return bool(self._entries)

    def distinct_count(self) -> int:
        """Number of distinct annotated tuples."""
        return len(self._entries)

    def to_relation(self) -> Relation:
        """Drop annotations (the paper's tuple-extraction function ``T``)."""
        result = Relation(self.schema)
        for row, _annotation, multiplicity in self.items():
            result.add(row, multiplicity)
        return result

    def combined_annotation(self) -> BitSet:
        """Union of all annotations (the ``S(F(...))`` of the correctness proof)."""
        combined = BitSet()
        for _row, annotation, _multiplicity in self.items():
            combined.update(annotation)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnnotatedRelation(rows={len(self)}, distinct={self.distinct_count()})"


def annotated_scan(
    provider: RelationProvider, partition: DatabasePartition, table: str, alias: str
) -> AnnotatedRelation:
    """The table's rows, each annotated with the fragment its partition value
    falls into (no fragment for NULL values and unpartitioned tables).

    Rows of one fragment share a single :class:`BitSet`; annotations of an
    :class:`AnnotatedRelation` are never mutated in place.
    """
    base = provider.relation(table)
    entries = list(base.items())
    if partition.has_table(table):
        position = base.schema.index_of(partition.partition_of(table).attribute)
        fragments = partition.fragments_of(table, [row[position] for row, _m in entries])
    else:
        fragments = [None] * len(entries)
    shared = {
        fragment: BitSet() if fragment is None else BitSet.from_mask(1 << fragment)
        for fragment in set(fragments)
    }
    return AnnotatedRelation.from_entries(
        base.schema.qualify(alias),
        {
            (row, shared[fragment]): multiplicity
            for (row, multiplicity), fragment in zip(entries, fragments)
        },
    )


class AnnotatedEvaluator:
    """Evaluate logical plans propagating provenance-sketch annotations.

    Like the reference evaluator, expressions are compiled per
    ``(expression, schema)`` before the per-row loops; the shared compile cache
    means repeated captures (full maintenance, outsourced join sides) reuse the
    specialised closures across rounds.
    """

    def __init__(self, provider: RelationProvider, partition: DatabasePartition) -> None:
        self._provider = provider
        self._partition = partition

    # -- public API ------------------------------------------------------------------

    def evaluate(self, plan: PlanNode) -> AnnotatedRelation:
        """Evaluate ``plan`` under annotated semantics."""
        return self._evaluate(plan)

    def capture(self, plan: PlanNode) -> ProvenanceSketch:
        """Capture the provenance sketch of ``plan`` over the current database."""
        result = self.evaluate(plan)
        return ProvenanceSketch(self._partition, result.combined_annotation())

    # -- dispatch --------------------------------------------------------------------

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

    # -- operators ---------------------------------------------------------------------

    def _table_scan(self, node: TableScan) -> AnnotatedRelation:
        return annotated_scan(self._provider, self._partition, node.table, node.alias)

    def _selection(self, node: Selection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        predicate = compile_expression(node.predicate, child.schema)
        for row, annotation, multiplicity in child.items():
            if predicate(row) is True:
                result.add(row, annotation, multiplicity)
        return result

    def _projection(self, node: Projection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = Schema(item.alias for item in node.items)
        result = AnnotatedRelation(schema)
        project = compile_row_expressions(
            [item.expression for item in node.items], child.schema
        )
        for row, annotation, multiplicity in child.items():
            result.add(project(row), annotation, multiplicity)
        return result

    def _join(self, node: Join) -> AnnotatedRelation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        schema = left.schema.concat(right.schema)
        result = AnnotatedRelation(schema)
        condition = (
            None if node.condition is None else compile_expression(node.condition, schema)
        )
        keys = node.equi_join_keys()
        if keys is not None:
            left_keys, right_keys = self._resolve_keys(keys, left.schema, right.schema)
            if left_keys is not None and right_keys is not None:
                right_positions = [right.schema.index_of(k) for k in right_keys]
                left_positions = [left.schema.index_of(k) for k in left_keys]
                index: dict[tuple, list[tuple[Row, BitSet, int]]] = {}
                for row, annotation, multiplicity in right.items():
                    key = tuple(row[p] for p in right_positions)
                    index.setdefault(key, []).append((row, annotation, multiplicity))
                for row, annotation, multiplicity in left.items():
                    key = tuple(row[p] for p in left_positions)
                    for other_row, other_annotation, other_mult in index.get(key, ()):
                        combined = row + other_row
                        if condition is None or condition(combined) is True:
                            result.add(
                                combined,
                                annotation | other_annotation,
                                multiplicity * other_mult,
                            )
                return result
        for left_row, left_annotation, left_mult in left.items():
            for right_row, right_annotation, right_mult in right.items():
                combined = left_row + right_row
                if condition is None or condition(combined) is True:
                    result.add(
                        combined, left_annotation | right_annotation, left_mult * right_mult
                    )
        return result

    @staticmethod
    def _resolve_keys(
        keys: tuple[list[str], list[str]], left: Schema, right: Schema
    ) -> tuple[list[str] | None, list[str] | None]:
        first, second = keys
        if all(left.has(k) for k in first) and all(right.has(k) for k in second):
            return first, second
        if all(left.has(k) for k in second) and all(right.has(k) for k in first):
            return second, first
        return None, None

    def _aggregation(self, node: Aggregation) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = node.output_schema(self._provider)  # type: ignore[arg-type]
        group_key = compile_row_expressions(node.group_by, child.schema)
        argument_fns = [
            None if agg.argument is None else compile_expression(agg.argument, child.schema)
            for agg in node.aggregates
        ]
        groups: dict[tuple, dict[str, object]] = {}
        for row, annotation, multiplicity in child.items():
            key = group_key(row)
            group = groups.setdefault(key, {"rows": [], "annotation": BitSet()})
            group["rows"].append((row, multiplicity))  # type: ignore[union-attr]
            group["annotation"].update(annotation)  # type: ignore[union-attr]
        result = AnnotatedRelation(schema)
        if not groups and not node.group_by:
            values = tuple(
                self._aggregate(node, agg_index, argument_fns[agg_index], [])
                for agg_index in range(len(node.aggregates))
            )
            result.add(values, BitSet(), 1)
            return result
        for key, group in groups.items():
            rows = group["rows"]
            values = tuple(
                self._aggregate(node, agg_index, argument_fns[agg_index], rows)  # type: ignore[arg-type]
                for agg_index in range(len(node.aggregates))
            )
            result.add(key + values, group["annotation"], 1)  # type: ignore[arg-type]
        return result

    @staticmethod
    def _aggregate(
        node: Aggregation,
        agg_index: int,
        argument: CompiledExpression | None,
        rows: list[tuple[Row, int]],
    ) -> object:
        aggregate = node.aggregates[agg_index]
        if argument is None:
            return sum(multiplicity for _row, multiplicity in rows)
        values = ((argument(row), multiplicity) for row, multiplicity in rows)
        return compute_aggregate(aggregate.function, values)

    def _distinct(self, node: Distinct) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        merged: dict[Row, BitSet] = {}
        for row, annotation, _multiplicity in child.items():
            existing = merged.get(row)
            if existing is None:
                merged[row] = annotation.copy()
            else:
                existing.update(annotation)
        for row, annotation in merged.items():
            result.add(row, annotation, 1)
        return result

    def _top_k(self, node: TopK) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        order_key = make_order_key(
            node.order_by,
            [compile_expression(item.expression, child.schema) for item in node.order_by],
        )
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


def capture_sketch(
    plan: PlanNode, partition: DatabasePartition, provider: RelationProvider
) -> ProvenanceSketch:
    """Capture a provenance sketch for ``plan`` over the current database state."""
    return AnnotatedEvaluator(provider, partition).capture(plan)
