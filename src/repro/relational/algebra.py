"""Logical relational algebra plan nodes.

The plan language mirrors Fig. 4 of the paper: table access, selection,
projection, cross product / join, group-by aggregation (sum, count, avg, min,
max), duplicate removal and top-k.  Plans are immutable trees; both the
backend evaluator (:mod:`repro.relational.evaluator`) and the IMP incremental
compiler (:mod:`repro.imp.engine`) consume the same representation, which is
what lets IMP maintain exactly the queries the backend can answer.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from typing import Protocol

from repro.core.errors import PlanError
from repro.relational.expressions import ColumnRef, Expression
from repro.relational.schema import Schema


class SchemaProvider(Protocol):
    """Anything that can resolve a table name to its schema."""

    def schema_of(self, table: str) -> Schema:  # pragma: no cover - protocol
        ...


class PlanNode:
    """Base class of logical plan operators."""

    optimized = False
    """Set by :meth:`~repro.relational.optimizer.PlanOptimizer.optimize` on the
    root of the plan it returns: the evaluator rewrites only plans that are
    not yet optimizer output, so a cached optimized plan is evaluated as is."""

    def children(self) -> tuple["PlanNode", ...]:
        """The child operators (empty for leaves)."""
        raise NotImplementedError

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        """The schema of the operator's output relation."""
        raise NotImplementedError

    def referenced_tables(self) -> set[str]:
        """Names of base tables accessed anywhere below this node."""
        tables: set[str] = set()
        for node in walk_plan(self):
            if isinstance(node, TableScan):
                tables.add(node.table)
        return tables

    def describe(self) -> str:
        """Single-line description used in EXPLAIN-style output."""
        raise NotImplementedError

    def explain(self, catalog: SchemaProvider | None = None, indent: int = 0) -> str:
        """Multi-line, indented rendering of the plan tree."""
        lines = [" " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(catalog, indent + 2))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def walk_plan(root: PlanNode) -> Iterator[PlanNode]:
    """Pre-order traversal of a plan tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


class TableScan(PlanNode):
    """Access of a base table, optionally renamed via an alias.

    The output schema is qualified with the alias (or table name) so that
    joins between self-joined tables stay unambiguous.
    """

    def __init__(self, table: str, alias: str | None = None) -> None:
        # The backend catalog is case-insensitive (names are stored lowercase);
        # normalising here -- the single place plans name base tables -- keeps
        # referenced_tables() comparable with audit-log and store table keys,
        # so mixed-case SQL cannot silently skip staleness checks or eager
        # maintenance.  The alias keeps its spelling (including the implicit
        # table-name alias): it qualifies columns and must match how the query
        # references them.
        self.alias = alias or table
        self.table = table.lower()

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return catalog.schema_of(self.table).qualify(self.alias)

    def describe(self) -> str:
        if self.alias != self.table:
            return f"TableScan({self.table} AS {self.alias})"
        return f"TableScan({self.table})"


class Selection(PlanNode):
    """Filter tuples by a boolean predicate (also used for HAVING)."""

    def __init__(self, child: PlanNode, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return self.child.output_schema(catalog)

    def describe(self) -> str:
        return f"Selection({self.predicate.canonical()})"


class ProjectionItem:
    """A single projection expression with an output attribute name."""

    __slots__ = ("expression", "alias")

    def __init__(self, expression: Expression, alias: str | None = None) -> None:
        self.expression = expression
        if alias is None:
            if isinstance(expression, ColumnRef):
                alias = Schema.bare_name(expression.name)
            else:
                alias = expression.canonical()
        self.alias = alias

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.expression.canonical()} AS {self.alias}"


class Projection(PlanNode):
    """Generalised projection: expressions with renaming."""

    def __init__(self, child: PlanNode, items: Sequence[ProjectionItem]) -> None:
        if not items:
            raise PlanError("projection requires at least one item")
        self.child = child
        self.items = tuple(items)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return Schema(item.alias for item in self.items)

    def describe(self) -> str:
        rendered = ", ".join(repr(item) for item in self.items)
        return f"Projection({rendered})"


class Join(PlanNode):
    """Inner (theta) join; ``condition=None`` is a plain cross product."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Expression | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return self.left.output_schema(catalog).concat(self.right.output_schema(catalog))

    def describe(self) -> str:
        if self.condition is None:
            return "CrossProduct"
        return f"Join({self.condition.canonical()})"

    def equi_join_keys(self) -> tuple[list[str], list[str]] | None:
        """When the condition is a conjunction of equalities between one
        attribute from each side, return ``(left_attrs, right_attrs)``.

        Used by the incremental engine to maintain Bloom filters on the join
        attributes (Sec. 7.2).  Returns None for non-equi joins.
        """
        from repro.relational.expressions import Comparison, conjuncts

        if self.condition is None:
            return None
        left_keys: list[str] = []
        right_keys: list[str] = []
        for conjunct in conjuncts(self.condition):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                return None
            if not isinstance(conjunct.left, ColumnRef) or not isinstance(
                conjunct.right, ColumnRef
            ):
                return None
            left_keys.append(conjunct.left.name)
            right_keys.append(conjunct.right.name)
        return left_keys, right_keys


class CrossProduct(Join):
    """Explicit cross product node (a :class:`Join` without a condition)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        super().__init__(left, right, condition=None)


class AggregateFunction(enum.Enum):
    """Aggregation functions supported by the engine (paper Sec. 5.2.5/5.2.6)."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @classmethod
    def from_name(cls, name: str) -> "AggregateFunction":
        try:
            return cls(name.lower())
        except ValueError as exc:
            raise PlanError(f"unsupported aggregate function {name!r}") from exc


class Aggregate:
    """A single aggregate computation within an Aggregation operator."""

    __slots__ = ("function", "argument", "alias")

    def __init__(
        self,
        function: AggregateFunction,
        argument: Expression | None,
        alias: str,
    ) -> None:
        if function is not AggregateFunction.COUNT and argument is None:
            raise PlanError(f"{function.value}() requires an argument")
        self.function = function
        self.argument = argument
        self.alias = alias

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arg = "*" if self.argument is None else self.argument.canonical()
        return f"{self.function.value}({arg}) AS {self.alias}"


class Aggregation(PlanNode):
    """Group-by aggregation.

    ``group_by`` is a list of grouping expressions (almost always column
    references); ``aggregates`` is the list of aggregate computations.  The
    output schema is the grouping attributes followed by the aggregate
    aliases, matching the paper's ``γ_{f(a);G}`` operator.
    """

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[Expression],
        aggregates: Sequence[Aggregate],
    ) -> None:
        if not aggregates:
            raise PlanError("aggregation requires at least one aggregate function")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def group_attribute_names(self) -> list[str]:
        """Output attribute names of the grouping expressions."""
        names = []
        for expression in self.group_by:
            if isinstance(expression, ColumnRef):
                names.append(Schema.bare_name(expression.name))
            else:
                names.append(expression.canonical())
        return names

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        names = self.group_attribute_names()
        names.extend(agg.alias for agg in self.aggregates)
        return Schema(names)

    def describe(self) -> str:
        groups = ", ".join(e.canonical() for e in self.group_by) or "<global>"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregation(group by {groups}; {aggs})"


class Distinct(PlanNode):
    """Duplicate removal (``δ`` in the paper)."""

    def __init__(self, child: PlanNode) -> None:
        self.child = child

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return self.child.output_schema(catalog)

    def describe(self) -> str:
        return "Distinct"


class OrderItem:
    """A single ORDER BY key with sort direction."""

    __slots__ = ("expression", "ascending")

    def __init__(self, expression: Expression, ascending: bool = True) -> None:
        self.expression = expression
        self.ascending = ascending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.expression.canonical()} {'ASC' if self.ascending else 'DESC'}"


class TopK(PlanNode):
    """Return the first ``k`` tuples ordered by the ORDER BY keys (``τ_{k,O}``)."""

    def __init__(self, child: PlanNode, k: int, order_by: Sequence[OrderItem]) -> None:
        if k <= 0:
            raise PlanError("top-k requires a positive k")
        if not order_by:
            raise PlanError("top-k requires at least one order-by key")
        self.child = child
        self.k = k
        self.order_by = tuple(order_by)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, catalog: SchemaProvider) -> Schema:
        return self.child.output_schema(catalog)

    def describe(self) -> str:
        keys = ", ".join(repr(item) for item in self.order_by)
        return f"TopK(k={self.k}; order by {keys})"
