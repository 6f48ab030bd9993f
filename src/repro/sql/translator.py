"""Translate SQL ASTs into relational algebra plans.

The translator performs name resolution, lifts aggregate function calls into
:class:`~repro.relational.algebra.Aggregation` operators, turns comma-style
FROM lists plus WHERE equality predicates into explicit joins (so the backend
can use hash joins and IMP can maintain Bloom filters per join), and produces
the operator shapes the IMP incremental compiler expects:

``TopK( Projection( Selection_HAVING( Aggregation( Selection_WHERE( joins... )))))``
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Distinct,
    Join,
    OrderItem,
    PlanNode,
    Projection,
    ProjectionItem,
    SchemaProvider,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
    conjunction,
    conjuncts,
)
from repro.relational.schema import Schema
from repro.sql.ast import (
    FromSource,
    JoinSource,
    SelectStatement,
    SubquerySource,
    TableSource,
)
from repro.sql.parser import parse_select


class Translator:
    """Builds logical plans from parsed SELECT statements."""

    def __init__(self, catalog: SchemaProvider) -> None:
        self._catalog = catalog
        self._subquery_counter = 0

    # -- public API --------------------------------------------------------------

    def translate(self, statement: SelectStatement) -> PlanNode:
        """Translate ``statement`` into a logical plan."""
        plan = self._build_from(statement)
        plan = self._apply_where(plan, statement.where)
        plan = self._apply_aggregation(plan, statement)
        if statement.distinct:
            plan = Distinct(plan)
        return self._apply_top_k(plan, statement)

    def translate_sql(self, sql: str) -> PlanNode:
        """Parse and translate a SQL string."""
        return self.translate(parse_select(sql))

    # -- FROM clause -------------------------------------------------------------

    def _build_from(self, statement: SelectStatement) -> PlanNode:
        if not statement.from_sources:
            raise PlanError("query requires a FROM clause")
        where_parts = conjuncts(statement.where)
        plans = [self._build_source(source) for source in statement.from_sources]

        # Push single-source conjuncts below the joins when they reference only
        # one source's attributes; this mirrors predicate push-down in the
        # backend and matches the selection shape IMP's delta filtering expects.
        remaining: list[Expression] = []
        for predicate in where_parts:
            if predicate.contains_aggregate():
                remaining.append(predicate)
                continue
            columns = predicate.columns()
            owners = [
                i
                for i, plan in enumerate(plans)
                if self._covers(plan, columns)
            ]
            if len(plans) > 1 and owners and self._exclusively_covers(plans, owners[0], columns):
                index = owners[0]
                plans[index] = Selection(plans[index], predicate)
            else:
                remaining.append(predicate)

        combined = plans[0]
        pending = remaining
        for plan in plans[1:]:
            join_conditions: list[Expression] = []
            still_pending: list[Expression] = []
            combined_schema = combined.output_schema(self._catalog)
            next_schema = plan.output_schema(self._catalog)
            both = Schema(tuple(combined_schema.attributes) + tuple(next_schema.attributes))
            for predicate in pending:
                columns = predicate.columns()
                if (
                    self._schema_covers(both, columns)
                    and any(self._schema_covers_column(next_schema, c) for c in columns)
                    and any(self._schema_covers_column(combined_schema, c) for c in columns)
                ):
                    join_conditions.append(predicate)
                else:
                    still_pending.append(predicate)
            combined = Join(combined, plan, conjunction(join_conditions))
            pending = still_pending
        self._pending_where = pending
        return combined

    def _build_source(self, source: FromSource) -> PlanNode:
        if isinstance(source, TableSource):
            return TableScan(source.name, source.effective_alias)
        if isinstance(source, SubquerySource):
            alias = source.alias or self._next_subquery_alias()
            inner = self.translate(source.query)
            schema = inner.output_schema(self._catalog)
            items = [
                ProjectionItem(ColumnRef(name), f"{alias}.{Schema.bare_name(name)}")
                for name in schema
            ]
            return Projection(inner, items)
        if isinstance(source, JoinSource):
            left = self._build_source(source.left)
            right = self._build_source(source.right)
            return Join(left, right, source.condition)
        raise PlanError(f"unsupported FROM source {type(source).__name__}")

    def _next_subquery_alias(self) -> str:
        self._subquery_counter += 1
        return f"subquery_{self._subquery_counter}"

    def _covers(self, plan: PlanNode, columns: set[str]) -> bool:
        schema = plan.output_schema(self._catalog)
        return self._schema_covers(schema, columns)

    @staticmethod
    def _schema_covers(schema: Schema, columns: set[str]) -> bool:
        return all(Translator._schema_covers_column(schema, column) for column in columns)

    @staticmethod
    def _schema_covers_column(schema: Schema, column: str) -> bool:
        try:
            schema.index_of(column)
        except Exception:
            return False
        return True

    def _exclusively_covers(
        self, plans: Sequence[PlanNode], index: int, columns: set[str]
    ) -> bool:
        """Whether only ``plans[index]`` provides every referenced column."""
        for i, plan in enumerate(plans):
            if i == index:
                continue
            schema = plan.output_schema(self._catalog)
            if any(self._schema_covers_column(schema, column) for column in columns):
                return False
        return True

    # -- WHERE -------------------------------------------------------------------

    def _apply_where(self, plan: PlanNode, where: Expression | None) -> PlanNode:
        pending = getattr(self, "_pending_where", None)
        if pending is None:
            pending = conjuncts(where)
        predicate = conjunction(pending)
        self._pending_where = None
        if predicate is None:
            return plan
        return Selection(plan, predicate)

    # -- aggregation / SELECT list -------------------------------------------------

    def _apply_aggregation(self, plan: PlanNode, statement: SelectStatement) -> PlanNode:
        aggregate_calls = self._collect_aggregates(statement)
        has_aggregation = bool(statement.group_by) or bool(aggregate_calls)

        if not has_aggregation:
            if statement.having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregate functions")
            return self._apply_projection(plan, statement)

        aggregates, alias_by_call = self._build_aggregates(statement, aggregate_calls)
        aggregation = Aggregation(plan, list(statement.group_by), aggregates)
        result: PlanNode = aggregation

        group_names = aggregation.group_attribute_names()
        group_rename = self._group_rename(statement.group_by, group_names)
        # Remember the rewriting context so ORDER BY expressions that mention
        # aggregates (e.g. ``ORDER BY sum(price)``) can be resolved later.
        self._alias_by_call = alias_by_call
        self._group_rename_map = group_rename

        if statement.having is not None:
            having = self._rewrite_post_aggregation(
                statement.having, alias_by_call, group_rename
            )
            result = Selection(result, having)

        items: list[ProjectionItem] = []
        for select_item in statement.select_items:
            if isinstance(select_item.expression, ColumnRef) and select_item.expression.name == "*":
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            rewritten = self._rewrite_post_aggregation(
                select_item.expression, alias_by_call, group_rename
            )
            alias = select_item.alias
            if alias is None and isinstance(select_item.expression, FunctionCall):
                alias = alias_by_call.get(select_item.expression.canonical())
            items.append(ProjectionItem(rewritten, alias))
        return Projection(result, items)

    def _apply_projection(self, plan: PlanNode, statement: SelectStatement) -> PlanNode:
        if len(statement.select_items) == 1:
            expression = statement.select_items[0].expression
            if isinstance(expression, ColumnRef) and expression.name == "*":
                return plan
        items = [
            ProjectionItem(item.expression, item.alias) for item in statement.select_items
        ]
        return Projection(plan, items)

    def _collect_aggregates(self, statement: SelectStatement) -> list[FunctionCall]:
        calls: dict[str, FunctionCall] = {}

        def visit(expression: Expression) -> None:
            if isinstance(expression, FunctionCall) and expression.is_aggregate:
                calls.setdefault(expression.canonical(), expression)
                return
            for child in _expression_children(expression):
                visit(child)

        for item in statement.select_items:
            visit(item.expression)
        if statement.having is not None:
            visit(statement.having)
        for spec in statement.order_by:
            visit(spec.expression)
        return list(calls.values())

    def _build_aggregates(
        self, statement: SelectStatement, calls: list[FunctionCall]
    ) -> tuple[list[Aggregate], dict[str, str]]:
        aliases: dict[str, str] = {}
        aggregates: list[Aggregate] = []
        used_names: set[str] = set()

        # Prefer user-provided aliases for select items that are bare aggregates.
        for item in statement.select_items:
            expression = item.expression
            if (
                isinstance(expression, FunctionCall)
                and expression.is_aggregate
                and item.alias is not None
            ):
                aliases.setdefault(expression.canonical(), item.alias)

        for index, call in enumerate(calls):
            canonical = call.canonical()
            alias = aliases.get(canonical)
            if alias is None or alias in used_names:
                alias = f"agg_{index}"
            used_names.add(alias)
            aliases[canonical] = alias
            function = AggregateFunction.from_name(call.name)
            argument: Expression | None
            if call.star or not call.args:
                argument = None
            else:
                argument = call.args[0]
            aggregates.append(Aggregate(function, argument, alias))
        return aggregates, aliases

    @staticmethod
    def _group_rename(
        group_by: Sequence[Expression], group_names: Sequence[str]
    ) -> dict[str, str]:
        rename: dict[str, str] = {}
        for expression, name in zip(group_by, group_names):
            if isinstance(expression, ColumnRef):
                rename[expression.name] = name
                rename[Schema.bare_name(expression.name)] = name
        return rename

    def _rewrite_post_aggregation(
        self,
        expression: Expression,
        alias_by_call: dict[str, str],
        group_rename: dict[str, str],
    ) -> Expression:
        """Rewrite an expression evaluated above an Aggregation operator.

        Aggregate calls become references to the aggregate output attribute;
        grouping columns are renamed to their output names.
        """
        if isinstance(expression, FunctionCall) and expression.is_aggregate:
            alias = alias_by_call.get(expression.canonical())
            if alias is None:
                raise PlanError(
                    f"aggregate {expression.canonical()} not available after aggregation"
                )
            return ColumnRef(alias)
        if isinstance(expression, ColumnRef):
            return ColumnRef(group_rename.get(expression.name, expression.name))
        if isinstance(expression, Literal):
            return expression
        if isinstance(expression, BinaryOp):
            return BinaryOp(
                expression.op,
                self._rewrite_post_aggregation(expression.left, alias_by_call, group_rename),
                self._rewrite_post_aggregation(expression.right, alias_by_call, group_rename),
            )
        if isinstance(expression, UnaryMinus):
            return UnaryMinus(
                self._rewrite_post_aggregation(expression.operand, alias_by_call, group_rename)
            )
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._rewrite_post_aggregation(expression.left, alias_by_call, group_rename),
                self._rewrite_post_aggregation(expression.right, alias_by_call, group_rename),
            )
        if isinstance(expression, Between):
            return Between(
                self._rewrite_post_aggregation(expression.operand, alias_by_call, group_rename),
                self._rewrite_post_aggregation(expression.low, alias_by_call, group_rename),
                self._rewrite_post_aggregation(expression.high, alias_by_call, group_rename),
            )
        if isinstance(expression, IsNull):
            return IsNull(
                self._rewrite_post_aggregation(expression.operand, alias_by_call, group_rename),
                expression.negated,
            )
        if isinstance(expression, LogicalOp):
            return LogicalOp(
                expression.op,
                [
                    self._rewrite_post_aggregation(operand, alias_by_call, group_rename)
                    for operand in expression.operands
                ],
            )
        if isinstance(expression, Not):
            return Not(
                self._rewrite_post_aggregation(expression.operand, alias_by_call, group_rename)
            )
        if isinstance(expression, FunctionCall):
            return FunctionCall(
                expression.name,
                [
                    self._rewrite_post_aggregation(arg, alias_by_call, group_rename)
                    for arg in expression.args
                ],
                expression.star,
            )
        return expression

    # -- ORDER BY / LIMIT ----------------------------------------------------------

    def _apply_top_k(self, plan: PlanNode, statement: SelectStatement) -> PlanNode:
        if statement.limit is None:
            # Without LIMIT the result is a bag; ORDER BY alone does not change
            # its contents so it is dropped (matching the engine's semantics).
            return plan
        if not statement.order_by:
            raise PlanError("LIMIT requires an ORDER BY clause")
        schema = plan.output_schema(self._catalog)
        alias_by_call = getattr(self, "_alias_by_call", {})
        group_rename = getattr(self, "_group_rename_map", {})
        order_items = []
        for spec in statement.order_by:
            expression = spec.expression
            if expression.contains_aggregate() or alias_by_call:
                expression = self._rewrite_post_aggregation(
                    expression, alias_by_call, group_rename
                )
            if not all(self._schema_covers_column(schema, c) for c in expression.columns()):
                raise PlanError(
                    f"ORDER BY expression {spec.expression.canonical()} must reference "
                    "attributes of the SELECT output"
                )
            order_items.append(OrderItem(expression, spec.ascending))
        return TopK(plan, statement.limit, order_items)


def _expression_children(expression: Expression) -> list[Expression]:
    """Direct sub-expressions of ``expression`` (used for traversal)."""
    if isinstance(expression, BinaryOp):
        return [expression.left, expression.right]
    if isinstance(expression, Comparison):
        return [expression.left, expression.right]
    if isinstance(expression, Between):
        return [expression.operand, expression.low, expression.high]
    if isinstance(expression, (UnaryMinus, Not, IsNull)):
        return [expression.operand]
    if isinstance(expression, LogicalOp):
        return list(expression.operands)
    if isinstance(expression, FunctionCall):
        return list(expression.args)
    return []


def translate(sql: str, catalog: SchemaProvider) -> PlanNode:
    """Convenience function: parse and translate ``sql`` against ``catalog``."""
    return Translator(catalog).translate_sql(sql)
