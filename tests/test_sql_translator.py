"""Tests for SQL-to-algebra translation and query templates."""

import pytest

from repro.core.errors import PlanError
from repro.imp.middleware import IMPSystem
from repro.relational.algebra import (
    Aggregation,
    Distinct,
    Join,
    Projection,
    Selection,
    TableScan,
    TopK,
    walk_plan,
)
from repro.sql.template import template_of
from repro.sql.translator import translate
from repro.storage.database import Database
from tests.reference import oracle


@pytest.fixture()
def catalog() -> Database:
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"])
    database.create_table("s", ["sid", "d", "e"])
    database.insert("r", [(1, 1, 10, 100), (2, 2, 20, 200), (3, 2, 30, 300)])
    database.insert("s", [(1, 10, 5), (2, 30, 6)])
    return database


def node_types(plan) -> list[str]:
    return [type(node).__name__ for node in walk_plan(plan)]


class TestTranslation:
    def test_select_star_is_bare_scan(self, catalog):
        plan = translate("SELECT * FROM r", catalog)
        assert isinstance(plan, TableScan)

    def test_projection_and_selection(self, catalog):
        plan = translate("SELECT a, b FROM r WHERE a > 1", catalog)
        assert node_types(plan) == ["Projection", "Selection", "TableScan"]

    def test_aggregation_with_having_shape(self, catalog):
        plan = translate(
            "SELECT a, sum(b) AS total FROM r GROUP BY a HAVING sum(b) > 10", catalog
        )
        assert node_types(plan) == ["Projection", "Selection", "Aggregation", "TableScan"]
        aggregation = next(n for n in walk_plan(plan) if isinstance(n, Aggregation))
        assert [agg.alias for agg in aggregation.aggregates] == ["total"]

    def test_having_aggregate_not_in_select_gets_synthetic_alias(self, catalog):
        plan = translate(
            "SELECT a, sum(b) AS total FROM r GROUP BY a HAVING avg(c) < 100", catalog
        )
        aggregation = next(n for n in walk_plan(plan) if isinstance(n, Aggregation))
        aliases = {agg.alias for agg in aggregation.aggregates}
        assert "total" in aliases and len(aliases) == 2

    def test_explicit_join_condition_preserved(self, catalog):
        # The key pair survives beside a range conjunct, in either spelling.
        for sql, residual in (
            ("SELECT a, e FROM r JOIN s ON b = d", None),
            ("SELECT a, e FROM r JOIN s ON d = b AND c < e", "(c < e)"),
        ):
            plan = translate(sql, catalog)
            join = next(n for n in walk_plan(plan) if isinstance(n, Join))
            left, right = join.left.output_schema(catalog), join.right.output_schema(catalog)
            pairs, rest = join.key_pairs(left, right)
            assert pairs == [(2, 1)]
            assert (rest and rest.canonical()) == residual

    def test_comma_join_where_becomes_join_condition(self, catalog):
        plan = translate("SELECT a, e FROM r, s WHERE b = d AND a > 1", catalog)
        join = next(n for n in walk_plan(plan) if isinstance(n, Join))
        assert join.condition is not None
        # The single-table predicate is pushed below the join.
        selections = [n for n in walk_plan(plan) if isinstance(n, Selection)]
        assert any(
            isinstance(selection.child, TableScan) for selection in selections
        )

    def test_subquery_source_is_requalified(self, catalog):
        plan = translate(
            "SELECT a, avg(b) AS ab FROM "
            "(SELECT a AS a, b AS b FROM r WHERE b < 25) tt JOIN s ON (a = d) "
            "GROUP BY a",
            catalog,
        )
        result = catalog.query(plan)
        assert result.schema.attributes == ("a", "ab")

    def test_order_by_limit_creates_topk(self, catalog):
        plan = translate(
            "SELECT a, sum(b) AS total FROM r GROUP BY a ORDER BY total DESC LIMIT 2",
            catalog,
        )
        assert isinstance(plan, TopK)
        assert plan.k == 2
        assert plan.order_by[0].ascending is False

    def test_order_by_aggregate_expression(self, catalog):
        plan = translate(
            "SELECT a, sum(b) AS total FROM r GROUP BY a ORDER BY sum(b) LIMIT 1", catalog
        )
        assert isinstance(plan, TopK)

    def test_order_by_without_limit_is_ignored(self, catalog):
        plan = translate("SELECT a FROM r ORDER BY a", catalog)
        assert not isinstance(plan, TopK)

    def test_distinct(self, catalog):
        plan = translate("SELECT DISTINCT a FROM r", catalog)
        assert isinstance(plan, Distinct)

    def test_count_star(self, catalog):
        result = catalog.query("SELECT a, count(*) AS n FROM r GROUP BY a")
        assert sorted(result.rows()) == [(1, 1), (2, 2)]

    def test_limit_without_order_by_rejected(self, catalog):
        with pytest.raises(PlanError):
            translate("SELECT a FROM r LIMIT 3", catalog)

    def test_having_without_group_by_rejected(self, catalog):
        with pytest.raises(PlanError):
            translate("SELECT a FROM r HAVING a > 1", catalog)

    def test_order_by_unknown_attribute_rejected(self, catalog):
        with pytest.raises(PlanError):
            translate("SELECT a FROM r ORDER BY zzz LIMIT 1", catalog)


class TestTranslationResults:
    """End-to-end: translated plans compute the expected answers."""

    def test_group_by_having(self, catalog):
        result = catalog.query(
            "SELECT a, sum(b) AS total FROM r GROUP BY a HAVING sum(b) > 15"
        )
        assert sorted(result.rows()) == [(2, 50.0)]

    def test_join_aggregation(self, catalog):
        result = catalog.query(
            "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a"
        )
        assert sorted(result.rows()) == [(1, 5.0), (2, 6.0)]

    def test_arithmetic_in_aggregate(self, catalog):
        result = catalog.query(
            "SELECT a, sum(b * c) AS weighted FROM r GROUP BY a HAVING sum(b * c) > 2000"
        )
        assert sorted(result.rows()) == [(2, 13000.0)]

    def test_top_k_result(self, catalog):
        result = catalog.query("SELECT a, b FROM r ORDER BY b DESC LIMIT 2")
        assert sorted(result.rows()) == [(2, 20), (2, 30)]

    @pytest.mark.parametrize(
        "inner, answer",
        [
            (
                "SELECT t.g, sum(t.v) AS s FROM t GROUP BY t.g",
                [(3, 30, 3, 30.0), (2, 20, 2, 20.0)],
            ),
            ("SELECT t.g, t.v AS s FROM t", [(3, 30, 3, 30), (2, 20, 2, 20)]),
        ],
        ids=["aggregated", "plain"],
    )
    def test_subquery_leaves_no_state_for_the_outer_order_by(self, inner, answer):
        # An aggregated subquery's GROUP BY renames and aggregate aliases
        # belong to it alone; the outer ORDER BY must not resolve through them.
        database = Database()
        database.create_table("t", ["g", "v"])
        database.insert("t", [(1, 10), (2, 20), (3, 30)])
        sql = (
            f"SELECT * FROM t, ({inner}) AS q WHERE t.g = q.g "
            "ORDER BY t.g DESC LIMIT 2"
        )
        expected = oracle(database, sql)
        assert database.query(sql) == expected
        assert sorted(expected.rows(), reverse=True) == answer

    @pytest.mark.parametrize(
        "sql, answer, sketched",
        [
            (
                "SELECT a % 3 AS m, count(*) AS n FROM t GROUP BY a % 3",
                [(0, 14), (1, 13), (2, 13)],
                True,
            ),
            (
                "SELECT b + 1 AS m, sum(a) AS s FROM t GROUP BY b + 1 HAVING sum(a) > 300",
                [(4, 345.0)],
                True,
            ),
            (
                "SELECT b + 1, max(a) AS hi FROM t GROUP BY b + 1 "
                "ORDER BY b + 1 DESC LIMIT 2",
                [(3, 29), (4, 39)],
                False,  # top-k by a GROUP BY expression: no safe sketch attribute
            ),
        ],
        ids=["select", "having", "order-by"],
    )
    def test_a_group_by_expression_is_read_above_the_aggregation(self, sql, answer, sketched):
        """A GROUP BY expression repeated in SELECT, HAVING or ORDER BY is its
        group attribute, through the engine and through a sketch."""
        database = Database()
        database.create_table("t", ["a", "b"])
        database.insert("t", [(i, i // 10) for i in range(40)])
        expected = oracle(database, sql)
        assert sorted(expected.rows()) == answer
        assert database.query(sql) == expected
        system = IMPSystem(database, num_fragments=4)
        assert system.run_query(sql) == expected  # captures
        assert system.run_query(sql) == expected  # answered with the sketch
        assert system.statistics.sketch_hits == (2 if sketched else 0)



class TestTemplates:
    def test_constants_are_parameterized(self):
        first = template_of("SELECT a FROM r WHERE b < 100 GROUP BY a HAVING avg(c) < 5")
        second = template_of("SELECT a FROM r WHERE b < 999 GROUP BY a HAVING avg(c) < 77")
        assert first == second

    def test_different_shapes_differ(self):
        first = template_of("SELECT a FROM r WHERE b < 100")
        second = template_of("SELECT a FROM r WHERE c < 100")
        assert first != second

    def test_limit_is_part_of_template(self):
        first = template_of("SELECT a FROM r ORDER BY a LIMIT 10")
        second = template_of("SELECT a FROM r ORDER BY a LIMIT 20")
        assert first != second

    def test_join_and_subquery_render(self):
        template = template_of(
            "SELECT a, avg(b) AS ab FROM (SELECT a, b FROM r WHERE b < 10) tt "
            "JOIN s ON a = d GROUP BY a"
        )
        assert "JOIN" in template.text
        assert "?" in template.text
