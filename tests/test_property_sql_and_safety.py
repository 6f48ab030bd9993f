"""Property-based tests for the SQL frontend and sketch safety.

Two end-to-end invariants are exercised over randomly generated inputs:

* parse → template is total and stable on the supported query space, and
  queries that differ only in constants always share a template;
* for randomly chosen (safe) queries, partitions and database states, answering
  the query through a freshly captured sketch equals full evaluation (safety of
  accurate sketches), and any over-approximation of that sketch stays safe;
* a template's first query, answered by ``IMPSystem`` over signed, NaN and
  infinite values, equals full evaluation for every HAVING direction and for
  filters nested below an aggregation or above a join.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imp.engine import capture_sketch
from repro.imp.middleware import IMPSystem
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.sql.parser import parse_select
from repro.sql.template import template_of
from repro.storage.database import Database

# --- random query generation -------------------------------------------------

COLUMNS = ["a", "b", "c"]
AGGREGATES = ["sum", "avg", "count", "min", "max"]
COMPARATORS = ["<", "<=", ">", ">=", "="]


@st.composite
def group_by_queries(draw) -> tuple[str, float]:
    """A GROUP BY / HAVING query over the synthetic table plus its threshold."""
    aggregate = draw(st.sampled_from(AGGREGATES))
    measure = draw(st.sampled_from(["b", "c"]))
    threshold = draw(st.integers(min_value=0, max_value=1200))
    having_aggregate = draw(st.sampled_from(AGGREGATES))
    having_measure = draw(st.sampled_from(["b", "c"]))
    comparator = draw(st.sampled_from(COMPARATORS))
    where = ""
    if draw(st.booleans()):
        where_column = draw(st.sampled_from(["b", "c"]))
        where_value = draw(st.integers(min_value=100, max_value=900))
        where = f" WHERE {where_column} < {where_value}"
    sql = (
        f"SELECT a, {aggregate}({measure}) AS m FROM r{where} GROUP BY a "
        f"HAVING {having_aggregate}({having_measure}) {comparator} {threshold}"
    )
    return sql, float(threshold)


class TestTemplateProperties:
    @given(group_by_queries())
    @settings(max_examples=60)
    def test_parse_and_template_are_total(self, query):
        sql, _threshold = query
        statement = parse_select(sql)
        template = template_of(statement)
        assert template.text
        # Templating is idempotent and deterministic.
        assert template == template_of(sql)

    @given(group_by_queries(), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60)
    def test_templates_ignore_constants(self, query, other_threshold):
        sql, threshold = query
        replaced = sql.replace(str(int(threshold)), str(other_threshold))
        assert template_of(sql) == template_of(replaced)

    @given(group_by_queries())
    @settings(max_examples=40)
    def test_different_group_by_changes_template(self, query):
        sql, _threshold = query
        changed = sql.replace("GROUP BY a", "GROUP BY b", 1)
        assert template_of(sql) != template_of(changed)


def _make_database(seed: int, num_rows: int, num_groups: int) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    database.insert(
        "r",
        [
            (i, rng.randrange(num_groups), rng.randrange(800), rng.randrange(1300))
            for i in range(num_rows)
        ],
    )
    return database


class TestSketchSafetyProperties:
    @given(
        query=group_by_queries(),
        seed=st.integers(min_value=0, max_value=10_000),
        fragments=st.integers(min_value=2, max_value=24),
    )
    @settings(max_examples=30, deadline=None)
    def test_accurate_sketches_are_safe(self, query, seed, fragments):
        sql, _threshold = query
        database = _make_database(seed, num_rows=300, num_groups=15)
        plan = database.plan(sql)
        # build_database_partition only partitions on safe attributes; for these
        # queries the group-by attribute ``a`` is always safe.
        partition = build_database_partition(database, plan, fragments)
        sketch = capture_sketch(plan, partition, database)
        through_sketch = database.query(instrument_plan(plan, sketch))
        assert through_sketch == database.query(plan)

    @given(
        query=group_by_queries(),
        seed=st.integers(min_value=0, max_value=10_000),
        extra_fragments=st.sets(st.integers(min_value=0, max_value=7), max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_overapproximated_sketches_stay_safe(self, query, seed, extra_fragments):
        sql, _threshold = query
        database = _make_database(seed, num_rows=250, num_groups=12)
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 8)
        sketch = capture_sketch(plan, partition, database)
        widened = sketch.copy()
        for fragment in extra_fragments:
            if fragment < partition.total_fragments:
                widened.add(fragment)
        # Any over-approximation of a safe sketch is safe (Niu et al. [37]).
        assert database.query(instrument_plan(plan, widened)) == database.query(plan)


# --- first-query safety over signed values ---------------------------------------


def _signed_value(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.45:
        return rng.randint(-20, 20)
    if kind < 0.9:
        return rng.uniform(-20, 20)
    return rng.choice([math.nan, math.inf, -math.inf])


def _signed_database(seed: int, text_keys: bool) -> Database:
    """``r(id, g, b)`` with signed, NaN and infinite ``b`` over eight groups,
    and ``u(k, g)`` holding some of the groups."""
    rng = random.Random(seed)
    key = (lambda g: f"g{g}") if text_keys else (lambda g: g)
    database = Database()
    database.create_table("r", ["id", "g", "b"], primary_key="id")
    database.insert(
        "r", [(i, key(rng.randrange(8)), _signed_value(rng)) for i in range(rng.randint(10, 40))]
    )
    database.create_table("u", ["k", "g"])
    database.insert("u", [(k, key(g)) for k, g in enumerate(rng.sample(range(8), rng.randint(1, 8)))])
    return database


def _filtered_aggregation(shape: str, aggregate: str, condition: str) -> str:
    inner = f"SELECT g, {aggregate}(b) AS m FROM r GROUP BY g"
    having = f"HAVING {aggregate}(b) {condition}"
    if shape == "plain":
        return f"{inner} {having}"
    if shape == "nested":
        return f"SELECT count(*) AS n FROM ({inner} {having}) s"
    # A WHERE over the subquery's aggregate, above a join.
    return f"SELECT t.g, t.m FROM ({inner}) t JOIN u ON t.g = u.g WHERE t.m {condition}"


class TestFirstQuerySafety:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        # A text key cannot be partitioned on, so a rule that lets a filtered
        # group be split would partition r on ``id`` instead.
        text_keys=st.sampled_from([True, True, True, False]),
        comparator=st.sampled_from(["<", "<=", ">", ">="]),
        threshold=st.integers(-5, 5),
        shape=st.sampled_from(["plain", "nested", "join"]),
        fragments=st.integers(4, 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_first_sketch_answers_equal_full_evaluation(
        self, aggregate, seed, text_keys, comparator, threshold, shape, fragments
    ):
        """No update runs between the queries, so drift in maintained float
        sums (ROADMAP item 22) cannot reach this test."""
        database = _signed_database(seed, text_keys)
        sql = _filtered_aggregation(shape, aggregate, f"{comparator} {threshold}")
        expected = repr(database.query(sql).to_sorted_list())
        system = IMPSystem(database, num_fragments=fragments)
        for _ in range(2):  # captures, then answers with the sketch
            assert repr(system.run_query(sql).to_sorted_list()) == expected
