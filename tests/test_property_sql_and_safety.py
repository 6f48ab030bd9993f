"""Property-based tests for the SQL frontend and sketch safety.

Two end-to-end invariants are exercised over randomly generated inputs:

* parse → template is total and stable on the supported query space, and
  queries that differ only in constants always share a template;
* for randomly chosen (safe) queries, partitions and database states, answering
  the query through a freshly captured sketch equals full evaluation (safety of
  accurate sketches), and any over-approximation of that sketch stays safe.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imp.engine import capture_sketch
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
