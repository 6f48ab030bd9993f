"""Property-based end-to-end checks of incremental maintenance (Theorem 6.1).

Hypothesis drives random update sequences against randomly-shaped synthetic
data and checks, after every maintenance step, that

* the maintained sketch over-approximates a freshly captured accurate sketch
  (the formal guarantee of Theorem 6.1), and
* answering the query through the maintained sketch returns exactly the same
  result as evaluating it over the full database (safety of the sketch).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.persistence import dump_engine_state
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from tests.reference import AnnotatedEvaluator

QUERIES = [
    "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 550",
    "SELECT a, sum(b) AS sb FROM r GROUP BY a HAVING sum(b) > 400",
    "SELECT a, count(*) AS n, max(c) AS mx FROM r GROUP BY a HAVING count(*) > 1",
    "SELECT a, avg(b) AS ab FROM r WHERE b < 300 GROUP BY a HAVING avg(c) < 700",
    "SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 4",
]

update_batches = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=6)),
    min_size=1,
    max_size=5,
)


def build_database(seed: int, num_rows: int, num_groups: int):
    rng = random.Random(seed)
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    rows = [
        (i, rng.randrange(num_groups), rng.randrange(500), rng.randrange(1000))
        for i in range(num_rows)
    ]
    database.insert("r", rows)
    return database, rows, rng


# One plan per incremental operator, over tables *without* primary keys so
# rows may repeat.  ``r.b`` and ``s.w`` are the partition attributes.
OPERATOR_QUERIES = {
    "selection": "SELECT a, b, c FROM r WHERE c < 600",
    "projection": "SELECT a, b + c AS bc FROM r",
    "sum_avg_count": (
        "SELECT a, sum(c) AS sc, avg(c) AS ac, count(*) AS n FROM r "
        "GROUP BY a HAVING count(*) > 2"
    ),
    "min_max": "SELECT a, min(c) AS lo, max(c) AS hi FROM r GROUP BY a HAVING min(c) < 300",
    "distinct": "SELECT DISTINCT a FROM r WHERE c < 500",
    "top_k": "SELECT a, b, c FROM r ORDER BY c, a, b LIMIT 6",
    "equi_join": "SELECT a, c, w FROM r JOIN s ON (a = ttid) WHERE c < 700",
    "theta_join": "SELECT a, c, w FROM r JOIN s ON (a < ttid) WHERE c < 300",
    "cross_product": "SELECT a, w FROM r, s WHERE c < 200",
    # A stateful side plan: the join evaluates it from scratch once, when the
    # other side first changes, and then brings that copy forward by the
    # deltas of the incrementally maintained one.
    "aggregation_below_join": (
        "SELECT a, n, w FROM (SELECT a AS a, count(*) AS n, min(c) AS lo FROM r GROUP BY a) t "
        "JOIN s ON (a = ttid) WHERE lo < 300"
    ),
    # A scalar aggregate has a result row even over empty input.  Here its
    # input is often empty (about one r row in 60 qualifies) and comes and
    # goes with the updates; the row carries s's fragments into the sketch.
    "scalar_aggregate_below_cross_product": (
        "SELECT n, lo, w FROM "
        "(SELECT count(*) AS n, min(b) AS lo FROM r WHERE a = 0 AND c = 900) t, s"
    ),
    # ... and here always: no r row has c > 900.
    "empty_scalar_aggregate_below_theta_join": (
        "SELECT n, w FROM (SELECT count(*) AS n, sum(b) AS sb FROM r WHERE c > 900) t "
        "JOIN s ON (n < ttid)"
    ),
    # The engine's plan is pruned to what μ reads: a dead aggregate leaves
    # Distinct on the group keys, below a join too, and a dead projected
    # column goes from a subquery the join reads only the key of.
    "dead_aggregate": "SELECT a, sum(c) AS sc, min(b) AS lo FROM r GROUP BY a",
    "dead_aggregate_below_join": (
        "SELECT w FROM (SELECT a, max(c) AS hi FROM r GROUP BY a) t JOIN s ON (a = ttid)"
    ),
    "dead_column_below_join": (
        "SELECT w FROM (SELECT a, b + c AS bc FROM r) t JOIN s ON (a = ttid)"
    ),
}


def _random_r_row(rng: random.Random):
    # Few distinct rows (so inserts repeat existing ones) and NULLs in the
    # partition attribute.
    partition_value = None if rng.random() < 0.15 else rng.randrange(100)
    return (rng.randrange(6), partition_value, rng.randrange(10) * 100)


def _random_s_row(rng: random.Random):
    return (rng.randrange(6), None if rng.random() < 0.15 else rng.randrange(50))


def build_operator_database(seed: int):
    rng = random.Random(seed)
    database = Database()
    database.create_table("r", ["a", "b", "c"])
    database.create_table("s", ["ttid", "w"])
    contents = {
        "r": [_random_r_row(rng) for _ in range(60)],
        "s": [_random_s_row(rng) for _ in range(12)],
    }
    # Repeat some rows outright: multiplicity > 1 in the stored bags.
    contents["r"] += contents["r"][:10]
    contents["s"] += contents["s"][:3]
    for table, rows in contents.items():
        database.insert(table, rows)
    partition = DatabasePartition(
        [
            RangePartition.equi_width("r", "b", 0, 100, 5),
            RangePartition.equi_width("s", "w", 0, 50, 3),
        ]
    )
    return database, contents, partition, rng


def _canonical_state(value):
    """An engine-state payload with insertion orders (of groups, of fragment
    counts, of top-k buckets) normalised away; tuple contents keep theirs."""
    if isinstance(value, dict):
        if "__tuple__" in value:
            return ("tuple", *map(_canonical_state, value["__tuple__"]))
        return sorted(((str(key), _canonical_state(item)) for key, item in value.items()), key=repr)
    if isinstance(value, (list, tuple)):
        return sorted(map(_canonical_state, value), key=repr)
    return value


class TestMaintainedEqualsRecaptured:
    """Three ways to the same sketch, for every operator and awkward delta
    shape: maintained by delta passes ≡ captured by a from-scratch pass of the
    same engine ≡ the row-at-a-time oracle of ``tests/reference.py``."""

    @given(
        operator=st.sampled_from(sorted(OPERATOR_QUERIES)),
        seed=st.integers(min_value=0, max_value=10_000),
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # inserts per table
                st.integers(min_value=0, max_value=6),  # deletes per table
                st.booleans(),  # also insert a row and delete it again
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_operator_and_delta_shape(self, operator, seed, batches):
        database, contents, partition, rng = build_operator_database(seed)
        plan = database.plan(OPERATOR_QUERIES[operator])
        tables = sorted(plan.referenced_tables())
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        make_row = {"r": _random_r_row, "s": _random_s_row}
        for insert_count, delete_count, churn in batches:
            version = database.version
            # One batch touches every referenced table (both join sides).
            for table in tables:
                rows = contents[table]
                inserts = [make_row[table](rng) for _ in range(insert_count)]
                deletes = rng.sample(rows, min(delete_count, len(rows)))
                for victim in deletes:
                    rows.remove(victim)
                rows.extend(inserts)
                if inserts:
                    database.insert(table, inserts)
                if deletes:
                    database.delete_rows(table, deletes)
                if churn:
                    # Two commits the fetched (uncompacted) delta reports as
                    # an insert *and* a delete of the same row.
                    transient = make_row[table](rng)
                    database.insert(table, [transient])
                    database.delete_rows(table, [transient])
            if database.version == version:
                continue
            db_delta = database.database_delta_since(tables, version)
            if churn:
                assert any(
                    set(dict(delta.inserts())) & set(dict(delta.deletes()))
                    for _table, delta in db_delta.items()
                )
            outcome = engine.maintain(db_delta, database.version)
            assert not outcome.needs_recapture
            recaptured = capture_sketch(plan, partition, database)
            oracle = AnnotatedEvaluator(database, partition).capture(plan)
            assert (
                set(engine.current_sketch().fragment_ids())
                == set(recaptured.fragment_ids())
                == set(oracle.fragment_ids())
            )
            # The operator state itself must equal a fresh initialisation.
            fresh = IncrementalEngine(plan, partition, database)
            fresh.initialize()
            assert _canonical_state(dump_engine_state(engine)["operators"]) == _canonical_state(
                dump_engine_state(fresh)["operators"]
            )


class TestMaintenanceProperties:
    @given(
        query=st.sampled_from(QUERIES),
        seed=st.integers(min_value=0, max_value=10_000),
        batches=update_batches,
        fragments=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_maintained_sketch_overapproximates_and_stays_safe(
        self, query, seed, batches, fragments
    ):
        database, rows, rng = build_database(seed, num_rows=250, num_groups=12)
        plan = database.plan(query)
        partition = build_database_partition(database, plan, fragments)
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        next_id = 10_000
        for insert_count, delete_count in batches:
            version = database.version
            inserts = [
                (next_id + i, rng.randrange(12), rng.randrange(500), rng.randrange(1000))
                for i in range(insert_count)
            ]
            next_id += insert_count
            deletes = rng.sample(rows, min(delete_count, len(rows)))
            for victim in deletes:
                rows.remove(victim)
            rows.extend(inserts)
            if inserts:
                database.insert("r", inserts)
            if deletes:
                database.delete_rows("r", deletes)
            if not inserts and not deletes:
                continue
            outcome = engine.maintain(
                database.database_delta_since(["r"], version), database.version
            )
            if outcome.needs_recapture:
                engine.reset()
                sketch = engine.initialize()
            else:
                sketch = sketch.apply_delta(outcome.sketch_delta)

            accurate = capture_sketch(plan, partition, database)
            assert set(sketch.fragment_ids()) >= set(accurate.fragment_ids())

            through_sketch = database.query(instrument_plan(plan, sketch))
            full = database.query(plan)
            assert through_sketch == full

    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        buffer_limit=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=15, deadline=None)
    def test_buffered_minmax_is_always_safe_or_recaptured(self, seed, buffer_limit):
        database, rows, rng = build_database(seed, num_rows=150, num_groups=6)
        query = "SELECT a, min(b) AS lo FROM r GROUP BY a HAVING min(b) < 400"
        plan = database.plan(query)
        partition = build_database_partition(database, plan, 6)
        engine = IncrementalEngine(
            plan, partition, database, IMPConfig(min_max_buffer=buffer_limit)
        )
        sketch = engine.initialize()
        for _ in range(3):
            version = database.version
            deletes = rng.sample(rows, min(len(rows), rng.randrange(1, 12)))
            for victim in deletes:
                rows.remove(victim)
            database.delete_rows("r", deletes)
            outcome = engine.maintain(
                database.database_delta_since(["r"], version), database.version
            )
            if outcome.needs_recapture:
                engine.reset()
                sketch = engine.initialize()
            else:
                sketch = sketch.apply_delta(outcome.sketch_delta)
            through_sketch = database.query(instrument_plan(plan, sketch))
            assert through_sketch == database.query(plan)
