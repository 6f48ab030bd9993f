"""An int out of float range (Python ints are unbounded; WAL format 2 stores
them and SQL literals parse them) raises a typed error wherever a float would
have to hold it -- never a raw ``OverflowError`` -- from the engine, the row
oracle and IMP alike, and partitioning over it falls back to a query without
a sketch."""

import pytest

from repro import Database
from repro.core.errors import AggregateError, UnsupportedOperationError
from repro.imp.middleware import IMPSystem
from repro.relational.algebra import AggregateFunction
from repro.relational.oracle import compute_aggregate
from tests.reference import oracle

HUGE = 10**400


def database(row=(1, HUGE, 1)) -> Database:
    database = Database()
    database.create_table("t", ["id", "a", "g"])
    database.insert("t", [row] + [(i, i, i % 3) for i in range(2, 12)])
    return database


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT id, a / 2 AS x FROM t", "operator / on int and int is out of float range"),
        ("SELECT id, a * 1.5 AS x FROM t", "operator * on int and float is out of float range"),
        ("SELECT id, a + 0.5 AS x FROM t", "operator + on int and float is out of float range"),
        ("SELECT id, a % 2.5 AS x FROM t", "operator % on int and float is out of float range"),
        ("SELECT id FROM t WHERE a / 2 > 1", "operator / on int and int is out of float range"),
    ],
)
def test_arithmetic_raises_one_typed_error(sql, message):
    db = database()
    with pytest.raises(UnsupportedOperationError) as batch:
        db.query(sql)
    with pytest.raises(UnsupportedOperationError) as reference:
        oracle(db, sql)
    assert str(batch.value) == str(reference.value) == message
    with pytest.raises(UnsupportedOperationError):
        IMPSystem(db, num_fragments=4).run_query(sql)


@pytest.mark.parametrize("function", ["sum", "avg"])
def test_a_sum_raises_an_aggregate_error(function):
    db = database()
    sql = f"SELECT g, {function}(a) AS s FROM t GROUP BY g"
    with pytest.raises(AggregateError, match=f"{function}\\(a\\) .* out of float range"):
        db.query(sql)
    with pytest.raises(AggregateError, match=f"{function}\\(\\) .* out of float range"):
        oracle(db, sql)
    with pytest.raises(AggregateError, match="out of float range"):
        compute_aggregate(AggregateFunction(function), [(1, 1), (HUGE, 2)])


HAVING = "SELECT g, sum(a) AS s FROM t GROUP BY g HAVING sum(a) > 3"


def test_imp_capture_raises_it():
    with pytest.raises(AggregateError, match="sum"):
        IMPSystem(database(), num_fragments=4).run_query(HAVING)


def test_imp_maintenance_raises_it_then_recaptures():
    db = database(row=(1, 1, 1))
    system = IMPSystem(db, num_fragments=4)
    assert system.run_query(HAVING) == db.query(HAVING)
    db.insert("t", [(20, HUGE, 1)])
    with pytest.raises(AggregateError, match="sum"):
        system.run_query(HAVING)
    db.delete_rows("t", [(20, HUGE, 1)])
    assert system.run_query(HAVING) == db.query(HAVING)


def test_partitioning_over_it_answers_without_a_sketch():
    db = database(row=(1, 1, HUGE))
    sql = "SELECT g, count(*) AS n FROM t GROUP BY g HAVING count(*) > 3"
    system = IMPSystem(db, num_fragments=4)
    assert system.run_query(sql) == db.query(sql)
    assert system.statistics.fallback_queries == 1
