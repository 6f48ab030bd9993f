"""The top-k kernel's sort keys: raw values for plain-number columns.

``kernels.top_k_batch`` sorts a column of plain numbers (int, float, bool;
no NaN) by its own values, or their negations for DESC, and every other
column by ``order_component`` keys.  The property holds the kernel to the
selection keyed by ``kernels.order_keys`` (components for every column) over
key columns of every kind; the spies show which columns pay for component
keys.  Engine ≡ oracle over the generated tables is the catalogue's "top-k
by plain and component keys" shape (``tests/reference.py``); the fixed cases
here cut a LIMIT inside a tie and inside a multiplicity on purpose.
"""

from __future__ import annotations

import math
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import kernels
from repro.relational.columnar import ColumnBatch
from repro.relational.schema import Schema
from repro.storage.database import Database
from tests.reference import BIG, NAN, PLAIN, answer, assert_matches_oracle, oracle

INF = math.inf
# Plain pools (one infinity is still plain) and pools keyed by components:
# both infinities sum to NaN, NaN, NULL, text, mixed kinds, numbers that
# ``order_component`` keys by their text, an int beyond float range.
POOLS = [
    PLAIN,
    PLAIN + [INF],
    PLAIN + [-INF],
    PLAIN + [INF, -INF],
    PLAIN + [NAN],
    PLAIN + [None],
    ["ash", "Birch", "1", ""],
    PLAIN + ["x", None, NAN],
    [Decimal("10"), Decimal("9"), Decimal("-1")],
    [Decimal("10"), 3, 2.5],
    [10**400, 1.0, 2],
]


@st.composite
def key_columns(draw, length: int) -> list:
    pool = draw(st.sampled_from(POOLS))
    return draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))


def selected_by_order_keys(columns, ascending, multiplicities, k) -> list[tuple[int, int]]:
    """The entries (position, multiplicity) a LIMIT ``k`` keeps when every
    column is keyed by its ``order_component`` keys."""
    keys = kernels.order_keys(columns, ascending)
    taken, remaining = [], k
    for position in sorted(range(len(keys)), key=keys.__getitem__):
        if not remaining:
            break
        take = min(multiplicities[position], remaining)
        taken.append((position, take))
        remaining -= take
    return taken


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_k_batch_selects_as_order_keys_do(data):
    """For any key columns, directions and k the kernel keeps the entries and
    multiplicities the component-keyed selection keeps, in its order."""
    length = data.draw(st.integers(0, 12))
    width = data.draw(st.integers(1, 3))
    columns = [data.draw(key_columns(length)) for _ in range(width)]
    ascending = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    multiplicities = data.draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
    k = data.draw(st.integers(0, 15))
    batch = ColumnBatch(
        Schema(["position"]), [list(range(length))], multiplicities, consolidated=True
    )
    result = kernels.top_k_batch(batch, columns, ascending, k)
    taken = list(zip(result.columns[0], result.multiplicities))
    assert taken == selected_by_order_keys(columns, ascending, multiplicities, k)


# -- which columns pay for component keys ---------------------------------------------

# Ties of 1/1.0/True, of 0.0/-0.0 and of 2**53/float(2**53) (2**53 + 1 sorts
# above both), and a repeated row (3, 0.0) of multiplicity 2.
ROWS = [
    (0, 150.5),
    (1, 2**53),
    (2, BIG),
    (3, 0.0),
    (3, 0.0),
    (4, -0.0),
    (5, float(2**53)),
    (6, 1),
    (7, 1.0),
    (8, True),
    (9, -3),
    (10, 250),
    (11, INF),
]
PLAIN_QUERIES = [
    "SELECT id, b FROM r WHERE b < 200 ORDER BY b, id LIMIT 10",
    "SELECT id, b FROM r ORDER BY b LIMIT 2",  # inside the multiplicity
    "SELECT id, b FROM r ORDER BY b LIMIT 5",  # inside the 1/1.0/True tie
    "SELECT id, b FROM r ORDER BY b DESC LIMIT 3",  # inside the 2**53 tie
    "SELECT id, b FROM r WHERE b < 200 ORDER BY b DESC LIMIT 5",  # inside (3, 0.0)'s too
    "SELECT id, b FROM r ORDER BY b, id DESC LIMIT 9",
    "SELECT id, b FROM r ORDER BY id DESC, b LIMIT 3",
]


NULL_QUERIES = [
    "SELECT id, b FROM r ORDER BY b, id LIMIT 10",
    "SELECT id, b FROM r ORDER BY id, b DESC LIMIT 10",
]


def database_of(rows) -> Database:
    database = Database()
    database.create_table("r", ["id", "b"])
    database.insert("r", rows)
    return database


def refuse(value):
    raise AssertionError(f"a component key for the plain number {value!r}")


def test_plain_number_keys_build_no_component(monkeypatch):
    """With the component rule patched to raise, plain-number ORDER BY
    queries still answer -- as the oracle does, entry order included."""
    database = database_of(ROWS)
    expected = {sql: answer(oracle(database, sql)) for sql in PLAIN_QUERIES}
    monkeypatch.setattr(kernels, "order_component", refuse)
    monkeypatch.setattr(kernels, "descending_component", refuse)
    for sql in PLAIN_QUERIES:
        assert answer(database.query(sql)) == expected[sql], sql


def test_null_and_nan_key_columns_keep_the_component_rule(monkeypatch):
    """A key column holding NULL or NaN (or both infinities) is keyed by
    components, value by value, and the answer is the oracle's; the plain
    ``id`` beside it is not."""
    calls = []

    def spy(component):
        def keyed(value):
            calls.append(value)
            return component(value)

        return keyed

    monkeypatch.setattr(kernels, "order_component", spy(kernels.order_component))
    monkeypatch.setattr(kernels, "descending_component", spy(kernels.descending_component))
    for odd in ([None], [NAN], [None, NAN], [INF, -INF]):
        rows = ROWS + [(20 + i, value) for i, value in enumerate(odd)]
        database = database_of(rows)
        for sql in NULL_QUERIES:
            calls.clear()
            assert answer(database.query(sql)) == answer(oracle(database, sql)), (odd, sql)
            assert len(calls) == len(set(rows)), (odd, sql)
            assert_matches_oracle(database, sql)
