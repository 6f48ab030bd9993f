"""The commit path against a plain dict-bag model.

A statement's :class:`Delta` is built once (``Delta.from_rows``), checked
once (``StoredTable.check_delta``) and applied once (``apply_delta``), and the
committed delta is frozen and shared by the table's pending queue and the
audit log.  This suite runs random statement sequences -- duplicates and
multiplicities above one inside a statement, a primary key deleted and
re-inserted in one update, NULL, NaN, ``1``, ``1.0`` and ``True`` in an
indexed attribute, over-deletes, duplicate keys and values the index cannot
order -- through every public commit entry point and holds the table to the
model after each one:

* ``items()`` in the model's order (arrival order, gaps closed) and spelling;
* the index buckets (``rows_in_intervals``): ascending by value, arrival order
  within one value;
* ``lookup_by_key`` for every key;
* the maintained batch against a cold pivot, entry for entry and in order;
* ``delta_since`` for the statement and for the whole history.

A rejected statement changes none of them.  Row and bucket order are
load-bearing for float aggregates, so this file runs under the
``PYTHONHASHSEED`` matrix in CI.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.errors import StorageError
from repro.imp.middleware import IMPSystem
from repro.relational.columnar import ColumnBatch
from repro.relational.predicates import Interval
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta

NAN = float("nan")
KEYS = [0, 1, 2, 3, 1.0, True]
NUMBERS = [None, NAN, 1, 1.0, True, 2, 0.5]
INDEXED = NUMBERS * 3 + ["x", "y"]  # strings are rare: they refuse numbers

row_strategy = st.tuples(
    st.sampled_from(KEYS), st.sampled_from(INDEXED), st.sampled_from([0, 1])
)
rows_strategy = st.lists(row_strategy, max_size=5)
# A delete names a held row by position (so it can be covered) or any row.
deletes_strategy = st.lists(
    st.one_of(st.integers(min_value=0, max_value=50), row_strategy), max_size=4
)
statement_strategy = st.one_of(
    st.tuples(st.just("insert"), rows_strategy, st.just([])),
    st.tuples(st.just("delete"), st.just([]), deletes_strategy),
    st.tuples(st.just("delta"), rows_strategy, deletes_strategy),
    st.tuples(st.just("system"), rows_strategy, deletes_strategy),
    # Delete a held row and insert a row with the same key in one update.
    st.tuples(
        st.just("replace"),
        st.lists(st.sampled_from(INDEXED), min_size=1, max_size=1),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=1),
    ),
)


def bag(rows) -> dict:
    """``rows`` counted the way repeated ``add_insert`` calls count them."""
    counts: dict = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts


def indexable(value) -> bool:
    return value is not None and value == value


def kind(value) -> str:
    return "str" if isinstance(value, str) else "number"


class Model:
    """The table as a plain dict bag, with what a commit must refuse."""

    def __init__(self, keyed: bool) -> None:
        self.keyed = keyed
        self.rows: dict = {}
        # Kinds of every value the index has held: its sorted value list keeps
        # emptied values (tombstones), and these tests stay below compaction.
        self.index_kinds: set[str] = set()
        self.history: list[tuple[dict, dict]] = []

    def accepts(self, inserts: dict, deletes: dict) -> bool:
        if any(count > self.rows.get(row, 0) for row, count in deletes.items()):
            return False
        kinds = self.index_kinds | {kind(row[1]) for row in inserts if indexable(row[1])}
        if len(kinds) > 1:
            return False
        if not self.keyed:
            return True
        surviving = {row[0]: row for row, count in self.rows.items() if count > deletes.get(row, 0)}
        batch: dict = {}
        for row in inserts:
            if batch.setdefault(row[0], row) != row:
                return False
            holder = surviving.get(row[0])
            if holder is not None and holder != row:
                return False
        return True

    def apply(self, inserts: dict, deletes: dict) -> None:
        for row, count in deletes.items():
            left = self.rows[row] - count
            if left:
                self.rows[row] = left
            else:
                del self.rows[row]
        for row, count in inserts.items():
            self.rows[row] = self.rows.get(row, 0) + count
        self.index_kinds |= {kind(row[1]) for row in inserts if indexable(row[1])}
        self.history.append((inserts, deletes))

    def buckets(self) -> list:
        held = [(row, count) for row, count in self.rows.items() if indexable(row[1])]
        return sorted(held, key=lambda item: item[0][1])

    def window(self) -> tuple[dict, dict]:
        inserts: dict = {}
        deletes: dict = {}
        for statement_inserts, statement_deletes in self.history:
            for row, count in statement_inserts.items():
                inserts[row] = inserts.get(row, 0) + count
            for row, count in statement_deletes.items():
                deletes[row] = deletes.get(row, 0) + count
        return inserts, deletes


def entries(batch: ColumnBatch) -> list:
    return list(zip(batch.row_tuples(), batch.multiplicities))


def buckets(database: Database, model: Model) -> str:
    """Every indexed row in bucket order (one index holds one kind of value)."""
    everything = Interval("", "~") if model.index_kinds == {"str"} else Interval.everything()
    rows, counts = database.table("t").rows_in_intervals("a", [everything])
    return repr(list(zip(rows, counts)))


def observed(database: Database, model: Model, since: int) -> tuple:
    """Everything a statement may change, spelled by ``repr`` (NaN, and 1 vs
    1.0 vs True, compare by identity and type there)."""
    stored = database.table("t")
    window = database.delta_since("t", since) if database.version > since else None
    return (
        database.version,
        repr(list(stored.items())),
        buckets(database, model),
        [stored.lookup_by_key(key) for key in KEYS] if model.keyed else None,
        stored.pending_batch_tuples,
        window and (repr(list(window.inserts())), repr(list(window.deletes()))),
    )


def commit(database: Database, system: IMPSystem, via: str, inserts, deletes) -> None:
    if via == "insert":
        database.insert("t", inserts)
    elif via == "delete":
        database.delete_rows("t", deletes)
    elif via == "system":
        system.apply_update("t", inserts, deletes)
    else:
        update = DatabaseDelta()
        update.set_delta("t", Delta.from_rows(database.schema_of("t"), inserts, deletes))
        database.apply_database_delta(update)


@settings(max_examples=200, deadline=None)
@given(
    statements=st.lists(
        st.tuples(statement_strategy, st.booleans()), min_size=1, max_size=12
    ),
    keyed=st.booleans(),
)
def test_commits_match_a_dict_bag_model(statements, keyed):
    database = Database()
    database.create_table("t", ["id", "a", "b"], primary_key="id" if keyed else None)
    database.create_index("t", "a")
    system = IMPSystem(database)
    model = Model(keyed)
    start = database.version
    for (via, inserts, deletes), scan in statements:
        held = list(model.rows)
        deletes = [
            held[choice % len(held)] if isinstance(choice, int) else choice
            for choice in deletes
            if held or not isinstance(choice, int)
        ]
        if via == "replace":
            if not deletes:
                continue
            victim = deletes[0]
            inserts = [(victim[0], inserts[0], victim[2])]
        inserted, deleted = bag(inserts), bag(deletes)
        before = observed(database, model, start)
        version = database.version
        try:
            commit(database, system, via, inserts, deletes)
        except StorageError:
            assert not model.accepts(inserted, deleted)
            assert observed(database, model, start) == before
            continue
        assert model.accepts(inserted, deleted)
        if not (inserted or deleted):
            assert observed(database, model, start) == before
            continue
        model.apply(inserted, deleted)
        assert database.version == version + 1
        stored = database.table("t")
        assert repr(list(stored.items())) == repr(list(model.rows.items()))
        assert buckets(database, model) == repr(model.buckets())
        if keyed:
            keys = {row[0]: row for row in model.rows}
            assert [stored.lookup_by_key(key) for key in KEYS] == [keys.get(key) for key in KEYS]
        statement = database.delta_since("t", version)
        assert repr(list(statement.inserts())) == repr(list(inserted.items()))
        assert repr(list(statement.deletes())) == repr(list(deleted.items()))
        window = database.delta_since("t", start)
        expected_inserts, expected_deletes = model.window()
        assert repr(list(window.inserts())) == repr(list(expected_inserts.items()))
        assert repr(list(window.deletes())) == repr(list(expected_deletes.items()))
        if scan:
            maintained = database.column_batch("t")
            cold = ColumnBatch.from_items(stored.schema, stored.items(), consolidated=True)
            assert repr(entries(maintained)) == repr(entries(cold))
            assert repr(entries(maintained)) == repr(list(model.rows.items()))
