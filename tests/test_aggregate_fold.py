"""One grouped fold for every aggregate: properties of the fold and its edges.

(a) The batch kernel :func:`repro.relational.kernels.aggregate_batch` equals
    the reference oracle's per-group :func:`compute_aggregate` by ``repr``,
    groups in first-occurrence order -- the two share no code.
(b) :class:`IncrementalAggregation` / :class:`IncrementalDistinct` fold signed
    deltas into their slot state: the running output equals a from-scratch
    pass over the net input and the end state equals a fresh capture, through
    groups emptied and re-created (free-slot reuse) and a scalar aggregate
    going empty and back; an exhausted min/max buffer requests a recapture.
(c) Engine-state dumps are byte-pinned through capture and two updates:
    for two queries whose aggregation the pruned engine turns into
    ``Distinct``, by SHA-256, maintaining to the sketch a fresh capture
    gives; for one whose HAVING reads all six aggregates, the captured dump
    byte for byte, then by SHA-256.

(d) min/max over NaN follow one rule everywhere -- NaN sorts after every
    number, so min ignores it unless every value is NaN and max is NaN once
    one value is -- whatever the order the values arrive in.
(e) An incremental sum/avg forgets a deleted NaN or infinity: the maintained
    state equals a fresh capture and the batch kernel, and its dump lists
    the non-finite counts of exactly the groups that hold them.
(f) The engine merges an aggregation's duplicate input rows only where a sum
    or avg could tell (floats, expressions, ints past 2**53); spies pin when
    it merges.  That the result equals the always-merging oracle by ``repr``
    either way is the "aggregation over pruned duplicates" shape of
    ``tests.reference.CATALOGUE``.
(g) Groups whose entries arrive together -- an index range scan on the
    group key -- fold one run at a time, long runs only: spies pin which
    path ran, on drawn tables and on the bench templates, and the answers
    are the oracle's.

Plus the typed error for aggregates over values they cannot aggregate.
"""

import hashlib
import json
import math
import random
from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AggregateError, PlanError
from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.middleware import IMPSystem
from repro.imp.operators import (
    EngineStatistics,
    IncrementalAggregation,
    IncrementalDistinct,
    Pass,
)
from repro.imp.persistence import dump_engine_state
from repro.relational import kernels
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.expressions import Between, ColumnRef, FunctionCall, Literal
from repro.relational.oracle import compute_aggregate
from repro.relational.schema import Schema
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.queries import q_endtoend, q_join, q_selpd
from repro.workloads.synthetic import load_join_helper, load_synthetic
from tests.reference import BIG, Feed, answer, assert_matches_oracle, engine, oracle, two_tables
from tests.reference import keys as reference_keys

SUM, COUNT, AVG, MIN, MAX = (
    AggregateFunction.SUM,
    AggregateFunction.COUNT,
    AggregateFunction.AVG,
    AggregateFunction.MIN,
    AggregateFunction.MAX,
)


def all_aggregates(argument: str) -> list[Aggregate]:
    """All six aggregate functions, ``count(*)`` included."""
    column = ColumnRef(argument)
    return [
        Aggregate(SUM, column, "s"),
        Aggregate(COUNT, None, "n"),
        Aggregate(COUNT, column, "c"),
        Aggregate(AVG, column, "av"),
        Aggregate(MIN, column, "lo"),
        Aggregate(MAX, column, "hi"),
    ]


# -- (a) kernel vs oracle ----------------------------------------------------------

NAN = math.nan
values = st.one_of(
    st.none(),
    st.just(NAN),
    st.integers(-(10**6), 10**6),
    st.floats(1e-9, 1e16),
    st.floats(-1e16, -1e-9),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 7.25, -0.7, 0.0, -0.0]),
)
keys = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["x", "y"]))


@st.composite
def aggregation_inputs(draw):
    width = draw(st.integers(0, 2))
    entries = draw(
        st.lists(st.tuples(st.tuples(*[keys] * width), values, st.integers(1, 4)), max_size=30)
    )
    if draw(st.booleans()):
        entries = [(key, value, 1) for key, value, _m in entries]
    return width, entries


class TestKernelEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(aggregation_inputs())
    def test_aggregate_batch_equals_compute_aggregate_per_group(self, inputs):
        width, entries = inputs
        aggregates = all_aggregates("v")
        key_columns = [[key[i] for key, _v, _m in entries] for i in range(width)]
        column = [value for _key, value, _m in entries]
        multiplicities = [m for _key, _value, m in entries]
        schema = Schema([f"k{i}" for i in range(width)] + [a.alias for a in aggregates])
        batch = kernels.aggregate_batch(
            schema,
            tuple(aggregates),
            key_columns,
            [None if a.argument is None else column for a in aggregates],
            multiplicities,
            grouped=width > 0,
        )

        groups: dict[tuple, list] = {}
        for key, value, multiplicity in entries:
            groups.setdefault(key, []).append((value, multiplicity))
        if not groups and width == 0:
            groups[()] = []
        expected = [
            key
            + tuple(
                sum(m for _value, m in pairs)
                if a.argument is None
                else compute_aggregate(a.function, pairs)
                for a in aggregates
            )
            for key, pairs in groups.items()
        ]
        assert repr(batch.row_tuples()) == repr(expected)
        assert batch.multiplicities == [1] * len(expected)
        assert batch.consolidated

    def test_single_key_groups_on_raw_values(self):
        """One key column is keyed by its values, unwrapped: ``1``, ``1.0``
        and ``True`` are one group (as tuples of them are), keyed by the first."""
        batch = kernels.aggregate_batch(
            Schema(["k", "n"]),
            (Aggregate(COUNT, None, "n"),),
            [[1.0, None, 1, True, None]],
            [None],
            [1, 2, 3, 4, 5],
            grouped=True,
        )
        assert repr(batch.row_tuples()) == repr([(1.0, 8), (None, 7)])


def test_one_fold_serves_queries_and_maintenance(monkeypatch):
    """The batch kernel and IMP's capture and maintenance run the same fold
    (one call for the group sizes or tuple counts, one for the sum); IMP
    never calls the query kernel, and the oracle neither."""
    calls = Counter()
    for name in ("fold_aggregate", "aggregate_batch"):
        original = getattr(kernels, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    database = Database()
    database.create_table("t", ["a", "b"])
    database.insert("t", [(i % 3, float(i)) for i in range(12)])
    sql = "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) IS NOT NULL"
    database.query(sql)
    assert calls == {"aggregate_batch": 1, "fold_aggregate": 2}
    partition = DatabasePartition([RangePartition.from_boundaries("t", "b", [0, 6, 99])])
    engine = IncrementalEngine(database.plan(sql), partition, database)
    engine.initialize()
    assert calls == {"aggregate_batch": 1, "fold_aggregate": 4}
    version = database.version
    database.insert("t", [(1, 0.5)])
    engine.maintain(database.database_delta_since(["t"], version), database.version)
    assert calls == {"aggregate_batch": 1, "fold_aggregate": 6}
    oracle(database, sql)
    assert calls == {"aggregate_batch": 1, "fold_aggregate": 6}


# -- (b) incremental vs from scratch -----------------------------------------------


SCHEMA = Schema(["g", "v"])


def aggregation(scalar: bool, buffer: int | None = None) -> IncrementalAggregation:
    aggregates = all_aggregates("v")
    group_by = [] if scalar else [ColumnRef("g")]
    output = Schema(([] if scalar else ["g"]) + [a.alias for a in aggregates])
    return IncrementalAggregation(Feed(SCHEMA), group_by, aggregates, output, buffer)


def run(operator, entries, from_scratch: bool = False) -> Counter:
    """Push ``(row, annotation, count)`` entries through ``operator``; its
    output as a bag."""
    operator.child.queue(entries)
    step = Pass.scratch(0) if from_scratch else Pass(DatabaseDelta(), EngineStatistics(), 0)
    bag: Counter = Counter()
    for row, annotation, count in operator.process(step).entries():
        bag[(row, annotation)] += count
    return bag


def net(bag: Counter) -> dict:
    return {entry: count for entry, count in bag.items() if count}


def canonical_state(state) -> dict:
    """Each live group's quantities, independent of slot numbers and of the
    order groups and fragments arrived in."""
    canonical = {}
    for key, slot in state.slots.items():
        multisets = tuple(
            None if extremes is None else extremes[slot].items()
            for extremes in state.extremes
        )
        canonical[key] = (
            state.total_count[slot],
            sorted(state.fragment_counts[slot].items()),
            state.mask[slot],
            repr(state.values([slot])),
            multisets,
        )
    return canonical


def check_slots(state) -> None:
    """Live and free slots partition the lists; a free slot is cleared."""
    live = sorted(state.slots.values())
    assert sorted(live + state.free) == list(range(len(state.keys)))
    for slot in state.free:
        assert state.keys[slot] is None and state.total_count[slot] == 0
        assert state.fragment_counts[slot] == {} and state.mask[slot] == 0


def random_batches(rng: random.Random, groups: list, batches: int):
    """Signed batches over a live bag: inserts, deletes of live tuples,
    delete-and-reinsert, a whole group deleted, and groups never seen."""
    live: Counter = Counter()
    next_group = len(groups)
    history = []
    for _ in range(batches):
        entries = []
        victim = None
        if live and rng.random() < 0.3:
            # Empty one whole group (its slot is freed).
            victim = rng.choice(sorted({row[0] for row, _a in live}, key=repr))
            entries += [(e[0], e[1], -c) for e, c in live.items() if e[0][0] == victim]
        for entry, count in live.items():
            if entry[0][0] != victim and rng.random() < 0.2:
                entries.append((entry[0], entry[1], -rng.randint(1, count)))
                if rng.random() < 0.5:
                    entries.append((entry[0], entry[1], 1))  # delete and re-insert
        for _ in range(rng.randrange(0, 6)):
            if rng.random() < 0.15:
                groups.append(next_group)
                next_group += 1
            row = (rng.choice(groups), rng.choice([None, *range(-3, 20)]))
            entries.append((row, rng.randrange(16), rng.randint(1, 3)))
        # Inserts and deletes interleave; every delete is of a live tuple, so
        # no prefix of the batch deletes what is not there.
        rng.shuffle(entries)
        for row, annotation, count in entries:
            live[(row, annotation)] += count
        live = +live
        history.append((entries, Counter(live)))
    return history


def scratch_of(make, live: Counter):
    fresh = make()
    output = run(fresh, [(row, a, c) for (row, a), c in live.items()], from_scratch=True)
    return fresh, output


def oracle_rows(live: Counter, scalar: bool) -> dict:
    """The aggregation's result rows over ``live`` by the reference oracle."""
    groups: dict = {}
    for (row, _annotation), count in live.items():
        groups.setdefault(() if scalar else row[:1], []).append((row[1], count))
    if scalar and not groups:
        groups[()] = []
    return {
        key
        + tuple(
            sum(count for _value, count in pairs)
            if spec.argument is None
            else compute_aggregate(spec.function, pairs)
            for spec in all_aggregates("v")
        ): 1
        for key, pairs in groups.items()
    }


def rows_of(bag: Counter) -> dict:
    rows: Counter = Counter()
    for (row, _annotation), count in bag.items():
        rows[row] += count
    return net(rows)


class TestIncrementalEqualsFromScratch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([None, 1, 2, 3]))
    def test_aggregation_under_signed_deltas(self, seed, scalar, buffer):
        rng = random.Random(seed)
        make = lambda: aggregation(scalar, buffer)  # noqa: E731
        operator = make()
        running = run(operator, [], from_scratch=True)
        for entries, live in random_batches(rng, [0, 1, 2], rng.randrange(3, 9)):
            state = operator.state
            new_groups = len({(row[0],) for row, _a, _c in entries} - set(state.slots))
            if scalar:
                new_groups = int(() not in state.slots and bool(entries))
            slots_before, free_before = len(state.keys), len(state.free)
            running.update(run(operator, entries))
            if operator.needs_recapture:
                assert buffer is not None  # only a bounded min/max buffer runs out
                return
            fresh, output = scratch_of(make, live)
            assert net(running) == net(output)
            assert rows_of(output) == oracle_rows(live, scalar)
            # A new group takes a freed slot before the lists grow.
            assert len(state.keys) == slots_before + max(0, new_groups - free_before)
            check_slots(state)
            if buffer is None:
                assert canonical_state(state) == canonical_state(fresh.state)

    def test_scalar_aggregate_goes_empty_and_back(self):
        operator = aggregation(scalar=True)
        over_nothing = (None, 0, 0, None, None, None)
        assert net(run(operator, [], from_scratch=True)) == {(over_nothing, 0): 1}
        row = (1, 5)
        assert net(run(operator, [(row, 0b1, 2)])) == {
            (over_nothing, 0): -1,
            ((10.0, 2, 2, 5.0, 5, 5), 0b1): 1,
        }
        assert net(run(operator, [(row, 0b1, -2)])) == {
            ((10.0, 2, 2, 5.0, 5, 5), 0b1): -1,
            (over_nothing, 0): 1,
        }
        assert len(operator.state) == 0 and operator.state.free == [0]
        assert net(run(operator, [((2, None), 0b10, 1)])) == {
            (over_nothing, 0): -1,
            ((None, 1, 0, None, None, None), 0b10): 1,
        }
        assert operator.state.free == []

    def test_exhausted_min_max_buffer_requests_recapture(self):
        operator = aggregation(scalar=False, buffer=2)
        run(operator, [((0, v), 0b1, 1) for v in (1, 2, 3, 4)], from_scratch=True)
        (slot,) = operator.state.slots.values()
        assert operator.state.extremes[4][slot].overflow_count == 2
        output = run(operator, [((0, 1), 0b1, -1), ((0, 2), 0b1, -1)])
        assert operator.needs_recapture
        # The group's old tuple is retracted; no new one is claimed.
        assert [count for count in output.values() if count] == [-1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_group_by_without_aggregates_under_signed_deltas(self, seed):
        """No aggregate: one ``(key,)`` row per live group, annotated with
        every fragment its tuples carry."""
        rng = random.Random(seed)
        make = lambda: IncrementalAggregation(  # noqa: E731
            Feed(SCHEMA), [ColumnRef("g")], [], Schema(["g"])
        )
        operator = make()
        running = run(operator, [], from_scratch=True)
        for entries, live in random_batches(rng, [0, 1, 2], rng.randrange(3, 9)):
            running.update(run(operator, entries))
            fresh, output = scratch_of(make, live)
            assert net(running) == net(output)
            masks: dict = {}
            for (row, annotation), _count in live.items():
                masks[row[:1]] = masks.get(row[:1], 0) | annotation
            assert net(output) == {(key, mask): 1 for key, mask in masks.items()}
            check_slots(operator.state)
            assert canonical_state(operator.state) == canonical_state(fresh.state)

    def test_sql_group_by_needs_an_aggregate(self):
        """SQL never plans a zero-aggregate aggregation: ``GROUP BY`` without
        one is rejected, so IMP meets it only when built directly."""
        database = Database()
        database.create_table("t", ["a", "b"])
        with pytest.raises(PlanError, match="aggregate"):
            database.plan("SELECT a FROM t GROUP BY a")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_distinct_under_signed_deltas(self, seed):
        rng = random.Random(seed)
        make = lambda: IncrementalDistinct(Feed(SCHEMA))  # noqa: E731
        operator = make()
        running = run(operator, [], from_scratch=True)
        for entries, live in random_batches(rng, [0, 1], rng.randrange(3, 9)):
            running.update(run(operator, entries))
            fresh, output = scratch_of(make, live)
            assert net(running) == net(output)
            check_slots(operator.state)
            assert canonical_state(operator.state) == canonical_state(fresh.state)


# -- (c) byte-pinned engine-state dumps ----------------------------------------------

PINNED_ROWS = [
    (1, 1, 0.1, 5), (2, 1, 0.2, None), (3, 2, 1e16, 7), (4, 2, -0.7, 3),
    (5, 3, 7.25, 9), (6, 1, 1 / 3, 5), (7, 2, 3, 1), (8, 3, None, 2),
]
PINNED_UPDATES = [
    # Group 3 empties, group 4 is new, group 1 changes.
    ([(9, 4, 2.5, 8), (11, 1, 0.1, None)], [PINNED_ROWS[i] for i in (4, 7, 0)]),
    # Group 3 comes back; group 2 loses its minimum and maximum.
    ([(10, 3, 0.3, 4), (12, 2, 0.1, 6)], [PINNED_ROWS[i] for i in (2, 6)]),
]

#: Per query: the SHA-256 of what ``dump_engine_state`` writes after
#: capture, then per update the SHA-256 of what it writes after it and
#: whether the update asked for a recapture.  Neither query has a HAVING, so
#: the aggregation becomes ``Distinct`` on ``a`` and no min/max buffer is left
#: to exhaust.
PRUNED_TO_DISTINCT = {
    (
        "SELECT a, sum(b) AS sb, count(*) AS n, count(c) AS cc, avg(b) AS ab, "
        "min(c) AS lo, max(b) AS hi FROM t GROUP BY a"
    ): [
        'b422e9dc6bb30bee530797c0e16278604be58c90573e6921a43da4c1de054f97',
        '4a4c5a809f065476756b8d8d54b3d3237073f6fc38e542ac555f939245448f02',
        False,
        'aa30e0b59b017643c9f84b777bbb8cf3aca649c9b6a52522b9edfc5dc28753b3',
        False,
    ],
    'SELECT DISTINCT a, c FROM t': [
        'cfd10c41c9176e5f6eca865626def5d3873cb6f667954259b3882bdcdfb01f84',
        'a98209a8573bb4c20d21fc09aa5136264af3676b919b8473b02d482b55ced245',
        False,
        '508dfca5a8a4f92753f72f129f87a6c2a4603d44d2083840b43776dbb8ddc98c',
        False,
    ],
}


#: The six aggregates again, each read by the HAVING, so pruning keeps them
#: all: what ``dump_engine_state`` writes after capture (the literal), then
#: per update the SHA-256 of what it writes after it and whether the update
#: asked for a recapture.  min_max_buffer=2, so the buffers overflow and the
#: second update exhausts group 2's.
CURRENT = {
    (
        "SELECT a, sum(b) AS sb, count(*) AS n, count(c) AS cc, avg(b) AS ab, "
        "min(c) AS lo, max(b) AS hi FROM t GROUP BY a HAVING sum(b) > 1 "
        "OR count(*) > 2 OR count(c) > 2 OR avg(b) > 1 OR min(c) > 5 OR max(b) > 7"
    ): [
        (
            '{"format": 2, "version": 2, "operators": [{"kind": "merge", "counts": {"0": '
            '1, "2": 2, "1": 1, "3": 2}}, null, {"kind": "aggregation", "groups": [{"key"'
            ': {"__tuple__": [1]}, "total_count": 3, "fragment_counts": {"0": 2, "2": 1},'
            ' "accumulators": [{"kind": "sum_count", "function": "sum", "total": 0.633333'
            '3333333333, "non_null_count": 3, "star_count": 3}, {"kind": "count_star", "f'
            'unction": "count", "total": 0.0, "non_null_count": 3, "star_count": 3}, {"ki'
            'nd": "sum_count", "function": "count", "total": 0.0, "non_null_count": 2, "s'
            'tar_count": 3}, {"kind": "sum_count", "function": "avg", "total": 0.63333333'
            '33333333, "non_null_count": 3, "star_count": 3}, {"kind": "min_max", "functi'
            'on": "min", "buffer_limit": 2, "overflow_count": 0, "exhausted": false, "val'
            'ues": [[5, 2]]}, {"kind": "min_max", "function": "max", "buffer_limit": 2, "'
            'overflow_count": 1, "exhausted": false, "values": [[0.2, 1], [0.333333333333'
            '3333, 1]]}]}, {"key": {"__tuple__": [2]}, "total_count": 3, "fragment_counts'
            '": {"1": 2, "3": 1}, "accumulators": [{"kind": "sum_count", "function": "sum'
            '", "total": 1.0000000000000004e+16, "non_null_count": 3, "star_count": 3}, {'
            '"kind": "count_star", "function": "count", "total": 0.0, "non_null_count": 3'
            ', "star_count": 3}, {"kind": "sum_count", "function": "count", "total": 0.0,'
            ' "non_null_count": 3, "star_count": 3}, {"kind": "sum_count", "function": "a'
            'vg", "total": 1.0000000000000004e+16, "non_null_count": 3, "star_count": 3},'
            ' {"kind": "min_max", "function": "min", "buffer_limit": 2, "overflow_count":'
            ' 1, "exhausted": false, "values": [[1, 1], [3, 1]]}, {"kind": "min_max", "fu'
            'nction": "max", "buffer_limit": 2, "overflow_count": 1, "exhausted": false, '
            '"values": [[3, 1], [1e+16, 1]]}]}, {"key": {"__tuple__": [3]}, "total_count"'
            ': 2, "fragment_counts": {"2": 1, "3": 1}, "accumulators": [{"kind": "sum_cou'
            'nt", "function": "sum", "total": 7.25, "non_null_count": 1, "star_count": 2}'
            ', {"kind": "count_star", "function": "count", "total": 0.0, "non_null_count"'
            ': 2, "star_count": 2}, {"kind": "sum_count", "function": "count", "total": 0'
            '.0, "non_null_count": 2, "star_count": 2}, {"kind": "sum_count", "function":'
            ' "avg", "total": 7.25, "non_null_count": 1, "star_count": 2}, {"kind": "min_'
            'max", "function": "min", "buffer_limit": 2, "overflow_count": 0, "exhausted"'
            ': false, "values": [[2, 1], [9, 1]]}, {"kind": "min_max", "function": "max",'
            ' "buffer_limit": 2, "overflow_count": 0, "exhausted": false, "values": [[7.2'
            '5, 1]]}]}]}, null]}'
        ),
        '30fa8d20ec0a0bbd1e4b611f29547ddc438c99c7f86e132df09803b80c26dd7b',
        False,
        '02edc33df29c9c0de65bf56f0d50758c3d58e5074e5f8193938f08768d48cc56',
        True,
    ],
}


def pinned_database():
    database = Database()
    database.create_table("t", ["id", "a", "b", "c"], primary_key="id")
    database.insert("t", PINNED_ROWS)
    partition = DatabasePartition(
        [RangePartition.from_boundaries("t", "id", [0, 3, 5, 7, 100])]
    )
    return database, partition


def sha256_of_state(engine) -> str:
    return hashlib.sha256(json.dumps(dump_engine_state(engine)).encode()).hexdigest()


def maintain_pinned(engine, database, inserts, deletes):
    version = database.version
    database.delete_rows("t", deletes)
    database.insert("t", inserts)
    return engine.maintain(database.database_delta_since(["t"], version), database.version)


@pytest.mark.parametrize("sql", sorted(PRUNED_TO_DISTINCT))
def test_pruned_engine_state_is_pinned_and_maintains_to_a_fresh_capture(sql):
    captured, *after_updates = PRUNED_TO_DISTINCT[sql]
    database, partition = pinned_database()
    engine = IncrementalEngine(
        database.plan(sql), partition, database, IMPConfig(min_max_buffer=2)
    )
    engine.initialize()
    assert sha256_of_state(engine) == captured
    assert engine.current_sketch() == capture_sketch(engine.plan, partition, database)
    for (inserts, deletes), digest, recapture in zip(
        PINNED_UPDATES, after_updates[0::2], after_updates[1::2]
    ):
        outcome = maintain_pinned(engine, database, inserts, deletes)
        assert sha256_of_state(engine) == digest
        assert outcome.needs_recapture == recapture
        sketch = engine.current_sketch()
        assert sketch == capture_sketch(engine.plan, partition, database)


@pytest.mark.parametrize("sql", sorted(CURRENT))
def test_engine_state_is_byte_pinned_through_capture_and_maintenance(sql):
    literal, *after_updates = CURRENT[sql]
    database, partition = pinned_database()
    engine = IncrementalEngine(
        database.plan(sql), partition, database, IMPConfig(min_max_buffer=2)
    )
    engine.initialize()
    assert json.dumps(dump_engine_state(engine)) == literal
    for (inserts, deletes), digest, recapture in zip(
        PINNED_UPDATES, after_updates[0::2], after_updates[1::2]
    ):
        outcome = maintain_pinned(engine, database, inserts, deletes)
        assert sha256_of_state(engine) == digest
        assert outcome.needs_recapture == recapture
        if not recapture:
            assert engine.current_sketch() == capture_sketch(engine.plan, partition, database)


# -- (d) min/max over NaN --------------------------------------------------------------

EXTREMES = [Aggregate(MIN, ColumnRef("v"), "lo"), Aggregate(MAX, ColumnRef("v"), "hi")]
# NaN, both zeros and the three spellings of one: equal values of other
# types and the value no comparison orders.
TRICKY = st.sampled_from([NAN, 0.0, -0.0, 1, 1.0, True, 2.5, -3])


def extremes_operator(buffer: int | None) -> IncrementalAggregation:
    return IncrementalAggregation(
        Feed(SCHEMA), [ColumnRef("g")], EXTREMES, Schema(["g", "lo", "hi"]), buffer
    )


def kernel_rows(live: list, aggregates: list[Aggregate] = EXTREMES) -> list[tuple]:
    """``(g, *aggregates)`` per group of the live ``((g, v), annotation, 1)``
    entries, by the batch kernel, in entry order."""
    rows = [row for row, _annotation, _count in live]
    return kernels.aggregate_batch(
        Schema(["g"] + [aggregate.alias for aggregate in aggregates]),
        tuple(aggregates),
        [[g for g, _v in rows]],
        [[v for _g, v in rows]] * len(aggregates),
        [1] * len(rows),
        grouped=True,
    ).row_tuples()


def by_value(rows) -> set:
    """Rows compared by value: NaN equals NaN, ``-0.0 == 0.0``, ``True == 1``."""
    return {tuple("NaN" if value != value else value for value in row) for row in rows}


class TestMinMaxOverNaN:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2), TRICKY), min_size=1, max_size=12),
        st.sampled_from([None, 1, 2, 3]),
        st.data(),
    )
    def test_kernel_oracle_incremental_and_from_scratch_agree(self, rows, buffer, data):
        """In three arrival orders: the kernel equals the oracle and IMP's
        from-scratch pass by ``repr`` (first occurrence wins a tie); a
        capture, two insert batches and deletions maintain to that pass by
        value; and the orders agree by value."""
        entries = [((g, v), 1 << (i % 4), 1) for i, (g, v) in enumerate(rows)]
        doomed = data.draw(st.sets(st.sampled_from(range(len(entries)))))
        orders = [
            list(range(len(entries))),
            list(range(len(entries)))[::-1],
            data.draw(st.permutations(range(len(entries)))),
        ]
        answers = []
        for order in orders:
            arrivals = [entries[i] for i in order]
            live = [entries[i] for i in order if i not in doomed]
            kernel = kernel_rows(live)
            groups: dict = {}
            for (g, v), _annotation, _count in live:
                groups.setdefault(g, []).append((v, 1))
            oracle = [
                (g, compute_aggregate(MIN, pairs), compute_aggregate(MAX, pairs))
                for g, pairs in groups.items()
            ]
            assert repr(kernel) == repr(oracle)
            scratch = rows_of(run(extremes_operator(buffer), live, from_scratch=True))
            assert repr(sorted(scratch)) == repr(sorted(kernel))
            assert set(scratch.values()) <= {1}

            operator = extremes_operator(buffer)
            running = run(operator, [], from_scratch=True)
            half = len(arrivals) // 2
            departures = [(row, a, -c) for row, a, c in (entries[i] for i in order if i in doomed)]
            for batch in (arrivals[:half], arrivals[half:], departures):
                running.update(run(operator, batch))
            if operator.needs_recapture:
                assert buffer is not None  # only a bounded buffer runs out
            else:
                assert by_value(rows_of(running)) == by_value(scratch)
            answers.append(by_value(kernel))
        assert answers[0] == answers[1] == answers[2]

    def test_deleting_a_nan_maintains_the_sketch_a_fresh_capture_gives(self):
        """Group 3's min is 3.0 before and after its NaN goes: NaN is no
        minimum while a number is there, and deleting it must not lose the
        group from the maintained sketch."""
        database = Database()
        database.create_table("r", ["id", "a", "x"], primary_key="id")
        database.insert("r", [(0, 3, NAN)] + [(i, i % 10, float(i)) for i in range(1, 200)])
        imp = IMPSystem(database, num_fragments=10)
        sql = "SELECT a, min(x) AS m FROM r GROUP BY a HAVING min(x) < 5"
        expected = [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]
        assert imp.run_query(sql).to_sorted_list() == expected
        imp.apply_update("r", deletes=[(0, 3, NAN)])
        assert imp.run_query(sql).to_sorted_list() == expected
        assert database.query(sql).to_sorted_list() == expected
        (entry,) = imp.store.entries()
        fresh = capture_sketch(entry.plan, entry.partition, database)
        assert list(entry.maintainer.sketch.fragment_ids()) == list(fresh.fragment_ids())

    @pytest.mark.parametrize("rows", [[(1, NAN), (1, "x")], [(1, "x"), (1, NAN)]])
    def test_nan_and_text_do_not_compare(self, rows):
        """NaN is a float: beside text, min raises as it does for numbers."""
        database = Database()
        database.create_table("t", ["a", "s"])
        database.insert("t", rows + [(3, 1.0)])
        partition = DatabasePartition([RangePartition.from_boundaries("t", "a", [0, 2, 10])])
        sql = "SELECT a, min(s) AS lo FROM t GROUP BY a HAVING min(s) IS NOT NULL"
        with pytest.raises(AggregateError, match="min"):
            database.query(sql)
        with pytest.raises(AggregateError, match="min"):
            oracle(database, sql)
        with pytest.raises(AggregateError, match="min"):
            capture_sketch(database.plan(sql), partition, database)


# -- (e) sum/avg over NaN and +-inf ------------------------------------------------------

SUMMED = [
    Aggregate(SUM, ColumnRef("v"), "s"),
    Aggregate(AVG, ColumnRef("v"), "av"),
    Aggregate(COUNT, ColumnRef("v"), "c"),
]
# The finite values sum exactly in any order, so maintained and fresh totals
# agree bit for bit.
NON_FINITE = st.sampled_from([NAN, math.inf, -math.inf, 1.0, 2.5, -3, 0.5, None])


def summed_operator() -> IncrementalAggregation:
    return IncrementalAggregation(
        Feed(SCHEMA), [ColumnRef("g")], SUMMED, Schema(["g", "s", "av", "c"])
    )


class TestSumOverNonFinite:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2), NON_FINITE), min_size=1, max_size=12),
        st.data(),
    )
    def test_maintained_equals_fresh_capture_and_kernel(self, rows, data):
        """Inserts in two batches, then deletes: the maintained output and
        state equal a from-scratch pass over what is left, and its rows equal
        the batch kernel's by value."""
        entries = [((g, v), 1 << (i % 4), 1) for i, (g, v) in enumerate(rows)]
        doomed = data.draw(st.sets(st.sampled_from(range(len(entries)))))
        live = [entry for i, entry in enumerate(entries) if i not in doomed]
        fresh = summed_operator()
        scratch = rows_of(run(fresh, live, from_scratch=True))
        operator = summed_operator()
        running = run(operator, [], from_scratch=True)
        half = len(entries) // 2
        departures = [(row, a, -c) for i, (row, a, c) in enumerate(entries) if i in doomed]
        for batch in (entries[:half], entries[half:], departures):
            running.update(run(operator, batch))
        maintained = rows_of(running)
        assert set(maintained.values()) <= {1}  # every retraction met its row
        assert by_value(maintained) == by_value(scratch) == by_value(kernel_rows(live, SUMMED))
        assert canonical_state(operator.state) == canonical_state(fresh.state)

    def test_deleting_a_nan_maintains_the_sketch_a_fresh_capture_gives(self):
        """Group 3's sum is NaN until its NaN row goes, then 1 010.0 < 2 000:
        the maintained sketch must gain the group as a fresh capture does."""
        database = Database()
        database.create_table("r", ["id", "a", "x"], primary_key="id")
        database.insert("r", [(0, 3, NAN)] + [(i, i % 10, float(i)) for i in range(1, 200)])
        imp = IMPSystem(database, num_fragments=10)
        sql = "SELECT a, sum(x) AS s FROM r GROUP BY a HAVING sum(x) < 2000"
        assert [row[0] for row in imp.run_query(sql).to_sorted_list()] == [0, 1, 2, 4]
        imp.apply_update("r", deletes=[(0, 3, NAN)])
        expected = database.query(sql).to_sorted_list()
        assert [row[0] for row in expected] == [0, 1, 2, 3, 4]
        assert imp.run_query(sql).to_sorted_list() == expected
        (entry,) = imp.store.entries()
        fresh = capture_sketch(entry.plan, entry.partition, database)
        assert list(entry.maintainer.sketch.fragment_ids()) == list(fresh.fragment_ids())

    def test_non_finite_counts_are_dumped_only_where_held(self):
        """A dump writes ``non_finite`` only for a group holding such a
        value; the engine maintains on to the fresh capture's state."""
        database, partition = pinned_database()
        database.insert("t", [(20, 1, math.inf, 1), (21, 2, NAN, 1), (22, 2, -math.inf, 1)])
        sql = (
            "SELECT a, sum(b) AS sb, avg(b) AS ab FROM t GROUP BY a "
            "HAVING sum(b) IS NOT NULL OR avg(b) IS NOT NULL"
        )
        engine = IncrementalEngine(database.plan(sql), partition, database)
        engine.initialize()
        payload = json.dumps(dump_engine_state(engine))
        assert payload.count('"non_finite": [0, 1, 0]') == 2  # group 1: sum and avg
        assert payload.count('"non_finite": [1, 0, 1]') == 2  # group 2
        assert payload.count('"non_finite"') == 4  # group 3 has none
        version = database.version
        database.delete_rows("t", [(21, 2, NAN, 1), (22, 2, -math.inf, 1)])
        engine.maintain(database.database_delta_since(["t"], version), database.version)
        assert json.dumps(dump_engine_state(engine)).count('"non_finite"') == 2
        fresh = IncrementalEngine(database.plan(sql), partition, database)
        fresh.initialize()
        operators = [dump_engine_state(e)["operators"] for e in (engine, fresh)]
        assert json.dumps(operators[0]) == json.dumps(operators[1])


# -- (f) exact folds skip the merge ------------------------------------------------------
#
# The engine merges an aggregation's duplicate input rows only where a sum or
# avg could tell: ints, bools and NULL of magnitude at most m, over entries
# holding n tuples, add up exactly while m * n <= 2**53.  Counts and min/max
# never tell.  The oracle always merges, so it is the reference.

EDGE = 2**53
T_SCAN = TableScan("t")


def pruned(*names: str) -> Projection:
    """``t`` pruned to ``names``: equal rows become duplicate entries."""
    return Projection(T_SCAN, [ProjectionItem(ColumnRef(name)) for name in names])


def merged_schemas(monkeypatch) -> list:
    """The schema of every batch merged from now on."""
    merged: list = []
    original = ColumnBatch._merged_counts

    def spy(batch):
        merged.append(list(batch.schema))
        return original(batch)

    monkeypatch.setattr(ColumnBatch, "_merged_counts", spy)
    return merged


class TestExactFoldsSkipTheMerge:
    @pytest.mark.parametrize(
        "values, merges, total",
        [
            ([2**52, 2**52], False, float(EDGE)),  # 2**52 * 2 tuples: at the bound
            ([2**52, 2**52, 1], True, float(EDGE + 1)),  # one tuple past it
            # Past the bound the merge decides a bit: 2**53 + 1 + 1 is 2**53
            # unmerged (each + 1 rounds away) but 2**53 + 2 merged.
            ([EDGE, 1, 1], True, float(EDGE + 2)),
            # Floats always merge: 1e16 + 1.0 + 1.0 - 1e16 is 0.0 unmerged.
            ([1e16, 1.0, 1.0, -1e16], True, 2.0),
            # Ints where the values are sampled, floats between: the full
            # pass finds them (5.3999999999999995 unmerged).
            ([1, 0.1, 0.1, 3, 0.1, 0.1, 1], True, 5.4),
        ],
    )
    def test_a_sum_merges_only_where_it_could_tell(self, monkeypatch, values, merges, total):
        database = Database()
        database.create_table("t", ["id", "g", "v"])
        database.insert("t", [(i, 0, value) for i, value in enumerate(values)])
        total_of_v = Aggregate(SUM, ColumnRef("v"), "s")
        plan = Aggregation(pruned("g", "v"), [ColumnRef("g")], [total_of_v])
        merged = merged_schemas(monkeypatch)
        result = engine(database, plan, optimize=False)
        assert merged == ([["g", "v"]] if merges else [])
        assert repr(list(result.rows())) == repr([(0, total)])
        monkeypatch.undo()
        assert result == oracle(database, plan)

    def test_counts_and_min_max_never_merge(self, monkeypatch):
        database = Database()
        database.create_table("t", ["id", "g", "v"])
        database.insert("t", [(i, i % 2, value) for i, value in enumerate([0.1, 1, 1.0, NAN] * 3)])
        aggregates = [a for a in all_aggregates("v") if a.function not in (SUM, AVG)]
        plan = Aggregation(pruned("g", "v"), [ColumnRef("g")], aggregates)
        merged = merged_schemas(monkeypatch)
        result = engine(database, plan, optimize=False)
        assert merged == []
        monkeypatch.undo()
        expected = oracle(database, plan)
        assert repr(list(result.items())) == repr(list(expected.items()))

    def test_a_sum_of_a_function_merges(self, monkeypatch):
        """Only a column reference is sampled; any other summand keeps the
        merge (``abs(v)`` of ints here, where skipping it would not show)."""
        database = Database()
        database.create_table("t", ["id", "g", "v"])
        database.insert("t", [(i, 0, value) for i, value in enumerate([1, 1, -2])])
        total = Aggregate(SUM, FunctionCall("abs", [ColumnRef("v")]), "s")
        plan = Aggregation(pruned("g", "v"), [ColumnRef("g")], [total])
        merged = merged_schemas(monkeypatch)
        result = engine(database, plan, optimize=False)
        assert merged == [["g", "v"]]
        monkeypatch.undo()
        assert answer(result) == answer(oracle(database, plan)) == repr([((0, 4.0), 1)])

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, sum(w) AS s FROM t JOIN u ON (g + 1 = k) GROUP BY g",
            "SELECT g + 1 AS x, h FROM t JOIN u ON (g = k)",
            "SELECT g + 1 AS x, count(*) AS n FROM t JOIN u ON (h = l) GROUP BY g + 1",
            "SELECT min(g + 1) AS lo FROM t JOIN u ON (h = l)",
        ],
    )
    def test_arithmetic_reads_merged_rows(self, sql):
        """Once ``id`` and ``v`` are pruned, ``2**53`` and ``float(2**53)``
        are one row to the oracle, under the first spelling, but ``+ 1``
        tells them apart: a residual, a projection, a group key and an
        aggregate argument computing arithmetic merge their input first."""
        database = two_tables(
            [(0, EDGE, 5, 0.1), (1, float(EDGE), 5, 0.2)], [(EDGE + 1, 5, 0.5), (EDGE, 5, 0.25)]
        )
        for optimize in (False, True):
            assert answer(engine(database, sql, optimize)) == answer(
                oracle(database, sql, optimize)
            ), optimize


# -- typed error for values an aggregate cannot aggregate ----------------------------


class TestAggregateTypeErrors:
    def _database(self, rows):
        database = Database()
        database.create_table("t", ["a", "s"])
        database.insert("t", rows)
        partition = DatabasePartition([RangePartition.from_boundaries("t", "a", [0, 2, 10])])
        return database, partition

    @pytest.mark.parametrize(
        "sql, name",
        [
            ("SELECT a, sum(s) AS ss FROM t GROUP BY a HAVING sum(s) IS NOT NULL", "sum"),
            ("SELECT avg(s) AS av FROM t", "avg"),
            ("SELECT a, min(s) AS lo FROM t GROUP BY a HAVING min(s) IS NOT NULL", "min"),
        ],
    )
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, "x"), (1, "y"), (3, None)],
            # All-numeric strings are text too (IMP used to coerce them).
            [(1, "3"), (3, "4")],
        ],
    )
    def test_engine_oracle_and_imp_capture_raise_one_typed_error(self, sql, name, rows):
        if name == "min":
            rows = rows + [(1, 5)]  # text and numbers do not compare
        database, partition = self._database(rows)
        with pytest.raises(AggregateError, match=name):
            database.query(sql)
        with pytest.raises(AggregateError, match=name):
            oracle(database, sql)
        with pytest.raises(AggregateError, match=name):
            capture_sketch(database.plan(sql), partition, database)

    def test_oracle_names_the_function(self):
        with pytest.raises(AggregateError, match="sum"):
            compute_aggregate(SUM, [(1, 1), ("x", 2)])

    def test_maintenance_raises_it_too(self):
        """The failed batch leaves no slot behind and asks for a recapture:
        group 1 holds part of the batch's sum, so nothing may build on it."""
        database, partition = self._database([(1, 1.5), (3, 2)])
        sql = "SELECT a, sum(s) AS ss FROM t GROUP BY a HAVING sum(s) IS NOT NULL"
        engine = IncrementalEngine(database.plan(sql), partition, database)
        engine.initialize()
        operator = engine._merge
        while not isinstance(operator, IncrementalAggregation):
            (operator,) = operator.children()
        state = operator.state
        version = database.version
        database.insert("t", [(5, 4.0), (1, 2.5), (1, "text")])
        with pytest.raises(AggregateError, match="sum"):
            engine.maintain(database.database_delta_since(["t"], version), database.version)
        assert set(state.slots) == {(1,), (3,)} and len(state) == 2
        check_slots(state)
        assert [state.total_count[state.slots[key]] for key in ((1,), (3,))] == [1, 1]
        assert engine.needs_recapture

    def test_sum_of_bool_stays_one(self):
        database, partition = self._database([(1, True), (3, False), (3, None)])
        sql = "SELECT sum(s) AS ss, avg(s) AS av FROM t"
        assert database.query(sql).to_sorted_list() == [(1.0, 0.5)]
        assert oracle(database, sql).to_sorted_list() == [
            (1.0, 0.5)
        ]
        assert capture_sketch(database.plan(sql), partition, database).fragment_ids()


# -- (g) the run fold ----------------------------------------------------------------------
#
# An index range scan on the group key hands each group's entries over
# together, and the kernel then folds counts, and sums and avgs at unit
# multiplicities, one group run at a time (``kernels.group_runs``).  The run fold makes the per-entry loop's float
# additions in the same order, so no answer moves by a bit; spies pin which
# path ran.

RUN = kernels._MIN_MEAN_RUN
# Sums that hang on the order of float additions, and on adding ints as
# floats one at a time (2**53 + 1 rounds where an int sum would not).
RUN_SUMMANDS = [NAN, -0.0, 1e16, -1e16, 0.1, BIG, True]
# Totals a run starts from when the fold is handed them directly.
STARTS = [0.1, 1e16, -0.0, 2.5]
C_SCAN = TableScan("c")
G, V = ColumnRef("g"), ColumnRef("v")
# Every key but NULL and NaN, read through the index on ``g`` in value order.
RANGED = Aggregation(
    Selection(C_SCAN, Between(G, Literal(-BIG), Literal(BIG))), [G], all_aggregates("v")
)
SCANNED = Aggregation(C_SCAN, [G], all_aggregates("v"))


@contextmanager
def fold_calls():
    """``(ids, column, multiplicities, runs)`` of each ``fold_aggregate``
    call made in the block."""
    calls: list = []
    original = kernels.fold_aggregate

    def spy(ids, column, multiplicities, non_null, totals=None, sizes=None, runs=None):
        calls.append((ids, column, multiplicities, runs))
        return original(ids, column, multiplicities, non_null, totals, sizes, runs)

    with patch.object(kernels, "fold_aggregate", spy):
        yield calls


@st.composite
def clustered_tables(draw) -> tuple[Database, bool]:
    """``c(id, g, v)`` indexed on ``g``.  Each drawn key gets a run of rows,
    every run at least ``RUN`` long or every run at most ``RUN // 4`` (so
    that three keys of one group -- ``1``, ``1.0``, ``True`` -- stay short),
    inserted round-robin so that the table order interleaves the groups.  In
    some tables a row may be inserted twice: one entry of multiplicity 2."""
    long = draw(st.booleans())
    lengths = st.integers(RUN, RUN + 6) if long else st.integers(1, RUN // 4)
    # A pool of its own per table: NaN or ±1e16 in a run would hide its
    # other summands.
    pool = draw(st.sets(st.sampled_from(range(len(RUN_SUMMANDS))), min_size=1))
    summands = st.sampled_from(
        [RUN_SUMMANDS[i] for i in sorted(pool)] + [None] * draw(st.booleans())
    )
    twice = st.booleans() if draw(st.booleans()) else st.just(False)
    runs = [
        [(key, draw(summands), draw(twice)) for _ in range(draw(lengths))]
        for key in draw(st.lists(reference_keys(), min_size=1, max_size=3))
    ]
    rows: list = []
    for position in range(max(map(len, runs))):
        for run in runs:
            if position < len(run):
                key, value, repeated = run[position]
                rows += [(len(rows), key, value)] * (1 + repeated)
    database = Database()
    database.create_table("c", ["id", "g", "v"])
    database.create_index("c", "g")
    database.insert("c", rows)
    return database, long


def assert_runs_fold_as_entries(ids, column, multiplicities, runs) -> None:
    """The fold handed ``runs`` and the per-entry fold agree by ``repr``
    from non-zero starting counts and totals."""
    results = []
    for given_runs in (runs, None):
        totals = None if column is None else [STARTS[s % len(STARTS)] for s in range(len(runs))]
        counts = kernels.fold_aggregate(
            ids, column, multiplicities, [1] * len(runs), totals, runs=given_runs
        )
        results.append(repr((counts, totals)))
    assert results[0] == results[1]


class TestRunFold:
    @settings(max_examples=120, deadline=None)
    @given(clustered_tables())
    def test_a_clustered_aggregation_folds_run_by_run(self, drawn):
        """Long runs from the index fold run by run, short runs and the
        interleaved table order entry by entry; either way the answer is the
        oracle's, and a run fold from non-zero totals is the entry fold's."""
        database, long = drawn
        scans = database.index_scan_count
        with fold_calls() as calls:
            result = engine(database, RANGED)
        assert database.index_scan_count == scans + 1
        taken = [runs is not None for *_, runs in calls]
        assert all(taken) if long and len(result) else not any(taken)
        with fold_calls() as scanned:
            engine(database, SCANNED)
        for ids, *_, runs in scanned:
            assert runs is None or ids == sorted(ids)
        for ids, column, multiplicities, runs in calls + scanned:
            if runs is not None:
                assert_runs_fold_as_entries(ids, column, multiplicities, runs)
        for plan in (RANGED, SCANNED):
            assert_matches_oracle(database, plan)


def test_the_bench_templates_fold_run_by_run():
    """The premise of the run fold's speed-up: with at least ``RUN`` rows a
    group, each sketch-answered bench template reads its groups through the
    index on the sketch attribute ``a``, one run each, so every fold is
    handed runs -- and the answers are the full query's and the oracle's."""
    database = Database()
    load_synthetic(database, num_rows=3_000, num_groups=100, seed=5)
    load_join_helper(database, num_rows=300, join_domain=100, seed=6)
    system = IMPSystem(database, num_fragments=16)
    for sql in [q_endtoend(), q_selpd(), q_join(), *multi_sketch_templates(2)]:
        system.run_query(sql)  # the capture
        hits = system.statistics.sketch_hits
        with fold_calls() as calls:
            result = system.run_query(sql)
        assert system.statistics.sketch_hits == hits + 1
        assert calls and all(runs is not None for *_, runs in calls), sql
        expected = repr(result.to_sorted_list())
        assert repr(database.query(sql).to_sorted_list()) == expected
        assert repr(oracle(database, sql, optimize=True).to_sorted_list()) == expected, sql
