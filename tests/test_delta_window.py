"""The lazy catch-up path, held to the one merge and to the state it leaves.

(a) ``AuditLog.delta_between`` builds a window of several commits as one
    union per bag (:meth:`Delta.union`): each bag equals
    :func:`tests.reference.merge` of the records' bags -- counts and
    first-occurrence order -- frozen and of the same ``len()``, over rows
    repeated across commits (the per-row fallback), multiplicities 1-3 and
    delete-then-reinsert.
(b) :meth:`Delta.compacted` fixes only the rows in both bags: its inserts are
    the merge of the inserts with the negated deletes, kept where positive, in
    insert order (its deletes likewise), frozen or not, and a frozen delta's
    result shares its bags exactly when no row is in both.
(c) ``IncrementalAggregation.process`` emits ``-old, +new`` as whole lists:
    by ``repr(list(entries()))`` each touched group, in first-touch order,
    retracts the output ``replay()`` read before the pass and claims the one
    it reads after, through new groups, emptied and reused slots, a scalar
    aggregation over nothing, min/max exhaustion and NULL/NaN/±inf values.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.imp.operators import EngineStatistics, IncrementalAggregation, Pass
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.expressions import ColumnRef
from repro.relational.schema import Schema
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.snapshots import AuditLog, AuditRecord
from tests.reference import Feed, merge

SCHEMA = Schema(["k", "v"])
POOL = [(k, v) for k in range(4) for v in (0.5, "x")]


# -- (a) one union per window ------------------------------------------------------

bags = st.dictionaries(st.sampled_from(POOL), st.integers(1, 3), max_size=5)
commits = st.lists(st.tuples(bags, bags), min_size=1, max_size=30)


def _delta(inserts: dict, deletes: dict) -> Delta:
    return Delta.from_rows(
        SCHEMA,
        [row for row, count in inserts.items() for _ in range(count)],
        [row for row, count in deletes.items() for _ in range(count)],
    )


def _log(window: list[tuple[dict, dict]]) -> tuple[AuditLog, list[Delta]]:
    """An audit log of one commit per pair (versions 1, 2, ...) to table
    ``t``, and the frozen deltas it recorded."""
    log = AuditLog()
    deltas = []
    for version, (inserts, deletes) in enumerate(window, 1):
        delta = _delta(inserts, deletes)
        log.append(AuditRecord(version, {"t": delta}))
        deltas.append(delta)
    return log, deltas


def _bags_are(delta: Delta, inserts: dict, deletes: dict) -> None:
    """``delta``'s bags are ``inserts`` and ``deletes``, in order, and its
    counts agree with them."""
    assert list(delta.inserts()) == list(inserts.items())
    assert list(delta.deletes()) == list(deletes.items())
    counts = sum(inserts.values()), sum(deletes.values())
    assert (delta.insert_count, delta.delete_count) == counts
    assert len(delta) == sum(counts)


def _union(window: list[Delta]) -> tuple[dict, dict]:
    """The window's bags by the one merge."""
    inserts = merge(entry for delta in window for entry in delta.inserts())
    deletes = merge(entry for delta in window for entry in delta.deletes())
    return inserts, deletes


def _frozen(delta: Delta) -> bool:
    try:
        delta.add_insert((0, 0.5))
    except StorageError:
        return True
    return False


class TestWindowUnion:
    @settings(max_examples=300, deadline=None)
    @given(commits, st.data())
    def test_a_window_equals_the_merge_of_its_records(self, window, data):
        log, deltas = _log(window)
        since = data.draw(st.integers(0, len(window) - 1))
        until = data.draw(st.integers(since, len(window)))
        union = log.delta_between("t", SCHEMA, since, until)
        _bags_are(union, *_union(deltas[since:until]))
        assert _frozen(union)

    def test_rows_repeated_across_commits_sum_in_first_occurrence_order(self):
        log, deltas = _log(
            [
                ({(1, "x"): 1, (2, "x"): 2}, {}),
                ({(3, "x"): 1, (1, "x"): 3}, {(2, "x"): 1}),
                ({(2, "x"): 1}, {(2, "x"): 2}),
            ]
        )
        union = log.delta_between("t", SCHEMA, 0, 3)
        assert list(union.inserts()) == [((1, "x"), 4), ((2, "x"), 3), ((3, "x"), 1)]
        assert list(union.deletes()) == [((2, "x"), 3)]
        _bags_are(union, *_union(deltas))

    def test_disjoint_commits_keep_every_row_where_it_was(self):
        log, deltas = _log([({(1, "x"): 2}, {(0, "x"): 1}), ({(2, "x"): 1}, {(3, "x"): 3})])
        union = log.delta_between("t", SCHEMA, 0, 2)
        assert list(union.inserts()) == [((1, "x"), 2), ((2, "x"), 1)]
        assert list(union.deletes()) == [((0, "x"), 1), ((3, "x"), 3)]
        _bags_are(union, *_union(deltas))

    def test_one_record_is_shared_and_none_is_empty(self):
        log, deltas = _log([({(1, "x"): 1}, {})])
        assert log.delta_between("t", SCHEMA, 0, 1) is deltas[0]
        empty = log.delta_between("t", SCHEMA, 1, 1)
        assert not empty and len(empty) == 0 and _frozen(empty)


# -- (b) compaction fixes only the rows in both bags -------------------------------


def _netted(delta: Delta) -> tuple[dict, dict]:
    """Each bag merged with the other's negated counts, kept where positive:
    a row in one bag only keeps its count and position."""
    inserts, deletes = list(delta.inserts()), list(delta.deletes())
    kept = merge(inserts + [(row, -count) for row, count in deletes])
    removed = merge(deletes + [(row, -count) for row, count in inserts])
    return (
        {row: count for row, count in kept.items() if count > 0},
        {row: count for row, count in removed.items() if count > 0},
    )


class TestCompaction:
    @settings(max_examples=300, deadline=None)
    @given(bags, bags, st.booleans())
    def test_compacted_nets_the_rows_in_both_bags(self, inserts, deletes, frozen):
        delta = _delta(inserts, deletes)
        if frozen:
            delta.freeze()
        compact = delta.compacted()
        _bags_are(compact, *_netted(delta))
        assert _frozen(compact)
        shared = compact._inserts is delta._inserts, compact._deletes is delta._deletes
        disjoint = not inserts.keys() & deletes.keys()
        assert shared == ((frozen and disjoint),) * 2

    def test_only_the_rows_in_both_bags_move(self):
        delta = _delta(
            {(0, "x"): 1, (1, "x"): 3, (2, "x"): 2, (3, "x"): 1},
            {(3, "x"): 2, (2, "x"): 2, (0, 0.5): 1, (1, "x"): 1},
        ).freeze()
        compact = delta.compacted()
        assert list(compact.inserts()) == [((0, "x"), 1), ((1, "x"), 2)]
        assert list(compact.deletes()) == [((3, "x"), 1), ((0, 0.5), 1)]
        _bags_are(compact, *_netted(delta))
        # The source delta is left as it was.
        assert list(delta.inserts())[1:3] == [((1, "x"), 3), ((2, "x"), 2)]

    def test_an_unfrozen_delta_is_copied(self):
        delta = _delta({(0, "x"): 1}, {(1, "x"): 1})
        compact = delta.compacted()
        delta.add_insert((2, "x"))
        assert list(compact.inserts()) == [((0, "x"), 1)]


# -- (c) the aggregation's whole-list output ---------------------------------------

NAN, INF = math.nan, math.inf
VALUES = [None, NAN, INF, -INF, -2, 0, 1, 3.5, 7]
FUNCTIONS = [
    (AggregateFunction.SUM, "s"),
    (AggregateFunction.COUNT, "c"),
    (AggregateFunction.AVG, "av"),
    (AggregateFunction.MIN, "lo"),
    (AggregateFunction.MAX, "hi"),
]


class _Checked:
    """An aggregation beside what each pass must leave it holding: every
    group's net tuple count (by the one merge), the slot each group holds
    and the free slots (a new group takes the slot freed last, else the
    lowest fresh one; a group left with no tuple frees its slot, in
    first-touch order), and when a recapture is due."""

    def __init__(self, scalar: bool, buffer: int | None, count_star: bool) -> None:
        aggregates = [Aggregate(function, ColumnRef("v"), alias) for function, alias in FUNCTIONS]
        if count_star:
            aggregates.append(Aggregate(AggregateFunction.COUNT, None, "n"))
        group_by = [] if scalar else [ColumnRef("g")]
        output = Schema(([] if scalar else ["g"]) + [a.alias for a in aggregates])
        self.operator = IncrementalAggregation(
            Feed(Schema(["g", "v"])), group_by, aggregates, output, buffer
        )
        self.totals: dict = {}
        self.keys: list = []
        self.free: list[int] = []

    def outputs(self) -> dict:
        """Each group's output tuple now, as ``replay()`` reads it from the state."""
        width = len(self.operator.group_by)
        return {row[:width]: (row, mask) for row, mask, _ in self.operator.replay().entries()}

    def run(self, entries, from_scratch: bool) -> list:
        """Push ``(row, annotation, count)`` entries through the operator and
        assert its output -- each touched group in first-touch order retracts
        its output before the pass and claims its output after it (an absent
        side left out); from scratch nothing was output before; over no input
        only a from-scratch scalar aggregation outputs its row over nothing --
        and the slots, free list and ``needs_recapture`` it leaves."""
        operator = self.operator
        width = len(operator.group_by)
        before = {} if from_scratch else self.outputs()
        recapture = operator.needs_recapture
        operator.child.queue(entries)
        step = Pass.scratch(0) if from_scratch else Pass(DatabaseDelta(), EngineStatistics(), 0)
        output = list(operator.process(step).entries())
        if not entries:
            replayed = list(operator.replay().entries())
            assert output == (replayed if from_scratch and not width else [])
            return output
        after = self.outputs()
        touched = list(dict.fromkeys(row[:width] for row, _mask, _count in entries))
        expected = []
        for key in touched:
            if key in before:
                expected.append((*before[key], -1))
            if key in after:
                expected.append((*after[key], 1))
        assert repr(output) == repr(expected)
        self._allocate([key for key in touched if key not in self.totals])
        merge(((row[:width], count) for row, _mask, count in entries), self.totals)
        emptied = [key for key in touched if key not in self.totals]
        for key in emptied:
            slot = self.keys.index(key)
            self.keys[slot] = None
            self.free.append(slot)
        assert operator.state.keys == self.keys
        assert operator.state.free == self.free
        # A live group that ``replay()`` leaves out lost track of its min or
        # max: a recapture is due from now on.  A pass that leaves none out
        # and empties no group of a bounded min/max leaves the flag alone.
        if any(key in self.totals and key not in after for key in touched):
            assert operator.needs_recapture
        elif not (emptied and operator.min_max_buffer is not None):
            assert operator.needs_recapture == recapture
        return output

    def _allocate(self, new: list) -> None:
        fresh = range(len(self.keys), len(self.keys) + max(0, len(new) - len(self.free)))
        self.keys.extend(None for _ in fresh)
        self.free[:0] = reversed(fresh)
        for key in new:
            self.keys[self.free.pop()] = key


def _batches(rng: random.Random, count: int):
    """Signed batches over a live bag: new groups, deletes of live tuples,
    delete-and-reinsert and whole groups emptied (their slots reused)."""
    live: Counter = Counter()
    next_group = 3
    for _ in range(count):
        entries = []
        if live and rng.random() < 0.3:
            victim = rng.choice(sorted({row[0] for row, _m in live}, key=repr))
            entries += [(row, mask, -n) for (row, mask), n in live.items() if row[0] == victim]
        else:
            for (row, mask), n in live.items():
                if rng.random() < 0.25:
                    entries.append((row, mask, -rng.randint(1, n)))
                    if rng.random() < 0.5:
                        entries.append((row, mask, 1))
        for _ in range(rng.randrange(0, 6)):
            group = rng.choice([None, 0, 1, 2, next_group])
            next_group += group == next_group
            entries.append(((group, rng.choice(VALUES)), 1 << rng.randrange(4), rng.randint(1, 3)))
        for row, mask, n in entries:
            live[(row, mask)] += n
        live = +live
        yield entries


class TestAggregationOutput:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([None, 2]),
        st.booleans(),
    )
    def test_each_group_retracts_its_old_output_and_claims_its_new(
        self, seed, scalar, buffer, count_star
    ):
        rng = random.Random(seed)
        checked = _Checked(scalar, buffer, count_star)
        first = [((g, rng.choice(VALUES)), 1, 1) for g in rng.sample([None, 0, 1, 2], 2)]
        checked.run(first if rng.random() < 0.8 else [], True)
        for entries in _batches(rng, rng.randrange(1, 10)):
            checked.run(entries, False)

    def test_emptied_scalar_group_and_reused_slot(self):
        checked = _Checked(True, None, True)
        steps = [
            ([], True),
            ([((None, 1), 1, 1), ((None, NAN), 2, 1)], False),
            ([((None, 1), 1, -1), ((None, NAN), 2, -1)], False),
            ([((None, INF), 4, 2)], False),
        ]
        for entries, from_scratch in steps:
            checked.run(entries, from_scratch)
        assert checked.operator.state.free == []

    def test_exhausted_min_max_emits_no_new_tuple(self):
        checked = _Checked(False, 2, False)
        checked.run([((0, v), 1, 1) for v in (1, 2, 3, 4)], True)
        drain = [((0, 1), 1, -1), ((0, 2), 1, -1), ((1, -INF), 2, 1)]
        output = checked.run(drain, False)
        assert checked.operator.needs_recapture
        # Group 0's old tuple is retracted and no new one claimed; group 1 is new.
        assert [(row[0], count) for row, _mask, count in output] == [(0, -1), (1, 1)]


@pytest.mark.parametrize("size", [0, 1, 5])
def test_a_scalar_aggregation_over_nothing(size):
    checked = _Checked(True, None, True)
    entries = [((None, v), 1, 1) for v in VALUES[:size]]
    checked.run(entries, True)
    checked.run([(row, mask, -count) for row, mask, count in entries], False)
