"""The lazy catch-up path against the per-row code it replaced.

(a) ``AuditLog.delta_between`` builds a window of several commits as one
    union per bag (:meth:`Delta.union`): it equals the old per-record merge
    by ``list(bag.items())`` -- counts and first-occurrence order -- is
    frozen and has the same ``len()``, over rows repeated across commits
    (the per-row fallback), multiplicities 1-3 and delete-then-reinsert.
(b) :meth:`Delta.compacted` fixes only the rows in both bags: it equals the
    old two loops, frozen or not, and a frozen delta's result shares its bags
    exactly when no row is in both.
(c) ``IncrementalAggregation.process`` emits ``-old, +new`` as whole lists:
    its output equals the old per-group loop by ``repr(list(entries()))``
    through new groups, emptied and reused slots, a scalar aggregation over
    nothing, min/max exhaustion and NULL/NaN/±inf values.

Each ``_old_*`` below is the replaced per-row code, kept verbatim as the
reference.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AggregateError, SchemaError, StorageError
from repro.imp.annotated import AnnotatedDelta
from repro.imp.operators import EngineStatistics, IncrementalAggregation, Pass, _row_tuples
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.expressions import ColumnRef
from repro.relational.schema import Schema
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.snapshots import AuditLog, AuditRecord
from tests.test_aggregate_fold import Feed

SCHEMA = Schema(["k", "v"])
POOL = [(k, v) for k in range(4) for v in (0.5, "x")]


# -- the replaced code, verbatim ---------------------------------------------------


def _old_merge(self, other: "Delta") -> None:
    """Append another delta of the same schema (used for batching), one
    pass per bag: ``other``'s rows were checked when it was built."""
    self._check_mutable()
    if len(other.schema) != len(self.schema):
        raise SchemaError("cannot merge deltas with different arities")
    for bag, counts in ((self._inserts, other._inserts), (self._deletes, other._deletes)):
        if not bag:
            bag.update(counts)  # a C-level copy, hashes reused
            continue
        held = bag.get
        for row, count in counts.items():
            bag[row] = held(row, 0) + count


def _old_delta_between(window: list[Delta], schema: Schema) -> Delta:
    if len(window) == 1:
        return window[0]
    combined = Delta(schema)
    for delta in window:
        _old_merge(combined, delta)
    return combined.freeze()


def _old_compacted(self) -> "Delta":
    compact = Delta(self.schema)
    inserts, deletes = self._inserts, self._deletes
    if self._counts is not None and deletes.keys().isdisjoint(inserts):
        compact._inserts, compact._deletes = inserts, deletes
        return compact.freeze()
    for row, inserted in inserts.items():
        net = inserted - deletes.get(row, 0)
        if net > 0:
            compact._inserts[row] = net
    for row, deleted in deletes.items():
        net = deleted - inserts.get(row, 0)
        if net > 0:
            compact._deletes[row] = net
    return compact.freeze()


class _OldAggregation(IncrementalAggregation):
    def process(self, run: Pass) -> AnnotatedDelta:
        child = self.child.process(run)
        # Without GROUP BY the single group ``()`` is part of the result even
        # over empty input, as ``_over_nothing`` annotated with no fragment.
        # It is not stored: an absent group stands for it.
        scalar = not self.group_by
        if not child:
            output = AnnotatedDelta(self.output_schema)
            if scalar and run.from_scratch:
                output.append(self._over_nothing, 0, 1)
            return output
        run.statistics.tuples_processed += len(child)
        state = self.state
        columns, n = child.columns(), len(child.rows)
        ids = state.slot_ids(
            _row_tuples([evaluate(columns, n) for evaluate in self._group_key], n)
        )
        # The touched groups in first-touch order, and the output tuple each
        # had before the batch.  From scratch nothing was output before, not
        # even the scalar group.
        touched = list(dict.fromkeys(ids))
        absent = (self._over_nothing, 0) if scalar else None
        before = self._outputs(touched, None if run.from_scratch else absent)
        arguments = [
            None if evaluate is None else evaluate(columns, n)
            for evaluate in self._argument_values
        ]
        try:
            state.fold(ids, arguments, child.annotations, child.counts)
        except AggregateError:
            # Free the slots this batch allocated (still empty).  The other
            # touched groups may be folded in part, which only a recapture
            # repairs: the engine reports one as needed from now on.
            for slot in touched:
                if state.total_count[slot] <= 0:
                    state.drop(slot)
            self.needs_recapture = True
            raise
        after = self._outputs(touched, absent)
        if state.exhausted(touched):
            self.needs_recapture = True
        entries = []
        keys, total_count = state.keys, state.total_count
        for slot, old, new in zip(touched, before, after):
            key = keys[slot]
            if old is not None:
                entries.append((key + old[0], old[1], -1))
            if new is not None:
                entries.append((key + new[0], new[1], 1))
            if total_count[slot] <= 0:
                state.drop(slot)
        return AnnotatedDelta(self.output_schema, *map(list, zip(*entries)))


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


def _same_delta(new: Delta, old: Delta) -> None:
    assert list(new.inserts()) == list(old.inserts())
    assert list(new.deletes()) == list(old.deletes())
    assert (new.insert_count, new.delete_count, len(new)) == (
        old.insert_count,
        old.delete_count,
        len(old),
    )


def _frozen(delta: Delta) -> bool:
    try:
        delta.add_insert((0, 0.5))
    except StorageError:
        return True
    return False


class TestWindowUnion:
    @settings(max_examples=300, deadline=None)
    @given(commits, st.data())
    def test_a_window_equals_the_per_record_merge(self, window, data):
        log, deltas = _log(window)
        since = data.draw(st.integers(0, len(window) - 1))
        until = data.draw(st.integers(since, len(window)))
        union = log.delta_between("t", SCHEMA, since, until)
        _same_delta(union, _old_delta_between(deltas[since:until], SCHEMA))
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
        _same_delta(union, _old_delta_between(deltas, SCHEMA))

    def test_disjoint_commits_keep_every_row_where_it_was(self):
        log, deltas = _log([({(1, "x"): 2}, {(0, "x"): 1}), ({(2, "x"): 1}, {(3, "x"): 3})])
        union = log.delta_between("t", SCHEMA, 0, 2)
        assert list(union.inserts()) == [((1, "x"), 2), ((2, "x"), 1)]
        assert list(union.deletes()) == [((0, "x"), 1), ((3, "x"), 3)]
        _same_delta(union, _old_delta_between(deltas, SCHEMA))

    def test_one_record_is_shared_and_none_is_empty(self):
        log, deltas = _log([({(1, "x"): 1}, {})])
        assert log.delta_between("t", SCHEMA, 0, 1) is deltas[0]
        empty = log.delta_between("t", SCHEMA, 1, 1)
        assert not empty and len(empty) == 0 and _frozen(empty)


# -- (b) compaction fixes only the rows in both bags -------------------------------


class TestCompaction:
    @settings(max_examples=300, deadline=None)
    @given(bags, bags, st.booleans())
    def test_compacted_equals_the_two_loops(self, inserts, deletes, frozen):
        delta = _delta(inserts, deletes)
        if frozen:
            delta.freeze()
        compact = delta.compacted()
        _same_delta(compact, _old_compacted(delta))
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
        _same_delta(compact, _old_compacted(delta))
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


def _aggregation(cls, scalar: bool, buffer: int | None, count_star: bool):
    aggregates = [Aggregate(function, ColumnRef("v"), alias) for function, alias in FUNCTIONS]
    if count_star:
        aggregates.append(Aggregate(AggregateFunction.COUNT, None, "n"))
    group_by = [] if scalar else [ColumnRef("g")]
    output = Schema(([] if scalar else ["g"]) + [a.alias for a in aggregates])
    return cls(Feed(Schema(["g", "v"])), group_by, aggregates, output, buffer)


def _entries(operator, entries, from_scratch: bool) -> list:
    """Push ``(row, annotation, count)`` entries through ``operator``; its
    output entries."""
    operator.child.next = AnnotatedDelta(
        operator.child.output_schema,
        [row for row, _a, _c in entries],
        [annotation for _r, annotation, _c in entries],
        [count for _r, _a, count in entries],
    )
    step = Pass.scratch(0) if from_scratch else Pass(DatabaseDelta(), EngineStatistics(), 0)
    return list(operator.process(step).entries())


def _run(operator, entries, from_scratch: bool) -> str:
    return repr(_entries(operator, entries, from_scratch))


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
    def test_output_equals_the_per_group_loop(self, seed, scalar, buffer, count_star):
        rng = random.Random(seed)
        new = _aggregation(IncrementalAggregation, scalar, buffer, count_star)
        old = _aggregation(_OldAggregation, scalar, buffer, count_star)
        first = [((g, rng.choice(VALUES)), 1, 1) for g in rng.sample([None, 0, 1, 2], 2)]
        first = first if rng.random() < 0.8 else []
        assert _run(new, first, True) == _run(old, first, True)
        for entries in _batches(rng, rng.randrange(1, 10)):
            assert _run(new, entries, False) == _run(old, entries, False)
            assert new.needs_recapture == old.needs_recapture
            assert new.state.free == old.state.free
            assert new.state.keys == old.state.keys

    def test_emptied_scalar_group_and_reused_slot(self):
        new = _aggregation(IncrementalAggregation, True, None, True)
        old = _aggregation(_OldAggregation, True, None, True)
        steps = [
            ([], True),
            ([((None, 1), 1, 1), ((None, NAN), 2, 1)], False),
            ([((None, 1), 1, -1), ((None, NAN), 2, -1)], False),
            ([((None, INF), 4, 2)], False),
        ]
        for entries, from_scratch in steps:
            assert _run(new, entries, from_scratch) == _run(old, entries, from_scratch)
        assert new.state.free == old.state.free == []

    def test_exhausted_min_max_emits_no_new_tuple(self):
        new = _aggregation(IncrementalAggregation, False, 2, False)
        old = _aggregation(_OldAggregation, False, 2, False)
        fill = [((0, v), 1, 1) for v in (1, 2, 3, 4)]
        assert _run(new, fill, True) == _run(old, fill, True)
        drain = [((0, 1), 1, -1), ((0, 2), 1, -1), ((1, -INF), 2, 1)]
        output = _entries(new, drain, False)
        assert repr(output) == _run(old, drain, False)
        assert new.needs_recapture
        # Group 0's old tuple is retracted and no new one claimed; group 1 is new.
        assert [(row[0], count) for row, _mask, count in output] == [(0, -1), (1, 1)]


@pytest.mark.parametrize("size", [0, 1, 5])
def test_a_scalar_aggregation_over_nothing(size):
    new = _aggregation(IncrementalAggregation, True, None, True)
    old = _aggregation(_OldAggregation, True, None, True)
    entries = [((None, v), 1, 1) for v in VALUES[:size]]
    assert _run(new, entries, True) == _run(old, entries, True)
    removal = [(row, mask, -count) for row, mask, count in entries]
    assert _run(new, removal, False) == _run(old, removal, False)
