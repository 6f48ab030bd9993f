"""An aggregation merges its input only where a fold could see the merge, and
a clustered aggregation proves its rows distinct instead of merging them.

(a) The integer decision: a sum or avg over ints, bools and NULL of magnitude
    at most ``m``, over entries holding ``n`` tuples, skips the merge exactly
    when ``m * n <= 2**53`` (``evaluator._merges``), stated here as a rule
    and checked against it.
(b) The proof (``evaluator._distinct_runs``): grouped by column references
    into runs, with one column's values pairwise distinct in each run, the
    input holds no two equal rows -- so the proof never says "distinct" where
    ``ColumnBatch.consolidate`` merges, and the fold over the unmerged batch
    is the fold over the consolidated one by ``repr``.
(c) The catalogue's "aggregation over clustered duplicates" plans over
    tables whose runs are long enough to be proven, against the oracle.
(d) Spies pin which path ran on the bench's ``q_join`` shape: over distinct
    rows no merge and no read of the right key column; one duplicate in a
    run merges once; a computed group key keeps the merge.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import kernels
from repro.relational.algebra import Aggregate, AggregateFunction, Aggregation, Projection
from repro.relational.algebra import ProjectionItem, TableScan
from repro.relational.columnar import ColumnBatch, LazyColumns
from repro.relational.evaluator import _distinct_runs, _merges
from repro.relational.expressions import BinaryOp, ColumnRef, Literal, compile_batch_expression
from repro.relational.schema import Schema
from tests.reference import (
    BIG,
    CLUSTERED,
    NAN,
    OWN_NAN,
    answer,
    assert_matches_oracle,
    engine,
    oracle,
    two_tables,
)

SUM, AVG, COUNT, MIN = (
    AggregateFunction.SUM,
    AggregateFunction.AVG,
    AggregateFunction.COUNT,
    AggregateFunction.MIN,
)
EDGE = 2**53
RUN = kernels._MIN_MEAN_RUN
G, V, W = ColumnRef("g"), ColumnRef("v"), ColumnRef("w")


def fresh(value):
    """``OWN_NAN`` drawn as a NaN object of its own."""
    return float("nan") if value is OWN_NAN else value


# -- (a) the integer decision ---------------------------------------------------------

INTEGERS = st.one_of(
    st.sampled_from(
        [None, True, False, 0, 1, -1, 2**52, -(2**52), EDGE, -EDGE, BIG, -BIG, 10**20]
    ),
    st.integers(-(2**60), 2**60),
)
OTHERS = st.sampled_from([0.5, 1.0, -0.0, NAN, math.inf, float(EDGE), "x", "1"])


def adds_exactly(values: list, multiplicities: list[int]) -> bool:
    """The rule: every value an int, a bool or NULL, and the largest
    magnitude times the tuple count at most 2**53."""
    if not all(value is None or type(value) in (int, bool) for value in values):
        return False
    largest = max((abs(value) for value in values if value is not None), default=0)
    return largest * sum(multiplicities) <= EDGE


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(INTEGERS, INTEGERS, OTHERS), st.integers(1, 4)), max_size=12
    ),
    st.sampled_from([SUM, AVG]),
)
@example([(2**51, 4)], SUM)  # m * n exactly at the bound
@example([(2**51, 3), (-(2**51), 1)], AVG)
@example([(2**51, 4), (None, 1)], SUM)  # NULL counts a tuple, not a magnitude
@example([(2**51, 4), (True, 1)], SUM)  # one tuple past the bound
@example([(EDGE + 1, 1)], SUM)  # an int float(v) cannot hold
@example([(True, 2), (False, 3), (None, 1)], AVG)
def test_an_integer_sum_merges_by_its_rule(entries, function):
    values = [value for value, _m in entries]
    multiplicities = [m for _value, m in entries]
    batch = ColumnBatch(Schema(["g", "v"]), [[0] * len(values), values], multiplicities)
    aggregates = [Aggregate(function, V, "s"), Aggregate(MIN, G, "lo")]
    assert _merges(batch, aggregates) is not adds_exactly(values, multiplicities)
    consolidated = ColumnBatch(batch.schema, batch.columns, multiplicities, consolidated=True)
    assert not _merges(consolidated, aggregates)


def test_counts_and_min_max_never_merge():
    batch = ColumnBatch(Schema(["g", "v"]), [[0, 0], [0.1, 0.1]], [1, 1])
    aggregates = [Aggregate(COUNT, None, "n"), Aggregate(COUNT, V, "c"), Aggregate(MIN, V, "lo")]
    assert not _merges(batch, aggregates)
    assert _merges(batch, [Aggregate(MIN, BinaryOp("+", V, Literal(1)), "lo")])


# -- (b) the proof ---------------------------------------------------------------------

# Values of one run: distinct floats whose sums round, with pairs put in --
# equal under two spellings, a real duplicate, or two NaNs of their own,
# which are not equal and leave the proof standing.
DISTINCT = st.integers(0, 10**6).map(lambda x: x / 10)
PAIRS = [
    (1, 1.0),
    (True, 1.0),
    (0.0, -0.0),
    (EDGE, float(EDGE)),
    (NAN, NAN),
    (0.1, 0.1),
    (OWN_NAN, OWN_NAN),
]


@st.composite
def run_values(draw, length: int) -> list:
    values = draw(st.lists(DISTINCT, min_size=length, max_size=length, unique=True))
    positions = st.lists(st.integers(0, length - 1), min_size=2, max_size=2, unique=True)
    for pair in draw(st.lists(st.sampled_from(PAIRS), max_size=2)) if length > 1 else []:
        for position, value in zip(draw(positions), pair):
            values[position] = fresh(value)
    return values
KEYS = st.sampled_from([0, 1, 1.0, True, 2.5, "x", None, NAN, OWN_NAN]).map(fresh)


@st.composite
def delivered(draw) -> tuple[ColumnBatch, list, list[Aggregate]]:
    """A batch ``(g, v, w)`` in runs by ``g`` (long or short, perhaps
    shuffled), ``v`` distinct in a run but for the pairs put in, ``w`` from a
    few values; GROUP BY column references and aggregates over ``v``, ``w``."""
    lengths = st.integers(RUN, RUN + 8) if draw(st.integers(0, 3)) else st.integers(1, 4)
    rows = []
    for key in draw(st.lists(KEYS, min_size=1, max_size=3)):
        values = draw(run_values(draw(lengths)))
        rows += [(key, value, draw(st.sampled_from([0.5, 1, 1.0]))) for value in values]
    if not draw(st.integers(0, 3)):
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        multiplicities = [1] * len(rows)
    else:
        multiplicities = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    batch = ColumnBatch(Schema(["g", "v", "w"]), [list(c) for c in zip(*rows)], multiplicities)
    group_by = draw(st.sampled_from([[G], [G], [G, W], [W, G], []]))
    aggregates = draw(
        st.sampled_from(
            [
                [Aggregate(SUM, V, "s")],
                [Aggregate(COUNT, None, "n"), Aggregate(AVG, BinaryOp("*", V, W), "a")],
                [Aggregate(AVG, W, "a"), Aggregate(SUM, V, "s")],
                [Aggregate(MIN, V, "lo"), Aggregate(SUM, Literal(0.5), "h")],
            ]
        )
    )
    return batch, group_by, aggregates


def fold(batch: ColumnBatch, group_by: list, aggregates: list[Aggregate]) -> str:
    """The aggregation of ``batch`` as the kernel folds it, by ``repr``."""
    n = len(batch)
    values = [compile_batch_expression(e, batch.schema)(batch.columns, n) for e in group_by]
    arguments = [
        None if a.argument is None
        else compile_batch_expression(a.argument, batch.schema)(batch.columns, n)
        for a in aggregates
    ]
    schema = Schema([f"k{i}" for i in range(len(group_by))] + [a.alias for a in aggregates])
    folded = kernels.aggregate_batch(
        schema,
        tuple(aggregates),
        kernels.groups_of(values, n),
        arguments,
        batch.multiplicities,
        grouped=bool(group_by),
    )
    return repr(list(zip(folded.row_tuples(), folded.multiplicities)))


@settings(max_examples=400, deadline=None)
@given(delivered())
def test_the_proof_never_says_distinct_where_the_merge_merges(case):
    batch, group_by, aggregates = case
    n = len(batch)
    groups = kernels.groups_of([batch.columns[batch.schema.index_of(c.name)] for c in group_by], n)
    merged = batch.consolidate()
    if _distinct_runs(batch, groups, aggregates):
        assert len(merged) == n
        assert fold(batch, group_by, aggregates) == fold(merged, group_by, aggregates)


def test_the_proof_reads_one_run_at_a_time():
    """A value repeated in another run proves nothing wrong: the rows differ
    in their group key.  Repeated in one run, it keeps the merge, whatever
    its spelling -- and so does a run too short to be handed out."""
    values = [10 + i / 4 for i in range(RUN)]
    aggregates = [Aggregate(SUM, V, "s")]

    def proven(second_run: list) -> bool:
        column = values + second_run
        key_column = [0] * RUN + [1] * len(second_run)
        batch = ColumnBatch(Schema(["g", "v"]), [key_column, column], [1] * len(column))
        return _distinct_runs(batch, kernels.groups_of([key_column], len(column)), aggregates)

    assert proven(values)
    for twice in ([1, 1.0], [True, 1], [0.0, -0.0], [EDGE, float(EDGE)], [NAN, NAN]):
        assert not proven(values[2:] + twice)
    assert proven(values[2:] + [float("nan"), float("nan")])
    assert not proven(values[:2])  # two runs of 12 and 2 entries: short on average


def test_a_group_split_in_two_is_not_a_run():
    """Group 0 arrives in two blocks around group 1, each block's values
    distinct, but the second block repeats the first: equal rows the merge
    merges, so nothing is proven."""
    first = [i / 4 for i in range(RUN)]
    second = [100 + i / 4 for i in range(RUN)]
    keys = [0] * RUN + [1] * RUN + [0] * RUN
    batch = ColumnBatch(Schema(["g", "v"]), [keys, first + second + first], [1] * 3 * RUN)
    assert len(batch.consolidate()) == 2 * RUN
    groups = kernels.groups_of([keys], len(keys))
    assert not _distinct_runs(batch, groups, [Aggregate(SUM, V, "s")])


# -- (c) the catalogue's clustered plans over long runs ------------------------------------


@st.composite
def clustered_tables(draw):
    """``t(id, g, h, v)`` indexed on ``h``: a run of at least ``RUN`` rows per
    drawn key (``1``, ``1.0`` and ``True`` are one key), inserted round-robin
    so that only the index clusters them; ``v`` distinct in a run but for
    the pairs put in.  ``u(k, l, w)`` holds each key up to
    twice, so joined rows carry multiplicities."""
    runs = []
    pool = st.sampled_from([0, 1, 1.0, True, 2.5, -3, EDGE])
    for key in draw(st.lists(pool, min_size=1, max_size=3)):
        runs.append([(key, value) for value in draw(run_values(draw(st.integers(RUN, RUN + 4))))])
    t_rows = []
    for position in range(max(map(len, runs))):
        for run in runs:
            if position < len(run):
                t_rows.append((len(t_rows), None, *run[position]))
    keys = sorted({key for run in runs for key, _v in run}, key=repr)
    u_rows = [(key, i, 0.5) for key in keys for i in range(draw(st.integers(0, 2)))]
    database = two_tables(t_rows, u_rows + [(7, 0, 0.5)])
    database.create_index("t", "h")
    return database


@settings(max_examples=60, deadline=None)
@given(clustered_tables())
def test_clustered_aggregations_answer_as_the_oracle(database):
    for plan in CLUSTERED:
        assert_matches_oracle(database, plan)


# -- (d) which path ran ------------------------------------------------------------------

# ... FROM (SELECT h, v FROM t WHERE h BETWEEN ...) JOIN u ON (h = k) GROUP BY h
Q_JOIN_SHAPE = CLUSTERED[1]


@contextmanager
def spied():
    """``(consolidated schemas, merged schemas, semi-join outputs)`` of the
    calls made in the block."""
    consolidated, merged, outputs = [], [], []
    consolidate, merged_counts = ColumnBatch.consolidate, ColumnBatch._merged_counts
    semi_join = kernels.semi_join_batch

    def spy_consolidate(batch):
        consolidated.append([Schema.bare_name(name) for name in batch.schema])
        return consolidate(batch)

    def spy_merged_counts(batch):
        merged.append([Schema.bare_name(name) for name in batch.schema])
        return merged_counts(batch)

    def spy_semi_join(*args):
        outputs.append(semi_join(*args))
        return outputs[-1]

    with patch.object(ColumnBatch, "consolidate", spy_consolidate), patch.object(
        ColumnBatch, "_merged_counts", spy_merged_counts
    ), patch.object(kernels, "semi_join_batch", spy_semi_join):
        yield consolidated, merged, outputs


def q_join_tables(duplicate: bool):
    """Three runs of ``RUN + 3`` distinct floats under keys 0, 1 and 2,
    inserted round-robin; ``u`` holds key 0 twice.  With ``duplicate``, one
    row of key 1 is repeated under another ``id``."""
    t_rows = [(i, None, i % 3, (i // 3) * 0.1 + i % 3) for i in range(3 * (RUN + 3))]
    if duplicate:
        t_rows.append((len(t_rows), None, *t_rows[4][2:]))
    database = two_tables(t_rows, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (2, 0, 0.5), (9, 0, 0.5)])
    database.create_index("t", "h")
    return database


def test_distinct_clustered_rows_fold_unmerged():
    """Over distinct rows the aggregation merges nothing and never builds the
    semi-join's right key column; the answer is the oracle's."""
    database = q_join_tables(duplicate=False)
    for optimize in (False, True):
        with spied() as (consolidated, merged, outputs):
            result = engine(database, Q_JOIN_SHAPE, optimize)
        assert ["h", "v", "k"] not in consolidated
        assert merged == [["k"]]  # the key-only side, before the probe
        (output,) = outputs
        assert type(output.columns) is LazyColumns and output.columns._built[2] is None
        assert answer(result) == answer(oracle(database, Q_JOIN_SHAPE, optimize))


def test_one_duplicate_in_a_run_merges_once():
    database = q_join_tables(duplicate=True)
    for optimize in (False, True):
        with spied() as (_consolidated, merged, _outputs):
            result = engine(database, Q_JOIN_SHAPE, optimize)
        assert merged == [["k"], ["h", "v", "k"]]
        assert answer(result) == answer(oracle(database, Q_JOIN_SHAPE, optimize))


def test_a_computed_group_key_keeps_the_merge():
    """``2**53`` and ``float(2**53)`` in ``h`` are one row to the merge, under
    the first spelling, but ``h + 1`` tells them apart: grouped by it, the
    input is merged first even though each group's rows are distinct and
    come in one run."""
    t_rows = [(i, None, EDGE if i < RUN else float(EDGE), (i % RUN) / 4) for i in range(2 * RUN)]
    database = two_tables(t_rows)
    pruned = Projection(TableScan("t"), [ProjectionItem(ColumnRef("h")), ProjectionItem(V)])
    key = BinaryOp("+", ColumnRef("h"), Literal(1))
    plan = Aggregation(pruned, [key], [Aggregate(SUM, V, "s")])
    with spied() as (_consolidated, merged, _outputs):
        result = engine(database, plan, optimize=False)
    assert merged == [["h", "v"]]
    assert answer(result) == answer(oracle(database, plan)) == repr(
        [((EDGE + 1, sum(i / 2 for i in range(RUN))), 1)]
    )
