"""Reference semantics the engine is held to, and the one differential harness.

Scalar expressions: the tree-walking interpreter
``repro.relational.oracle.interpret`` (re-exported here).  The engine only
ever runs the one lowering, ``Expression.compile_batch`` column kernels;
:func:`checked_value` holds that lowering to the interpreter, over a single
entry and over a whole generated column.

Whole queries: :func:`oracle` is the one entry point to the reference oracle
-- the literal (or optimized) plan on ``repro.relational.oracle.RowEvaluator``,
the row-at-a-time module the engine never imports -- and :func:`engine` the
one to the batch pipeline on either plan.  :func:`assert_matches_oracle`
compares the two by ``repr`` (entry order, value types, NaN and float low
bits) over a plan and the consumers whose answer hangs on its entry order;
:func:`tables` draws the two tables ``t(id, g, h, v)`` and ``u(k, l, w)``
every differential runs on, and :data:`CATALOGUE` holds the plan shapes.
:func:`assert_systems_match_oracle` drives the middleware systems against
the oracle, and :class:`Without` hides a provider method (index scans, the
lookup join) to force the path taken without it.

**The rule:** a kernel change adds its plan shape to :data:`CATALOGUE` (and,
if it needs one, a value to the key pool), not a test file.  A kernel test
of its own is kept only for what engine ≡ oracle cannot see: which path ran
(spies on lookups, pair lists, filter calls), laziness, counters and the
entry order of the incremental operators.

Bags: :func:`merge` is the one per-entry, first-occurrence bag merge every
merging kernel (batch consolidation, delta windows, compaction, annotated
consolidation, ``μ``) is held to, and :class:`Feed` the one stand-in child
operator that hands an incremental operator a prepared delta.

Sketch capture: :class:`AnnotatedEvaluator` evaluates a plan under the
paper's annotated semantics (Sec. 4.3) one row at a time over a dict of
``(row, frozenset of fragment ids)`` entries, every expression interpreted
per row and ORDER BY spelled out; without a partition it is a plain
row-at-a-time plan interpreter, which the LIMIT, cross and theta shapes
hold the oracle itself to.  The engine's
only annotated evaluation is a from-scratch pass of the columnar, int-mask
incremental operators (``repro.imp.operators``); this oracle shares no code
with ``repro.imp`` and states what that pass must produce, tuple by tuple and
as a sketch.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import cmp_to_key
from typing import Any

import pytest
from hypothesis import strategies as st

from repro.core.errors import IMPError, PlanError
from repro.imp.annotated import AnnotatedDelta
from repro.imp.engine import IMPConfig, compile_plan
from repro.imp.middleware import IMPSystem, NoSketchSystem
from repro.imp.operators import IncrementalOperator, Pass
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Distinct,
    Join,
    OrderItem,
    PlanNode,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.evaluator import RelationProvider
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    IsNull,
    Literal,
    LogicalOp,
    Not,
)
from repro.relational.oracle import compute_aggregate, interpret
from repro.relational.schema import Relation, Row, Schema
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.sketch.use import instrument_plan
from repro.storage.database import Database


def checked_value(expression: Expression, row: Row, schema: Schema) -> Any:
    """The interpreted value of ``expression`` for ``row``, after asserting
    that the engine's lowering produces exactly it (same value, same type):
    over ``row`` as the only entry (``n = 1``) and over a whole column batch
    holding ``row``, an all-NULL row and ``row`` again.  A node that raises
    for ``row`` must raise the same way at ``n = 1`` -- and not at ``n = 0``.
    """
    kernel = expression.compile_batch(schema)
    assert kernel([[] for _ in schema], 0) == []
    try:
        expected = interpret(expression, row, schema)
    except Exception as error:
        with pytest.raises(type(error)):
            kernel([[value] for value in row], 1)
        raise
    for entries in ([row], [row, (None,) * len(row), row]):
        reference = [interpret(expression, each, schema) for each in entries]
        values = kernel([list(column) for column in zip(*entries)], len(entries))
        assert values == reference
        assert list(map(type, values)) == list(map(type, reference))
    return expected


# -- whole queries: the oracle, the engine and engine ≡ oracle ---------------------


def oracle(database, query, optimize: bool = False) -> Relation:
    """The reference answer of ``query`` (SQL, statement or plan): the
    row-at-a-time oracle on the literal plan, or on the optimized one."""
    return database.query(query, optimize_plans=optimize, vectorize=False)


def engine(database, query, optimize: bool = True) -> Relation:
    """The engine's answer: the batch pipeline on the optimized plan, or on
    the literal one."""
    return database.query(query, optimize_plans=optimize)


class Without:
    """``database`` as a relation provider without the named methods, so an
    evaluator takes the path it takes without them (``"index_scan"``: every
    table read in table order; ``"index_lookup"``: no lookup join)."""

    def __init__(self, database: Database, *hidden: str) -> None:
        self._database = database
        self._hidden = hidden

    def __getattr__(self, name: str):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._database, name)


def answer(relation) -> str:
    """A relation compared bit for bit: entry order, types, NaN and low bits."""
    return repr(list(relation.items()))


def _outcome(run, database, plan, optimize: bool) -> str:
    """The answer, or the type of the typed error raised instead (engine and
    oracle evaluate different rows first, so messages may name other ones)."""
    try:
        return answer(run(database, plan, optimize))
    except IMPError as error:
        return type(error).__name__


def consumers(plan: PlanNode, schema: Schema) -> list[PlanNode]:
    """``plan`` and plans above it whose answer hangs on its entry order:
    GROUP BY its key with a float sum, avg and count, a scalar float sum and
    top-k over tied keys.  The key is ``g`` (else ``k``, else the first
    column), the summand ``w`` or ``v`` where there is one."""
    names = {Schema.bare_name(name): name for name in reversed(schema.attributes)}
    key = ColumnRef(names.get("g") or names.get("k") or schema.attributes[0])
    count = Aggregate(AggregateFunction.COUNT, None, "n")
    plans = [plan, TopK(plan, 3, [OrderItem(key, False)])]
    summand = names.get("w") or names.get("v")
    if summand is None:
        return plans + [Aggregation(plan, [key], [count])]
    value = ColumnRef(summand)
    return plans + [
        Aggregation(
            plan,
            [key],
            [
                Aggregate(AggregateFunction.SUM, value, "s"),
                Aggregate(AggregateFunction.AVG, value, "av"),
                count,
            ],
        ),
        Aggregation(plan, [], [Aggregate(AggregateFunction.SUM, value, "s"), count]),
        TopK(plan, 4, [OrderItem(value), OrderItem(key, False)]),
    ]


def assert_matches_oracle(database, plan: PlanNode | str) -> None:
    """Engine ≡ oracle by :func:`answer` for ``plan`` (a plan or SQL) and its
    :func:`consumers`, on the literal and on the optimized plan.  Where the
    oracle raises a typed error, the engine raises one of the same type."""
    if isinstance(plan, str):
        plan = database.plan(plan)
    for each in consumers(plan, plan.output_schema(database)):
        for optimize in (False, True):
            expected = _outcome(oracle, database, each, optimize)
            assert _outcome(engine, database, each, optimize) == expected, (
                each.explain(),
                optimize,
            )


# -- the two tables ------------------------------------------------------------------

NAN = math.nan  # one shared NaN object
BIG = 2**53 + 1  # the first int a float cannot hold: float(BIG) == 2**53
OWN_NAN = object()  # drawn as a NaN object of its own
KEYS = [None, NAN, OWN_NAN, 0, 1, 1.0, True, False, 2, 2.5, -3, BIG, -BIG, float(BIG), 2**53]
TEXT = ["x", "1"]
WORDS = [None, "ash", "Birch", "x", "1", ""]  # an all-text column: min, lower, ORDER BY
# Float sums whose low bits hang on entry order and on merging duplicates
# first; int sums stay exact up to 2**53, where the fold stops merging.
SUMMANDS = [0.1, 0.2, 0.3, 1e16, -1e16, 7.25, 1.0, 2, True, None, NAN, BIG]
EXACT = [None, 0, 1, True, False, -3, 2**40, 2**52, -(2**52), 2**53, BIG, -BIG]
# Plain numbers, which ORDER BY keys by their own values: ±0.0 and 1/1.0/True
# tie, 2**53 + 1 sorts above float(2**53); a column that draws both
# infinities sums to NaN and is keyed by components instead.
PLAIN = [0, -0.0, 0.0, 1, 1.0, True, False, -3, 2.5, 2**53, BIG, float(2**53), -BIG]
ORDERED = PLAIN + [math.inf, -math.inf]
# Values one group's rows may repeat under another spelling: 1/1.0/True,
# ±0.0, 2**53 beside its float, one shared NaN object and NaNs of their own.
# Where no two are equal, an aggregation proves its clustered input distinct.
SPELLINGS = [1, 1.0, True, 0.0, -0.0, 2**53, float(2**53), NAN, OWN_NAN, 0.1, 2.5, -3]


def _spelled(value):
    return float("nan") if value is OWN_NAN else value


def keys(text: bool = False) -> st.SearchStrategy:
    """Join and group keys where SQL ``=`` and dict equality part: NULL, a
    shared NaN and NaNs of their own, ``0``/``1``/``1.0``/``True``/``2``,
    ±(2**53 + 1) beside ``float(2**53 + 1)``; with ``text``, ``'x'`` and ``'1'``."""
    return st.sampled_from(KEYS + TEXT * text).map(_spelled)


@st.composite
def tables(draw) -> tuple[Database, list]:
    """``t(id, g, h, v)`` and ``u(k, l, w)`` with repeated rows, float (or
    int-only, plain-number, or equal-value spelling) summands and optional
    indexes, and rows of ``u`` to delete and re-insert (:func:`move`).  Text
    goes to ``t.g`` only: beside the keys, or all of it (:data:`WORDS`).  An
    index holds values that order against each other, so ``t.g`` has none
    when it mixes text and numbers."""
    g_keys = draw(st.sampled_from(["numbers", "mixed", "text"]))
    database = two_tables()
    indexable = [("u", "k"), ("u", "l"), ("t", "h"), ("t", "id")]
    for table, attribute in indexable + [("t", "g")] * (g_keys != "mixed"):
        if draw(st.booleans()):
            database.create_index(table, attribute)
    pools = [SUMMANDS, EXACT, ORDERED, SPELLINGS]
    v, w = (st.sampled_from(draw(st.sampled_from(pools))).map(_spelled) for _ in "vw")
    g = st.sampled_from(WORDS) if g_keys == "text" else keys(g_keys == "mixed")
    t_rows = draw(st.lists(st.tuples(st.integers(0, 5), g, keys(), v), max_size=10))
    u_rows = draw(st.lists(st.tuples(keys(), keys(), w), max_size=10))
    for table, rows in (("t", t_rows), ("u", u_rows)):
        again = draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
        database.insert(table, rows + again)
    moved = draw(st.lists(st.sampled_from(u_rows), max_size=2)) if u_rows else []
    return database, moved


def two_tables(t_rows=(), u_rows=()) -> Database:
    """A database of ``t(id, g, h, v)`` and ``u(k, l, w)`` holding the rows."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.insert("t", list(t_rows))
    database.insert("u", list(u_rows))
    return database


def move(database: Database, rows: list) -> None:
    """Delete and re-insert each row of ``u``: it moves to the end of its
    index bucket and of the table batch alike."""
    for row in rows:
        database.delete_rows("u", [row])
        database.insert("u", [row])


# -- the catalogue of plan shapes ------------------------------------------------------

T, U = TableScan("t"), TableScan("u")
id_, g, h, v = ColumnRef("id"), ColumnRef("g"), ColumnRef("h"), ColumnRef("v")
k, l, w = ColumnRef("k"), ColumnRef("l"), ColumnRef("w")
T_KEYS = Projection(T, [ProjectionItem(g)])  # a key-only side: merged before the probe
T_TWO = Projection(T, [ProjectionItem(g), ProjectionItem(h)])
U_KEYS = Projection(U, [ProjectionItem(k)])  # a key-only right side: a semi-join
U_PAIRS = Projection(U, [ProjectionItem(k), ProjectionItem(w)])  # duplicate rows
U_KEY_PAIR = Projection(U, [ProjectionItem(k), ProjectionItem(l)])  # a semi-join on two keys
U_SELECTED = Selection(U, IsNull(l, negated=True))  # an index lookup when ``k`` is indexed


def equal(a, b) -> Comparison:
    return Comparison("=", a, b)


def both(*conjuncts) -> LogicalOp:
    return LogicalOp("AND", list(conjuncts))


def aggregate(function: str, argument, alias: str) -> Aggregate:
    return Aggregate(AggregateFunction[function], argument, alias)


# The hash join's duplicate rules: key-only sides (the right one of one or
# two columns, in either order, one of them keyed twice), one and two key
# pairs, one column keyed twice, a residual, no key pair.
JOINS = [
    Join(T_KEYS, U, equal(g, k)),
    Join(T, U_KEYS, equal(g, k)),
    Join(T_KEYS, U_KEYS, equal(k, g)),
    Join(T_TWO, U_KEY_PAIR, both(equal(g, k), equal(h, l))),
    Join(T_TWO, U_KEY_PAIR, both(equal(h, l), equal(g, k))),
    Join(T, U_KEY_PAIR, both(equal(g, l), equal(g, k))),
    Join(T_TWO, U_KEYS, both(equal(g, k), equal(h, k))),
    Join(T_TWO, U, both(equal(g, k), equal(h, l))),
    Join(T_KEYS, U, both(equal(g, k), equal(g, l))),
    Join(T_KEYS, U, both(equal(g, k), Comparison("<", g, w))),
    Join(T_KEYS, U, Comparison("<", g, k)),
    Join(T_KEYS, U_KEYS, None),
]

# The index lookup join: selections over ``u`` (the last two served by an
# index on ``k`` or ``l``, which keeps the hash path) under key conditions.
LOOKUP_SELECTIONS = [
    Comparison("<", w, Literal(1)),
    IsNull(l, negated=True),
    Comparison("<>", w, Literal(7.25)),
    Between(k, Literal(0), Literal(2)),
    Comparison("<", l, Literal(2)),
]
LOOKUP_CONDITIONS = [
    equal(g, k),
    equal(k, g),
    both(equal(g, k), equal(h, l)),
    both(equal(h, l), equal(g, k)),
    both(equal(g, k), Comparison("<", w, Literal(1))),
]


@st.composite
def lookup_joins(draw) -> Join:
    right = U
    for predicate in draw(st.lists(st.sampled_from(LOOKUP_SELECTIONS), min_size=1, max_size=2)):
        right = Selection(right, predicate)
    left = draw(st.sampled_from([T, Selection(T, Comparison(">", v, Literal(0)))]))
    return Join(left, right, draw(st.sampled_from(LOOKUP_CONDITIONS)))


def _all_of(argument) -> list[Aggregate]:
    return [
        aggregate("SUM", argument, "s"),
        aggregate("COUNT", None, "n"),
        aggregate("COUNT", argument, "c"),
        aggregate("AVG", argument, "av"),
        aggregate("MIN", argument, "lo"),
        aggregate("MAX", argument, "hi"),
    ]


@st.composite
def group_joins(draw) -> Aggregation:
    """An aggregation grouped by the one column of a key-only left side,
    perhaps under a sketch over ``t.id``: it folds the right side's partners
    without running the join."""
    left = T_KEYS
    if draw(st.booleans()):
        partition = DatabasePartition([RangePartition.from_boundaries("t", "id", [0, 2, 4, 6])])
        fragments = draw(st.sets(st.integers(0, partition.total_fragments - 1)))
        left = instrument_plan(T_KEYS, ProvenanceSketch(partition, fragments))
    right = draw(st.sampled_from([U, U_PAIRS, U_SELECTED, U_KEYS]))
    if right is U_KEYS:
        return Aggregation(Join(left, U_KEYS, equal(g, k)), [g], [aggregate("SUM", k, "sk")])
    condition = draw(st.sampled_from([equal(g, k), equal(k, g)]))
    return Aggregation(Join(left, right, condition), [g], _all_of(w))


# Aggregations over ``t`` pruned to the aggregated columns: equal rows become
# duplicate entries, merged only where a sum or avg could tell.
T_VALUES = Projection(T, [ProjectionItem(g), ProjectionItem(v)])
PRUNED = [
    Aggregation(T_VALUES, [g], _all_of(v)),
    Aggregation(Projection(T, [ProjectionItem(v)]), [], _all_of(v)),
    Aggregation(T_VALUES, [g], [aggregate("SUM", BinaryOp("*", v, Literal(2)), "s2")]),
]

# An aggregation over a range of its own group key: read through an index on
# ``h``, each group's entries arrive together and fold as one run.
KEY_RANGES = [
    Aggregation(Selection(T, Between(h, Literal(-3), Literal(2))), [h], _all_of(v)),
    Aggregation(Selection(T, Comparison(">=", h, Literal(0))), [h], _all_of(v)),
]

# Aggregations over ``t`` pruned to ``h, v`` and read through an index range
# on ``h`` -- alone, and joined to a key-only side of ``u`` as the bench's
# ``q_join`` is: each group's entries arrive together, so where each run of
# ``v`` holds no two equal values the fold reads the input unmerged.  The
# drawn tables' runs are short and take the merge; ``tests/test_merge_proof.py``
# draws long runs for the same plans.
T_CLUSTERED = Projection(
    Selection(T, Between(h, Literal(-3), Literal(BIG))), [ProjectionItem(h), ProjectionItem(v)]
)
CLUSTERED = [
    Aggregation(T_CLUSTERED, [h], _all_of(v)),
    Aggregation(Join(T_CLUSTERED, U_KEYS, equal(h, k)), [h], _all_of(v)),
]

# Joins without a hashable equality (``ON 1`` is not ``ON TRUE``: it selects nothing).
THETA = [
    None,
    Literal(1),
    Comparison("<", g, k),
    Comparison("<>", g, k),
    equal(BinaryOp("+", g, Literal(1)), k),
    equal(k, Literal(2)),
    LogicalOp("OR", [equal(g, k), IsNull(k)]),
    both(equal(g, k), Comparison("<", id_, w)),
]


@st.composite
def theta_joins(draw) -> PlanNode:
    plan = Join(T, U, draw(st.sampled_from(THETA)))
    if draw(st.booleans()):
        plan = TopK(plan, draw(st.integers(1, 9)), [OrderItem(k, draw(st.booleans()))])
    return plan


@st.composite
def limits(draw) -> PlanNode:
    """LIMIT over tied, mixed-type and NaN keys, multiplicities cut at ``k``."""
    child = draw(
        st.sampled_from(
            [T, Selection(T, Comparison("<", id_, Literal(4))), T_VALUES]
        )
    )
    columns = draw(st.sampled_from([[v], [g], [g, v], [v, g]]))
    order_by = [OrderItem(column, draw(st.booleans())) for column in columns]
    plan = TopK(child, draw(st.integers(1, 12)), order_by)
    if draw(st.booleans()):
        plan = Selection(plan, IsNull(g, negated=True))
    return plan


@st.composite
def top_ks(draw) -> PlanNode:
    """ORDER BY one to three columns in drawn directions, LIMIT cutting
    inside ties and multiplicities: plain ints (``id``), plain numbers or
    summands (``v``, ``w``) and keys with NULL, NaN, text or mixed kinds
    (``g``, ``h``, ``k``, ``l``)."""
    child, columns = draw(
        st.sampled_from([(T, [id_, g, h, v]), (U, [k, l, w]), (U_PAIRS, [k, w])])
    )
    columns = draw(st.permutations(columns))[: draw(st.integers(1, 3))]
    order_by = [OrderItem(column, draw(st.booleans())) for column in columns]
    return TopK(child, draw(st.integers(1, 12)), order_by)


LITERALS = [None, NAN, 0, 1, 1.0, True, 2, 2.5, -3, BIG, -BIG, 2**53]
OPERATORS = ["=", "<", "<=", ">", ">=", "<>"]


@st.composite
def _comparison(draw) -> Expression:
    """A leaf over ``g`` or ``h``: against a literal on either side, BETWEEN
    or NOT BETWEEN (NULL bounds included), or column against column."""
    column = draw(st.sampled_from([g, g, ColumnRef("t.g"), h]))
    literal = st.sampled_from(LITERALS).map(Literal)
    kind = draw(st.sampled_from(["literal", "reversed", "between", "not between", "columns"]))
    if kind in ("between", "not between"):
        between = Between(column, draw(literal), draw(literal))
        return Not(between) if kind == "not between" else between
    other = draw(st.sampled_from([g, h]) if kind == "columns" else literal)
    operator = draw(st.sampled_from(OPERATORS))
    if kind == "reversed":
        return Comparison(operator, other, column)
    return Comparison(operator, column, other)


PREDICATES = st.recursive(
    _comparison(),
    lambda children: st.builds(
        LogicalOp, st.sampled_from(["AND", "OR"]), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=6,
)

# SQL spellings: pruning leaves key-only sides, WHERE conjuncts meet key pairs.
SQL = [
    "SELECT g, k, w FROM t JOIN u ON (g = k)",
    "SELECT g, h, w FROM t JOIN u ON (k = g AND h = l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND h < l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND h <> l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND g = l)",
    "SELECT g, sum(v * w) AS s FROM t JOIN u ON (g = k AND h = l) WHERE v < 100 GROUP BY g",
    "SELECT g, avg(w) AS aw FROM t JOIN u ON (g = k) WHERE g >= 1 AND l < 2 GROUP BY g",
    "SELECT h, w FROM t JOIN u ON (g = k) ORDER BY w DESC LIMIT 3",
    "SELECT k, count(*) AS n FROM t JOIN u ON (g = k) GROUP BY k",
    "SELECT DISTINCT k FROM t JOIN u ON (g = k)",
    "SELECT g, sum(v) AS s, avg(v) AS av, count(*) AS n, min(v) AS lo FROM t GROUP BY g",
]

# Selections, groups and LIMIT over ``t`` with drawn bounds.
SQL_TEMPLATES = [
    "SELECT id, g, h FROM t WHERE h BETWEEN {low} AND {high}",
    "SELECT g, h, v FROM t WHERE h < {high} OR g = 'x'",
    "SELECT DISTINCT g FROM t WHERE h > {low}",
    "SELECT h, count(*) AS n, sum(v) AS sv, min(g) AS mg FROM t GROUP BY h",
    "SELECT g, avg(v) AS av FROM t WHERE v IS NOT NULL GROUP BY g HAVING avg(v) > {low}",
    "SELECT t.id, u.w FROM t JOIN u ON (g = k) WHERE t.h < {high}",
    "SELECT id, v * 2 AS vv FROM t WHERE h IS NULL",
    "SELECT id, h FROM t WHERE h < {high} ORDER BY h, id LIMIT 5",
    "SELECT count(*) AS n FROM t WHERE h BETWEEN {low} AND {high}",
    "SELECT abs(v) AS av, lower(g) AS lg FROM t WHERE h > {low}",
    "SELECT id, g FROM t WHERE h < {high} ORDER BY g LIMIT 7",
    "SELECT id, g, h FROM t ORDER BY g DESC, h LIMIT 6",
    "SELECT t.id, u.k FROM t JOIN u ON (t.h < u.l) WHERE t.v < {low}",
    "SELECT t.id, u.k FROM t JOIN u ON (t.h <> u.l AND t.id = u.k)",
]


@st.composite
def sql_templates(draw) -> str:
    low = draw(st.integers(-3, 3))
    high = low + draw(st.integers(0, 4))
    return draw(st.sampled_from(SQL_TEMPLATES)).format(low=low, high=high)


CATALOGUE: dict[str, st.SearchStrategy] = {
    "hash join": st.sampled_from(JOINS),
    "index lookup join": lookup_joins(),
    "group-join": group_joins(),
    "theta and cross join": theta_joins(),
    "limit": limits(),
    "top-k by plain and component keys": top_ks(),
    "aggregation over pruned duplicates": st.sampled_from(PRUNED),
    "aggregation over a range of its group key": st.sampled_from(KEY_RANGES),
    "aggregation over clustered duplicates": st.sampled_from(CLUSTERED),
    "one column merged by value": st.sampled_from(
        [Distinct(T_KEYS), TopK(T_KEYS, 3, [OrderItem(g, False)])]
    ),
    "selection, index-served or not": PREDICATES.map(lambda predicate: Selection(T, predicate)),
    "sql": st.sampled_from(SQL),
    "sql with drawn bounds": sql_templates(),
}
# One plan of every shape: each example's tables are drawn once, checked often.
PLANS = st.fixed_dictionaries(CATALOGUE)


# -- bags: the one merge and the one feed ----------------------------------------------


def merge(entries: Iterable[tuple[Any, int]], totals: dict | None = None) -> dict:
    """The bag merge, entry by entry: each key's counts summed under its
    first occurrence (object and position; ``1``, ``1.0`` and ``True`` are
    one key), a key whose total reaches zero dropped -- it re-enters at its
    next occurrence, at the end.  Merges into ``totals`` if given."""
    totals = {} if totals is None else totals
    for key, count in entries:
        total = totals.get(key, 0) + count
        if total:
            totals[key] = total
        else:
            del totals[key]
    return totals


class Feed(IncrementalOperator):
    """A child operator that hands its parent the delta queued last."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)
        self.next = AnnotatedDelta.empty(schema)

    def queue(self, entries: Iterable[tuple[Row, int, int]]) -> None:
        """Queue ``(row, annotation, count)`` entries."""
        entries = list(entries)
        self.next = AnnotatedDelta.from_rows(
            self.output_schema,
            [row for row, _a, _c in entries],
            [annotation for _r, annotation, _c in entries],
            [count for _r, _a, count in entries],
        )

    def process(self, run: Pass) -> AnnotatedDelta:
        return self.next


def assert_systems_match_oracle(database, queries, insert_batches, num_fragments=16):
    """Run every query through ``IMPSystem`` and ``NoSketchSystem`` before each
    batch of inserts into ``r`` and assert both answer exactly as the
    reference oracle does.  Returns the IMP system for further assertions."""
    imp = IMPSystem(database, num_fragments=num_fragments)
    no_sketch = NoSketchSystem(database)
    for inserts in insert_batches:
        for sql in queries:
            reference = oracle(database, sql)
            assert imp.run_query(sql) == reference, sql
            assert no_sketch.run_query(sql) == reference, sql
        imp.apply_update("r", inserts=inserts)
    return imp


def random_insert_batches(rng, count, first_id=20_000):
    """``count`` small insert batches for a table ``r(id, a, b, c)``."""
    batches = []
    for _ in range(count):
        size = rng.randrange(1, 4)
        batches.append(
            [
                (first_id + i, rng.randrange(15), rng.randrange(100), rng.randrange(300))
                for i in range(size)
            ]
        )
        first_id += size
    return batches


class AnnotatedRelation:
    """A bag of sketch-annotated tuples ``⟨t, P⟩`` (paper Def. 4.3).

    Entries are keyed by ``(row, annotation)`` so equal tuples with different
    provenance stay distinct.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: dict[tuple[Row, frozenset[int]], int] = {}

    def add(self, row: Row, annotation: frozenset[int], multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of the annotated tuple."""
        if multiplicity <= 0:
            return
        key = (tuple(row), annotation)
        self._entries[key] = self._entries.get(key, 0) + multiplicity

    def items(self) -> Iterator[tuple[Row, frozenset[int], int]]:
        """Iterate over ``(row, annotation, multiplicity)`` triples."""
        for (row, annotation), multiplicity in self._entries.items():
            yield row, annotation, multiplicity

    def entries(self) -> dict[tuple[Row, frozenset[int]], int]:
        """``(row, annotation) -> multiplicity``."""
        return dict(self._entries)

    def to_relation(self) -> Relation:
        """Drop annotations (the paper's tuple-extraction function ``T``)."""
        result = Relation(self.schema)
        for row, _annotation, multiplicity in self.items():
            result.add(row, multiplicity)
        return result

    def combined_annotation(self) -> frozenset[int]:
        """Union of all annotations (the ``S(F(...))`` of the correctness proof)."""
        return frozenset().union(*(annotation for _row, annotation, _m in self.items()))


def _compare_order_values(a, b, ascending: bool) -> int:
    """ORDER BY on one pair of values, spelled out: NULL first, then numbers
    (booleans count) with NaN after all of them, then everything else by its
    string form; DESC turns all of that around except that NaN stays behind
    the other numbers."""

    def kind(value):
        return 0 if value is None else 1 if isinstance(value, (int, float)) else 2

    if kind(a) != kind(b):
        outcome = kind(a) - kind(b)
    elif a is None:
        outcome = 0
    elif kind(a) == 1:
        if a != a or b != b:
            return (a != a) - (b != b)
        outcome = (a > b) - (a < b)
    else:
        outcome = (str(a) > str(b)) - (str(a) < str(b))
    return outcome if ascending else -outcome


class AnnotatedEvaluator:
    """Evaluate logical plans propagating provenance-sketch annotations."""

    def __init__(self, provider: RelationProvider, partition: DatabasePartition) -> None:
        self._provider = provider
        self._partition = partition

    def evaluate(self, plan: PlanNode) -> AnnotatedRelation:
        """Evaluate ``plan`` under annotated semantics."""
        return self._evaluate(plan)

    def capture(self, plan: PlanNode) -> ProvenanceSketch:
        """Capture the provenance sketch of ``plan`` over the current database."""
        result = self.evaluate(plan)
        return ProvenanceSketch(self._partition, result.combined_annotation())

    def _evaluate(self, node: PlanNode) -> AnnotatedRelation:
        if isinstance(node, TableScan):
            return self._table_scan(node)
        if isinstance(node, Selection):
            return self._selection(node)
        if isinstance(node, Projection):
            return self._projection(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Aggregation):
            return self._aggregation(node)
        if isinstance(node, Distinct):
            return self._distinct(node)
        if isinstance(node, TopK):
            return self._top_k(node)
        raise PlanError(
            f"annotated evaluation does not support plan node {type(node).__name__}"
        )

    def _table_scan(self, node: TableScan) -> AnnotatedRelation:
        """Each row annotated with the fragment its partition value falls into
        (the table's outside fragment for NULL and NaN, no fragment for
        unpartitioned tables)."""
        base = self._provider.relation(node.table)
        result = AnnotatedRelation(base.schema.qualify(node.alias))
        position = None
        if self._partition.has_table(node.table):
            attribute = self._partition.partition_of(node.table).attribute
            position = base.schema.index_of(attribute)
        for row, multiplicity in base.items():
            annotation: frozenset[int] = frozenset()
            if position is not None:
                value = row[position]
                if value is None or value != value:
                    annotation = frozenset({self._partition.outside_id(node.table)})
                else:
                    annotation = frozenset({self._partition.fragment_of(node.table, value)})
            result.add(row, annotation, multiplicity)
        return result

    def _selection(self, node: Selection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        for row, annotation, multiplicity in child.items():
            if interpret(node.predicate, row, child.schema) is True:
                result.add(row, annotation, multiplicity)
        return result

    def _projection(self, node: Projection) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = Schema(item.alias for item in node.items)
        result = AnnotatedRelation(schema)
        for row, annotation, multiplicity in child.items():
            values = [interpret(item.expression, row, child.schema) for item in node.items]
            result.add(tuple(values), annotation, multiplicity)
        return result

    def _join(self, node: Join) -> AnnotatedRelation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        schema = left.schema.concat(right.schema)
        result = AnnotatedRelation(schema)
        for left_row, left_annotation, left_mult in left.items():
            for right_row, right_annotation, right_mult in right.items():
                combined = left_row + right_row
                if (
                    node.condition is None
                    or interpret(node.condition, combined, schema) is True
                ):
                    result.add(
                        combined, left_annotation | right_annotation, left_mult * right_mult
                    )
        return result

    def _aggregation(self, node: Aggregation) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        schema = node.output_schema(self._provider)  # type: ignore[arg-type]
        groups: dict[tuple, dict[str, object]] = {}
        for row, annotation, multiplicity in child.items():
            key = tuple(interpret(e, row, child.schema) for e in node.group_by)
            group = groups.setdefault(key, {"rows": [], "annotation": frozenset()})
            group["rows"].append((row, multiplicity))  # type: ignore[union-attr]
            group["annotation"] |= annotation  # type: ignore[operator]
        result = AnnotatedRelation(schema)
        if not groups and not node.group_by:
            values = tuple(
                self._aggregate(aggregate, child.schema, []) for aggregate in node.aggregates
            )
            result.add(values, frozenset(), 1)
            return result
        for key, group in groups.items():
            rows = group["rows"]
            values = tuple(
                self._aggregate(aggregate, child.schema, rows)  # type: ignore[arg-type]
                for aggregate in node.aggregates
            )
            result.add(key + values, group["annotation"], 1)  # type: ignore[arg-type]
        return result

    @staticmethod
    def _aggregate(
        aggregate: Aggregate, schema: Schema, rows: list[tuple[Row, int]]
    ) -> object:
        if aggregate.argument is None:
            return sum(multiplicity for _row, multiplicity in rows)
        values = (
            (interpret(aggregate.argument, row, schema), multiplicity)
            for row, multiplicity in rows
        )
        return compute_aggregate(aggregate.function, values)

    def _distinct(self, node: Distinct) -> AnnotatedRelation:
        child = self._evaluate(node.child)
        result = AnnotatedRelation(child.schema)
        merged: dict[Row, frozenset[int]] = {}
        for row, annotation, _multiplicity in child.items():
            merged[row] = merged.get(row, frozenset()) | annotation
        for row, annotation in merged.items():
            result.add(row, annotation, 1)
        return result

    def _top_k(self, node: TopK) -> AnnotatedRelation:
        child = self._evaluate(node.child)

        def compare(one, other) -> int:
            for item in node.order_by:
                outcome = _compare_order_values(
                    interpret(item.expression, one[0], child.schema),
                    interpret(item.expression, other[0], child.schema),
                    item.ascending,
                )
                if outcome:
                    return outcome
            return 0

        entries = sorted(child.items(), key=cmp_to_key(compare))  # stable: ties in child order
        result = AnnotatedRelation(child.schema)
        remaining = node.k
        for row, annotation, multiplicity in entries:
            if remaining <= 0:
                break
            take = min(multiplicity, remaining)
            result.add(row, annotation, take)
            remaining -= take
        return result


def engine_output(plan, partition, database) -> dict[tuple[Row, frozenset[int]], int]:
    """The root output of the engine's from-scratch pass, shaped like the
    oracle's entries: ``(row, annotation) -> multiplicity``, each int mask
    spelled out as the set of its bit positions."""
    root = compile_plan(plan, partition, database, IMPConfig())
    output = root.process(Pass.scratch(database.version))
    entries: dict[tuple[Row, frozenset[int]], int] = {}
    for row, mask, count in output.entries():
        key = (row, frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
        entries[key] = entries.get(key, 0) + count
    return entries
