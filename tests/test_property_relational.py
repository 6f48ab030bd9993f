"""Property-based tests for relations, deltas, range partitions and the
compiled-expression layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
)
from repro.relational.schema import Relation, Schema
from repro.sketch.ranges import RangePartition
from repro.storage.delta import Delta
from tests.reference import checked_value

SCHEMA = Schema(["a", "b"])

rows = st.tuples(st.integers(0, 20), st.integers(0, 20))
bags = st.dictionaries(rows, st.integers(min_value=1, max_value=4), max_size=25)


def relation_of(bag: dict) -> Relation:
    return Relation(SCHEMA, bag)


class TestRelationProperties:
    @given(bags, bags)
    def test_union_is_commutative(self, a, b):
        assert relation_of(a).union(relation_of(b)) == relation_of(b).union(relation_of(a))

    @given(bags, bags)
    def test_union_cardinality_adds(self, a, b):
        combined = relation_of(a).union(relation_of(b))
        assert len(combined) == len(relation_of(a)) + len(relation_of(b))

    @given(bags, bags)
    def test_difference_never_negative(self, a, b):
        result = relation_of(a).difference(relation_of(b))
        assert all(multiplicity > 0 for _row, multiplicity in result.items())

    @given(bags)
    def test_difference_with_self_is_empty(self, a):
        assert len(relation_of(a).difference(relation_of(a))) == 0


def delta_of(inserts: dict, deletes: dict) -> Delta:
    delta = Delta(SCHEMA)
    for row, multiplicity in inserts.items():
        delta.add_insert(row, multiplicity)
    for row, multiplicity in deletes.items():
        delta.add_delete(row, multiplicity)
    return delta


def net_of(delta: Delta) -> dict:
    """Each row's inserted minus deleted multiplicity, zeros dropped."""
    net: dict = {}
    for row, count in zip(*delta.signed_entries()):
        net[row] = net.get(row, 0) + count
    return {row: count for row, count in net.items() if count}


class TestDeltaProperties:
    @given(bags, bags)
    def test_compaction_keeps_the_net_effect_and_one_sign_per_row(self, inserts, deletes):
        delta = delta_of(inserts, deletes)
        compact = delta.compacted()
        assert net_of(compact) == net_of(delta)
        assert not set(dict(compact.inserts())) & set(dict(compact.deletes()))

    @given(bags, bags)
    def test_compaction_is_idempotent(self, inserts, deletes):
        compact = delta_of(inserts, deletes).compacted()
        again = compact.compacted()
        assert dict(again.inserts()) == dict(compact.inserts())
        assert dict(again.deletes()) == dict(compact.deletes())

    @given(bags, bags)
    def test_a_delta_merged_with_its_inverse_compacts_to_nothing(self, inserts, deletes):
        delta = delta_of(inserts, deletes)
        inverse = delta_of(deletes, inserts)
        assert net_of(inverse) == {row: -n for row, n in net_of(delta).items()}
        assert not Delta.union(delta.schema, [delta, inverse]).compacted()

    @given(bags, bags)
    def test_signed_entries_sum_to_the_counts(self, inserts, deletes):
        delta = delta_of(inserts, deletes)
        rows, counts = delta.signed_entries()
        assert len(rows) == len(counts) == len(inserts) + len(deletes)
        assert sum(counts) == delta.insert_count - delta.delete_count
        assert sum(map(abs, counts)) == len(delta)


# -- compiled expressions ------------------------------------------------------

EXPR_SCHEMA = Schema(["a", "b", "c"])

expr_rows = st.tuples(
    *(st.one_of(st.none(), st.integers(-50, 50)) for _ in range(3))
)

numeric_leaves = st.one_of(
    st.sampled_from(["a", "b", "c"]).map(ColumnRef),
    st.integers(-20, 20).map(Literal),
    st.just(Literal(None)),
)

numeric_exprs = st.recursive(
    numeric_leaves,
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/%"), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        children.map(UnaryMinus),
        children.map(lambda e: FunctionCall("abs", [e])),
        st.tuples(children, children).map(
            lambda t: FunctionCall("coalesce", [t[0], t[1]])
        ),
    ),
    max_leaves=8,
)

predicate_exprs = st.recursive(
    st.one_of(
        st.tuples(
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            numeric_exprs,
            numeric_exprs,
        ).map(lambda t: Comparison(t[0], t[1], t[2])),
        st.tuples(numeric_exprs, numeric_exprs, numeric_exprs).map(
            lambda t: Between(t[0], t[1], t[2])
        ),
        st.tuples(numeric_exprs, st.booleans()).map(lambda t: IsNull(t[0], t[1])),
    ),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(
            st.sampled_from(["AND", "OR"]),
            st.lists(children, min_size=1, max_size=3),
        ).map(lambda t: LogicalOp(t[0], t[1])),
    ),
    max_leaves=6,
)


class TestCompiledExpressionProperties:
    @given(expression=numeric_exprs, row=expr_rows)
    @settings(max_examples=200)
    def test_compiled_numeric_matches_interpreted(self, expression, row):
        checked_value(expression, row, EXPR_SCHEMA)

    @given(expression=predicate_exprs, row=expr_rows)
    @settings(max_examples=200)
    def test_compiled_predicate_matches_interpreted(self, expression, row):
        assert checked_value(expression, row, EXPR_SCHEMA) in (True, False, None)


boundary_lists = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=12
).map(sorted).filter(lambda values: values[0] < values[-1])


class TestRangePartitionProperties:
    @given(boundary_lists, st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=80)
    def test_every_in_domain_value_has_exactly_one_fragment(self, boundaries, value):
        partition = RangePartition("t", "a", boundaries)
        low, high = partition.boundaries[0], partition.boundaries[-1]
        if not low <= value <= high:
            return
        index = partition.fragment_of(value)
        matching = [r.index for r in partition.ranges() if r.contains(value)]
        assert matching == [index]

    @given(boundary_lists)
    def test_fragments_cover_domain_without_overlap(self, boundaries):
        partition = RangePartition("t", "a", boundaries)
        ranges = list(partition.ranges())
        for first, second in zip(ranges, ranges[1:]):
            assert first.high == second.low
        assert ranges[0].low == partition.boundaries[0]
        assert ranges[-1].high == partition.boundaries[-1]

    @given(boundary_lists)
    def test_boundary_count_matches_fragment_count(self, boundaries):
        partition = RangePartition("t", "a", boundaries)
        assert len(partition.boundaries) == partition.num_fragments + 1
