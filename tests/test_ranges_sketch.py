"""Tests for range partitions and provenance sketches."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SketchError
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch, SketchDelta, iter_bits
from repro.sketch.use import sketch_predicate


@pytest.fixture()
def price_partition() -> RangePartition:
    return RangePartition("sales", "price", [1, 601, 1001, 1501, 10000])


@pytest.fixture()
def database_partition(price_partition) -> DatabasePartition:
    other = RangePartition("s", "d", [0, 50, 100])
    return DatabasePartition([price_partition, other])


class TestRangePartition:
    def test_fragment_lookup(self, price_partition):
        assert price_partition.fragment_of(349) == 0
        assert price_partition.fragment_of(999) == 1
        assert price_partition.fragment_of(1199) == 2
        assert price_partition.fragment_of(3875) == 3
        assert price_partition.fragment_of(10000) == 3

    def test_out_of_domain_value_raises(self, price_partition):
        with pytest.raises(SketchError):
            price_partition.fragment_of(0)
        with pytest.raises(SketchError):
            price_partition.fragment_of(None)
        with pytest.raises(SketchError):
            price_partition.fragment_of(math.nan)

    def test_num_fragments_and_ranges(self, price_partition):
        assert price_partition.num_fragments == 4
        ranges = list(price_partition.ranges())
        assert ranges[0].low == 1 and ranges[0].high == 601
        assert ranges[-1].closed_high

    def test_boundaries_must_be_monotone(self):
        with pytest.raises(SketchError):
            RangePartition("t", "a", [5, 1])
        with pytest.raises(SketchError):
            RangePartition("t", "a", [5])

    def test_duplicate_boundaries_collapse(self):
        partition = RangePartition("t", "a", [1, 1, 2, 2, 3])
        assert partition.num_fragments == 2

    def test_cover_domain_extends_to_infinity(self):
        partition = RangePartition.from_boundaries("t", "a", [10, 20, 30])
        assert partition.fragment_of(-1e9) == 0
        assert partition.fragment_of(1e9) == 1
        assert math.isinf(partition.boundaries[0])

    def test_equi_width(self):
        partition = RangePartition.equi_width("t", "a", 0, 100, 4)
        assert partition.num_fragments == 4
        assert partition.fragment_of(49) == 1

    def test_equi_width_covers_the_domain(self):
        partition = RangePartition.equi_width("t", "a", 0, 100, 4)
        assert partition.boundaries == [-math.inf, 25.0, 50.0, 75.0, math.inf]
        assert partition.fragment_of(-1e9) == 0 and partition.fragment_of(1e9) == 3
        # A constant column still gets one range over the whole domain.
        constant = RangePartition.equi_width("t", "a", 5, 5, 1)
        assert constant.boundaries == [-math.inf, math.inf]
        with pytest.raises(SketchError, match="positive"):
            RangePartition.equi_width("t", "a", 0, 100, 0)

    def test_byte_size_scales_with_fragments(self):
        small = RangePartition("t", "a", list(range(11)))
        large = RangePartition("t", "a", list(range(1001)))
        assert large.byte_size() > small.byte_size()

    def test_range_contains(self, price_partition):
        first = price_partition.range_at(0)
        assert first.contains(1) and first.contains(600) and not first.contains(601)
        last = price_partition.range_at(3)
        assert last.contains(10000)


class TestDatabasePartition:
    def test_global_ids_are_offset(self, database_partition):
        assert database_partition.total_fragments == 6
        assert database_partition.global_id("sales", 0) == 0
        assert database_partition.global_id("s", 0) == 4

    def test_global_ids_number_every_fragment_once(self, database_partition):
        # Ranges first, table by table, then one outside id per table: a
        # sketch's bits are dense and no two fragments share one.
        ids = [
            database_partition.global_id(partition.table, index)
            for partition in database_partition
            for index in range(partition.num_fragments)
        ]
        ids += [database_partition.outside_id(table) for table in database_partition.tables()]
        assert ids == list(range(database_partition.total_fragments + len(database_partition)))

    def test_fragment_of_uses_global_ids(self, database_partition):
        assert database_partition.fragment_of("sales", 349) == 0
        assert database_partition.fragment_of("s", 75) == 5

    def test_masks_of_matches_per_value_lookup(self, database_partition):
        # Boundaries, both closed domain ends, interior values and NULLs.
        prices = [1, 600, 601, 1000.5, 1001, 1501, 9999, 10000, None, 349]
        outside = 1 << database_partition.outside_id("sales")
        assert database_partition.masks_of("sales", prices) == [
            outside if price is None else 1 << database_partition.fragment_of("sales", price)
            for price in prices
        ]
        assert database_partition.masks_of("S", [0, 50, None, 100]) == [16, 32, 128, 32]
        assert database_partition.masks_of("s", iter([])) == []

    def test_masks_of_covered_domain_ends(self):
        covered = RangePartition.from_boundaries("t", "a", [10, 20, 30])
        partition = DatabasePartition([RangePartition("u", "x", [0, 1]), covered])
        values = [-math.inf, -1e300, 10, 19.999, 20, 1e300, math.inf, None, math.nan]
        assert partition.masks_of("t", values) == [2, 2, 2, 2, 4, 4, 4, 16, 16]
        assert partition.masks_of("t", values[:-2]) == [
            1 << partition.fragment_of("t", value) for value in values[:-2]
        ]

    def test_masks_of_rejects_out_of_domain_values(self):
        bounded = RangePartition("t", "a", [0, 25, 50, 75, 100])
        partition = DatabasePartition([bounded])
        assert partition.masks_of("t", [0, 25, 100, math.nan]) == [1, 2, 8, 16]
        for outside in (-0.5, 100.5):
            with pytest.raises(SketchError, match="outside the domain"):
                partition.masks_of("t", [50, None, math.nan, outside])
        with pytest.raises(SketchError):
            partition.masks_of("missing", [1])

    def test_outside_ids_follow_every_range(self, database_partition):
        assert [database_partition.outside_id(t) for t in ("sales", "S")] == [6, 7]
        with pytest.raises(SketchError, match="NaN"):
            database_partition.fragment_of("sales", math.nan)

    def test_duplicate_table_rejected(self, price_partition):
        partition = DatabasePartition([price_partition])
        with pytest.raises(SketchError):
            partition.add(RangePartition("sales", "numsold", [0, 10]))

    def test_unknown_lookups_raise(self, database_partition):
        with pytest.raises(SketchError):
            database_partition.partition_of("missing")
        with pytest.raises(SketchError):
            database_partition.global_id("sales", 10)


class TestProvenanceSketch:
    def test_add_and_membership(self, database_partition):
        sketch = ProvenanceSketch.empty(database_partition)
        sketch.add(database_partition.global_id("sales", 2))
        sketch.add(5)
        assert sketch.contains_fragment("sales", 2)
        assert 5 in sketch
        assert len(sketch) == 2

    def test_out_of_range_fragment_rejected(self, database_partition):
        sketch = ProvenanceSketch.empty(database_partition)
        with pytest.raises(SketchError):
            sketch.add(100)

    def test_full_and_empty(self, database_partition):
        assert len(ProvenanceSketch.full(database_partition)) == 6
        assert not ProvenanceSketch.empty(database_partition)

    def test_ranges_for_and_merged_ranges(self, database_partition):
        sketch = ProvenanceSketch(database_partition, [2, 3])
        ranges = sketch.ranges_for("sales")
        assert [r.index for r in ranges] == [2, 3]
        merged = sketch.merged_ranges_for("sales")
        assert len(merged) == 1
        assert merged[0][0] == 1001 and merged[0][1] == 10000

    def test_merged_ranges_keeps_gaps(self, database_partition):
        sketch = ProvenanceSketch(database_partition, [0, 2])
        assert len(sketch.merged_ranges_for("sales")) == 2

    def test_delta_and_apply(self, database_partition):
        old = ProvenanceSketch(database_partition, [0, 1])
        new = ProvenanceSketch(database_partition, [1, 4])
        delta = old.delta_to(new)
        assert delta.added == frozenset({4})
        assert delta.removed == frozenset({0})
        assert old.apply_delta(delta) == new

    def test_superset_and_covers(self, database_partition):
        big = ProvenanceSketch(database_partition, [0, 1, 2])
        small = ProvenanceSketch(database_partition, [1])
        assert big.is_superset_of(small)
        assert not small.is_superset_of(big)
        assert big.covers("sales", 349)
        assert not small.covers("sales", 349)

    def test_byte_size_is_small(self, database_partition):
        sketch = ProvenanceSketch.full(database_partition)
        assert sketch.byte_size() < 64

    def test_sketch_is_a_plain_int_mask(self, database_partition):
        sketch = ProvenanceSketch(database_partition, [5, 1, 1])
        assert type(sketch.mask) is int and sketch.mask == 0b100010
        assert list(sketch.fragment_ids()) == [1, 5] and len(sketch) == 2
        clone = sketch.copy()
        clone.discard(5)
        clone.discard(3)  # absent: no error
        assert list(clone.fragment_ids()) == [1] and 5 in sketch

    @pytest.mark.parametrize("fragment", [-1, 8, 100])
    def test_ids_outside_the_partition_are_rejected(self, database_partition, fragment):
        with pytest.raises(SketchError):
            ProvenanceSketch(database_partition, [0, fragment])
        assert fragment not in ProvenanceSketch.full(database_partition)

    def test_outside_ids_are_fragments_but_not_ranges(self, database_partition):
        sketch = ProvenanceSketch(database_partition, [1, 6])
        assert 6 in sketch and [r.index for r in sketch.ranges_for("sales")] == [1]
        # A NULL or NaN sales row is in the provenance: no range condition
        # would select it, so sales is not filtered.
        assert sketch_predicate(sketch, "sales") is None
        assert sketch_predicate(sketch, "s").canonical() == "(1 = 0)"
        assert sketch_predicate(ProvenanceSketch(database_partition, [1]), "sales") is not None

    def test_union(self, database_partition):
        union = ProvenanceSketch(database_partition, [0, 1]).union(
            ProvenanceSketch(database_partition, [1, 5])
        )
        assert list(union.fragment_ids()) == [0, 1, 5]
        other = DatabasePartition([RangePartition("t", "a", [0, 1, 2, 3, 4, 5, 6])])
        with pytest.raises(SketchError):
            union.union(ProvenanceSketch(other, [0]))

    def test_copy_and_apply_delta_leave_the_original(self, database_partition):
        sketch = ProvenanceSketch(database_partition, [1])
        clone = sketch.copy()
        clone.add(4)
        moved = sketch.apply_delta(SketchDelta(frozenset({2}), frozenset({1})))
        assert list(sketch.fragment_ids()) == [1]
        assert list(clone.fragment_ids()) == [1, 4] and list(moved.fragment_ids()) == [2]

    def test_equality_needs_the_same_partition_and_fragments(self, database_partition):
        twin = DatabasePartition(list(database_partition))
        assert ProvenanceSketch(database_partition, [1, 2]) == ProvenanceSketch(
            database_partition, [2, 1]
        )
        assert ProvenanceSketch(database_partition, [1]) != ProvenanceSketch(
            database_partition, [2]
        )
        assert ProvenanceSketch(database_partition, [1]) != ProvenanceSketch(twin, [1])

    @pytest.mark.parametrize("relation", ["is_superset_of", "delta_to"])
    def test_relations_across_partitions_are_rejected(self, database_partition, relation):
        other = DatabasePartition([RangePartition("t", "a", [0, 1, 2, 3, 4, 5, 6])])
        with pytest.raises(SketchError):
            getattr(ProvenanceSketch(database_partition, [0]), relation)(
                ProvenanceSketch(other, [0])
            )

    def test_a_sparse_sketch_over_a_wide_partition(self):
        wide = DatabasePartition([RangePartition("t", "a", list(range(100_002)))])
        sketch = ProvenanceSketch(wide, [3, 100_000])
        assert 100_000 in sketch and 99_999 not in sketch and -1 not in sketch
        assert list(sketch.fragment_ids()) == [3, 100_000]

    def test_byte_size_grows_with_the_partition(self):
        """Fig. 18: one bit per range, whole bytes, a small fixed header."""
        small = DatabasePartition([RangePartition("t", "a", list(range(11)))])
        large = DatabasePartition([RangePartition("t", "a", list(range(10_001)))])
        assert ProvenanceSketch(small, [0]).byte_size() == 2 + 8
        assert ProvenanceSketch(large, [0]).byte_size() == 1250 + 8

    def test_sketch_delta_merge(self):
        first = SketchDelta(frozenset({1}), frozenset({2}))
        second = SketchDelta(frozenset({2}), frozenset({1}))
        merged = first.merge(second)
        assert merged.added == frozenset({2})
        assert merged.removed == frozenset({1})
        assert not SketchDelta.empty()


WIDE = DatabasePartition([RangePartition("t", "a", list(range(514)))])  # 513 fragments
fragment_sets = st.frozensets(st.integers(0, 512), max_size=40)


class TestSketchSetAlgebra:
    """The mask answers what the same ids in a ``frozenset`` answer."""

    @given(fragment_sets, fragment_sets)
    def test_union_superset_and_delta_match_python_sets(self, a, b):
        first, second = ProvenanceSketch(WIDE, a), ProvenanceSketch(WIDE, b)
        assert set(first.union(second).fragment_ids()) == a | b
        assert first.is_superset_of(second) == (a >= b)
        delta = first.delta_to(second)
        assert (delta.added, delta.removed) == (b - a, a - b)
        assert first.apply_delta(delta) == second
        assert len(first) == len(a) and bool(first) == bool(a)

    @given(st.sets(st.integers(0, 512), max_size=40), st.integers(200_000, 400_000))
    def test_bit_iteration_is_sorted_members_also_when_sparse(self, members, far_bit):
        # One step per member, not per bit position.
        sparse = members | {far_bit}
        assert list(iter_bits(sum(1 << bit for bit in sparse))) == sorted(sparse)
        assert list(iter_bits(0)) == []
