"""Tests for :mod:`repro.core.bitset`."""

import pytest

from repro.core.bitset import BitSet


class TestConstruction:
    def test_empty_bitset_has_no_members(self):
        assert len(BitSet()) == 0
        assert not BitSet()

    def test_construction_from_members(self):
        bits = BitSet([1, 5, 9])
        assert sorted(bits) == [1, 5, 9]

    def test_from_mask(self):
        bits = BitSet.from_mask(0b1011)
        assert sorted(bits) == [0, 1, 3]

    def test_from_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            BitSet.from_mask(-1)

    def test_copy_is_independent(self):
        original = BitSet([1, 2])
        clone = original.copy()
        clone.add(7)
        assert 7 not in original
        assert 7 in clone


class TestMembership:
    def test_add_and_contains(self):
        bits = BitSet()
        bits.add(42)
        assert 42 in bits
        assert 41 not in bits

    def test_add_negative_raises(self):
        with pytest.raises(ValueError):
            BitSet().add(-3)

    def test_discard_removes_member(self):
        bits = BitSet([3, 4])
        bits.discard(3)
        assert 3 not in bits
        assert 4 in bits

    def test_discard_missing_is_noop(self):
        bits = BitSet([1])
        bits.discard(100)
        assert sorted(bits) == [1]

    def test_negative_membership_is_false(self):
        assert -1 not in BitSet([0, 1])

    def test_large_indices(self):
        bits = BitSet([100_000])
        assert 100_000 in bits
        assert bits.max_bit() == 100_000


class TestSetAlgebra:
    def test_union(self):
        assert sorted(BitSet([1, 2]) | BitSet([2, 3])) == [1, 2, 3]

    def test_intersection(self):
        assert sorted(BitSet([1, 2, 5]) & BitSet([2, 5, 9])) == [2, 5]

    def test_difference(self):
        assert sorted(BitSet([1, 2, 3]) - BitSet([2])) == [1, 3]

    def test_update_in_place(self):
        bits = BitSet([1])
        bits.update(BitSet([8]))
        assert sorted(bits) == [1, 8]

    def test_subset_and_superset(self):
        small, big = BitSet([1, 2]), BitSet([1, 2, 3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)

    def test_equality_and_hash(self):
        assert BitSet([1, 2]) == BitSet([2, 1])
        assert hash(BitSet([4])) == hash(BitSet([4]))
        assert BitSet([1]) != BitSet([2])


class TestInspection:
    def test_len_counts_members(self):
        assert len(BitSet([0, 7, 31, 64])) == 4

    def test_iteration_is_sorted(self):
        assert list(BitSet([9, 1, 5])) == [1, 5, 9]

    def test_iteration_of_a_sparse_set_visits_members_only(self):
        members = [3, 64, 200_003, 1_000_000]
        assert list(BitSet(members)) == members
        assert list(BitSet()) == []

    def test_max_bit_of_empty_is_minus_one(self):
        assert BitSet().max_bit() == -1

    def test_to_list(self):
        assert BitSet([3, 1]).to_list() == [1, 3]

    def test_byte_size_grows_with_highest_bit(self):
        small = BitSet([1]).byte_size()
        large = BitSet([10_000]).byte_size()
        assert large > small

    def test_byte_size_of_empty_is_small(self):
        # A sketch is hundreds of bytes at most for realistic partitions.
        assert BitSet().byte_size() <= 16
