"""Tests for :mod:`repro.core.bloom`."""

import pytest

from repro.core.bloom import BloomFilter


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)

    def test_rejects_invalid_false_positive_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, false_positive_rate=1.5)

    def test_sizes_scale_with_capacity(self):
        small = BloomFilter(expected_items=10)
        large = BloomFilter(expected_items=10_000)
        assert large.num_bits > small.num_bits

    def test_byte_size_matches_bits(self):
        bloom = BloomFilter(expected_items=100)
        assert bloom.byte_size() == (bloom.num_bits + 7) // 8


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500, false_positive_rate=0.01)
        values = [f"key-{i}" for i in range(500)]
        bloom.add_all(values)
        assert all(value in bloom for value in values)

    def test_absent_values_mostly_rejected(self):
        bloom = BloomFilter(expected_items=500, false_positive_rate=0.01)
        bloom.add_all(range(500))
        false_positives = sum(1 for i in range(10_000, 11_000) if i in bloom)
        # 1% target rate; allow generous slack for a probabilistic structure.
        assert false_positives < 60

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=16)
        assert 1 not in bloom
        assert "x" not in bloom

    def test_mixed_types_are_supported(self):
        bloom = BloomFilter(expected_items=16)
        bloom.add(("a", 1))
        assert ("a", 1) in bloom
        assert ("a", 2) not in bloom

    @pytest.mark.parametrize("expected_items", [1, 7, 64, 3000])
    def test_membership_equals_a_set_of_positions(self, expected_items):
        """The byte array answers exactly what the set of hashed positions
        does: a value is in the filter iff all its positions were set."""
        bloom = BloomFilter(expected_items=expected_items, false_positive_rate=0.05)
        inserted = [("k", i) for i in range(0, 2 * expected_items, 2)]
        bloom.add_all(inserted)
        positions = {p for value in inserted for p in bloom._positions(value)}
        for value in inserted + [("k", i) for i in range(1, 2 * expected_items, 2)]:
            assert (value in bloom) == positions.issuperset(bloom._positions(value))
        assert bloom.fill_ratio() == len(positions) / bloom.num_bits
        assert all(p < bloom.num_bits for p in positions)

    def test_stable_across_instances(self):
        # Hashing must not depend on PYTHONHASHSEED: two filters built from the
        # same values answer membership identically.
        first = BloomFilter(expected_items=64)
        second = BloomFilter(expected_items=64)
        first.add_all(["alpha", "beta"])
        second.add_all(["alpha", "beta"])
        probes = ["alpha", "beta", "gamma", "delta"]
        assert [p in first for p in probes] == [p in second for p in probes]


class TestAccounting:
    def test_count_tracks_insertions(self):
        bloom = BloomFilter(expected_items=16)
        bloom.add_all(range(5))
        assert bloom.approximate_count == 5

    def test_fill_ratio_increases(self):
        bloom = BloomFilter(expected_items=64)
        before = bloom.fill_ratio()
        bloom.add_all(range(32))
        assert bloom.fill_ratio() > before
