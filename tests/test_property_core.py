"""Property-based tests for the core data structures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter


class TestBloomProperties:
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=80, unique=True))
    @settings(max_examples=30)
    def test_never_reports_false_negatives(self, values):
        bloom = BloomFilter(expected_items=max(len(values), 8))
        bloom.add_all(values)
        assert all(value in bloom for value in values)
