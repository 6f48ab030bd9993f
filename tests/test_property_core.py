"""Property-based tests for the core data structures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitSet, iter_bits
from repro.core.bloom import BloomFilter
from repro.core.rbtree import RedBlackTree, SortedMultiSet

index_sets = st.sets(st.integers(min_value=0, max_value=512), max_size=40)


class TestBitSetProperties:
    @given(index_sets)
    def test_roundtrip_through_iteration(self, members):
        assert set(BitSet(members)) == members

    @given(index_sets, st.integers(min_value=200_000, max_value=400_000))
    def test_iteration_is_sorted_members_also_when_sparse(self, members, far_bit):
        # Iteration costs one step per member, not per bit position.
        assert list(BitSet(members)) == sorted(members)
        sparse = members | {far_bit}
        assert list(BitSet(sparse)) == sorted(sparse)
        assert list(iter_bits(BitSet(sparse).mask)) == sorted(sparse)

    @given(index_sets, index_sets)
    def test_union_matches_python_sets(self, a, b):
        assert set(BitSet(a) | BitSet(b)) == a | b

    @given(index_sets, index_sets)
    def test_intersection_matches_python_sets(self, a, b):
        assert set(BitSet(a) & BitSet(b)) == a & b

    @given(index_sets, index_sets)
    def test_difference_matches_python_sets(self, a, b):
        assert set(BitSet(a) - BitSet(b)) == a - b

    @given(index_sets, index_sets)
    def test_subset_relation_matches_python_sets(self, a, b):
        assert BitSet(a).issubset(BitSet(b)) == a.issubset(b)

    @given(index_sets)
    def test_length_matches_cardinality(self, members):
        assert len(BitSet(members)) == len(members)

    @given(index_sets, st.integers(min_value=0, max_value=512))
    def test_add_then_discard_restores_membership(self, members, extra):
        bits = BitSet(members)
        bits.add(extra)
        assert extra in bits
        bits.discard(extra)
        assert extra not in bits or extra in members and False or extra not in bits


class TestBloomProperties:
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=80, unique=True))
    @settings(max_examples=30)
    def test_never_reports_false_negatives(self, values):
        bloom = BloomFilter(expected_items=max(len(values), 8))
        bloom.add_all(values)
        assert all(value in bloom for value in values)


class TestRedBlackTreeProperties:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200))
    @settings(max_examples=50)
    def test_insertion_keeps_sorted_order_and_invariants(self, keys):
        tree = RedBlackTree()
        for key in keys:
            tree.insert(key, key)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(set(keys))

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
            max_size=300,
        )
    )
    @settings(max_examples=50)
    def test_mixed_operations_match_reference_dict(self, operations):
        tree = RedBlackTree()
        reference = {}
        for is_insert, key in operations:
            if is_insert:
                tree.insert(key, key * 2)
                reference[key] = key * 2
            else:
                assert tree.delete(key) == (key in reference)
                reference.pop(key, None)
        tree.check_invariants()
        assert dict(tree.items()) == dict(sorted(reference.items()))

    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 30), st.integers(1, 4)),
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_sorted_multiset_matches_counter(self, operations):
        bag = SortedMultiSet()
        reference: dict[int, int] = {}
        for action, key, count in operations:
            if action == "add":
                bag.add(key, count)
                reference[key] = reference.get(key, 0) + count
            else:
                removed = bag.remove(key, count)
                expected = min(reference.get(key, 0), count)
                assert removed == expected
                if key in reference:
                    reference[key] -= removed
                    if reference[key] == 0:
                        del reference[key]
        bag.check_invariants()
        assert dict(bag.items()) == reference
        if reference:
            assert bag.min() == min(reference)
            assert bag.max() == max(reference)
