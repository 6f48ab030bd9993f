"""Tests for :mod:`repro.core.rbtree`."""

import random

import pytest

from repro.core.rbtree import RedBlackTree, SortedMultiSet
from repro.relational.schema import order_component


class TestRedBlackTreeBasics:
    def test_empty_tree(self):
        tree = RedBlackTree()
        assert len(tree) == 0
        assert not tree
        assert 5 not in tree

    def test_insert_and_lookup(self):
        tree = RedBlackTree()
        tree.insert(3, "three")
        tree.insert(1, "one")
        tree.insert(2, "two")
        assert tree[2] == "two"
        assert tree.get(99) is None
        assert len(tree) == 3

    def test_insert_overwrites_value(self):
        tree = RedBlackTree()
        tree[1] = "a"
        tree[1] = "b"
        assert tree[1] == "b"
        assert len(tree) == 1

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            RedBlackTree()[0]

    def test_delete(self):
        tree = RedBlackTree()
        for key in [5, 2, 8, 1, 3]:
            tree.insert(key, key * 10)
        assert tree.delete(2)
        assert 2 not in tree
        assert not tree.delete(2)
        assert len(tree) == 4

    def test_delitem_missing_raises(self):
        tree = RedBlackTree()
        with pytest.raises(KeyError):
            del tree[7]

    def test_clear(self):
        tree = RedBlackTree()
        tree.insert(1, 1)
        tree.clear()
        assert len(tree) == 0


class TestRedBlackTreeOrdering:
    def test_items_in_sorted_order(self):
        tree = RedBlackTree()
        keys = [9, 3, 7, 1, 5, 11, 2]
        for key in keys:
            tree.insert(key, str(key))
        assert list(tree.keys()) == sorted(keys)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_min_and_max(self):
        tree = RedBlackTree()
        for key in [4, 9, 1, 7]:
            tree.insert(key, None)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_min_of_empty_raises(self):
        with pytest.raises(KeyError):
            RedBlackTree().min_key()

    def test_custom_sort_key(self):
        tree = RedBlackTree(sort_key=lambda pair: pair[1])
        tree.insert(("a", 3), None)
        tree.insert(("b", 1), None)
        tree.insert(("c", 2), None)
        assert [key[0] for key in tree.keys()] == ["b", "c", "a"]


class TestRedBlackTreeInvariants:
    def test_invariants_after_random_operations(self):
        rng = random.Random(99)
        tree = RedBlackTree()
        reference: dict[int, int] = {}
        for _ in range(2000):
            key = rng.randrange(300)
            if rng.random() < 0.6:
                tree.insert(key, key)
                reference[key] = key
            else:
                assert tree.delete(key) == (key in reference)
                reference.pop(key, None)
        tree.check_invariants()
        assert sorted(tree.keys()) == sorted(reference)
        assert len(tree) == len(reference)

    def test_nan_keys_have_one_place_under_order_component(self):
        # Ordered by its own comparisons a NaN key is neither less nor greater
        # than anything, so it lands wherever the walk happens to end and
        # later lookups miss it.  order_component puts it after every number.
        rng = random.Random(7)
        tree = RedBlackTree(sort_key=order_component)
        values = [float("nan"), None, True, "oak"] + [float(i) for i in range(40)]
        present: set = set()
        for _ in range(1500):
            value = rng.choice(values)
            if rng.random() < 0.6:
                tree.insert(value, None)
                present.add(value)
            else:
                assert tree.delete(value) == (value in present)
                present.discard(value)
            tree.check_invariants()
        assert list(tree.keys()) == sorted(present, key=order_component)
        tree.insert(float("nan"), "another NaN object is the same key")
        assert len(tree) == len(present | {values[0]})

    def test_sequential_inserts_stay_balanced(self):
        tree = RedBlackTree()
        for key in range(1000):
            tree.insert(key, key)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(1000))


class TestSortedMultiSet:
    def test_add_and_count(self):
        bag = SortedMultiSet()
        bag.add(5, 3)
        bag.add(5)
        assert bag.count(5) == 4
        assert len(bag) == 4
        assert bag.distinct_count() == 1

    def test_remove_partial_and_full(self):
        bag = SortedMultiSet()
        bag.add("x", 3)
        assert bag.remove("x", 2) == 2
        assert bag.count("x") == 1
        assert bag.remove("x", 5) == 1
        assert "x" not in bag

    def test_remove_missing_returns_zero(self):
        assert SortedMultiSet().remove(1) == 0

    def test_negative_counts_rejected(self):
        bag = SortedMultiSet()
        with pytest.raises(ValueError):
            bag.add(1, -1)
        with pytest.raises(ValueError):
            bag.remove(1, -1)

    def test_min_max_track_deletions(self):
        bag = SortedMultiSet()
        for value in [5, 1, 9, 1]:
            bag.add(value)
        assert bag.min() == 1
        assert bag.max() == 9
        bag.remove(1, 2)
        assert bag.min() == 5
        bag.remove(9)
        assert bag.max() == 5

    def test_first_n_respects_multiplicities(self):
        bag = SortedMultiSet()
        bag.add(1, 2)
        bag.add(2, 5)
        bag.add(3, 1)
        assert bag.first_n(4) == [(1, 2), (2, 2)]
        assert bag.first_n(0) == []
        assert bag.first_n(100) == [(1, 2), (2, 5), (3, 1)]

    def test_discard_all(self):
        bag = SortedMultiSet()
        bag.add("a", 4)
        assert bag.discard_all("a") == 4
        assert len(bag) == 0

    def test_invariants_after_random_mixed_use(self):
        rng = random.Random(5)
        bag = SortedMultiSet()
        reference: dict[int, int] = {}
        for _ in range(1500):
            value = rng.randrange(40)
            if rng.random() < 0.6:
                count = rng.randrange(1, 4)
                bag.add(value, count)
                reference[value] = reference.get(value, 0) + count
            else:
                count = rng.randrange(1, 4)
                removed = bag.remove(value, count)
                expected = min(reference.get(value, 0), count)
                assert removed == expected
                if value in reference:
                    reference[value] -= removed
                    if reference[value] == 0:
                        del reference[value]
        bag.check_invariants()
        assert dict(bag.items()) == reference
