"""Tests for :mod:`repro.core.timing`."""

from repro.core.bloom import BloomFilter
from repro.core.timing import MemoryMeter, deep_size


class TestMemoryMeter:
    def test_containers_are_walked(self):
        flat = deep_size([1, 2, 3])
        nested = deep_size([[1, 2, 3], [4, 5, 6], {"a": "b" * 100}])
        assert nested > flat

    def test_shared_objects_counted_once(self):
        shared = ["payload"] * 100
        double = MemoryMeter().measure([shared, shared])
        single = MemoryMeter().measure([shared])
        # The second reference adds only list overhead, not a full copy.
        assert double < 2 * single

    def test_byte_size_hook_is_used(self):
        bloom = BloomFilter(1_000)
        assert deep_size(bloom) == bloom.byte_size()

    def test_slots_of_a_container_subclass_are_walked(self):
        class Indexed(dict):
            __slots__ = ("index",)

        indexed = Indexed(a=1)
        indexed.index = ["x" * 1_000]
        assert deep_size(indexed) > deep_size({"a": 1}) + 1_000

    def test_objects_with_dict_are_walked(self):
        class Holder:
            def __init__(self):
                self.payload = "x" * 1_000

        assert deep_size(Holder()) > 1_000

    def test_measure_many_shares_seen_set(self):
        shared = list(range(100))
        meter = MemoryMeter()
        total = meter.measure_many([shared, shared])
        assert total < 2 * deep_size(shared)
