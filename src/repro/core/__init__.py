"""Core utilities shared by all IMP subsystems.

This package contains small, dependency-free building blocks:

* :mod:`repro.core.errors` -- the exception hierarchy used across the library.
* :mod:`repro.core.bitset` -- a compact bit set used to encode provenance
  sketches (the paper stores sketches as bitvectors, Sec. 7.1).
* :mod:`repro.core.bloom` -- a Bloom filter used by the join optimization
  (Sec. 7.2, "Bloom Filters For Join").
* :mod:`repro.core.rbtree` -- a red-black tree backed sorted multiset used for
  the min/max aggregation and top-k operator state (Sec. 5.2.6, 5.2.7, 7.1).
* :mod:`repro.core.timing` -- timers and simple memory accounting used by the
  benchmark harness.
"""

from repro.core.bitset import BitSet
from repro.core.bloom import BloomFilter
from repro.core.errors import (
    AggregateError,
    IMPError,
    ParseError,
    PlanError,
    SchemaError,
    SketchError,
    StateError,
    StorageError,
    UnsupportedOperationError,
)
from repro.core.rbtree import RedBlackTree, SortedMultiSet
from repro.core.timing import MemoryMeter, Stopwatch

__all__ = [
    "AggregateError",
    "BitSet",
    "BloomFilter",
    "IMPError",
    "MemoryMeter",
    "ParseError",
    "PlanError",
    "RedBlackTree",
    "SchemaError",
    "SketchError",
    "SortedMultiSet",
    "StateError",
    "Stopwatch",
    "StorageError",
    "UnsupportedOperationError",
]
