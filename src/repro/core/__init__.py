"""Core utilities shared by all IMP subsystems.

This package contains small, dependency-free building blocks:

* :mod:`repro.core.errors` -- the exception hierarchy used across the library.
* :mod:`repro.core.bloom` -- a Bloom filter used by the join optimization
  (Sec. 7.2, "Bloom Filters For Join").
* :mod:`repro.core.timing` -- deep-size memory accounting of operator state
  and sketches.
"""

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
from repro.core.timing import MemoryMeter

__all__ = [
    "AggregateError",
    "BloomFilter",
    "IMPError",
    "MemoryMeter",
    "ParseError",
    "PlanError",
    "SchemaError",
    "SketchError",
    "StateError",
    "StorageError",
    "UnsupportedOperationError",
]
