"""Core utilities shared by all IMP subsystems.

This package contains small, dependency-free building blocks:

* :mod:`repro.core.errors` -- the exception hierarchy used across the library.
* :mod:`repro.core.bloom` -- a Bloom filter used by the join optimization
  (Sec. 7.2, "Bloom Filters For Join").
* :mod:`repro.core.timing` -- timers and simple memory accounting used by the
  benchmark harness.
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
from repro.core.timing import MemoryMeter, Stopwatch

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
    "Stopwatch",
    "StorageError",
    "UnsupportedOperationError",
]
