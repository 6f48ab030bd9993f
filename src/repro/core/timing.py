"""Timers and memory accounting used by the benchmark harness.

The paper reports runtimes (median over repetitions) and memory consumption of
operator state, sketches and ranges.  :class:`Stopwatch` provides monotonic
wall-clock timing with accumulation; :class:`MemoryMeter` estimates the deep
size of Python object graphs, which is how state/sketch memory figures
(Fig. 13e/f, 15, 17, 18) are produced.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterable
from typing import Any


class Stopwatch:
    """Accumulating wall-clock stopwatch based on ``time.perf_counter``."""

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> "Stopwatch":
        """Start (or restart) timing; returns ``self`` for chaining."""
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop timing and return the total elapsed seconds so far."""
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        return self._elapsed

    def reset(self) -> None:
        """Reset the accumulated time."""
        self._elapsed = 0.0
        self._started_at = None

    @property
    def elapsed(self) -> float:
        """Elapsed seconds, including the currently running interval."""
        running = 0.0
        if self._started_at is not None:
            running = time.perf_counter() - self._started_at
        return self._elapsed + running

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class MemoryMeter:
    """Estimate the deep in-memory size of Python object graphs.

    ``sys.getsizeof`` only reports shallow sizes, so the meter walks
    containers (dict/list/tuple/set), objects exposing ``__dict__`` and the
    ``__slots__`` of any class (a container subclass's too) while guarding
    against shared sub-objects and cycles.  Objects can opt into precise
    accounting by implementing a ``byte_size() -> int`` method (BloomFilter
    and the sketch classes do), in which case that value is used directly.
    """

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def measure(self, obj: Any) -> int:
        """Return the estimated deep size of ``obj`` in bytes."""
        self._seen.clear()
        return self._sizeof(obj)

    def measure_many(self, objects: Iterable[Any]) -> int:
        """Measure several objects, sharing the de-duplication set."""
        self._seen.clear()
        return sum(self._sizeof(obj) for obj in objects)

    # -- internals -------------------------------------------------------------

    def _sizeof(self, obj: Any) -> int:
        obj_id = id(obj)
        if obj_id in self._seen:
            return 0
        self._seen.add(obj_id)

        byte_size = getattr(obj, "byte_size", None)
        if callable(byte_size):
            try:
                return int(byte_size())
            except TypeError:
                pass

        size = sys.getsizeof(obj)
        if isinstance(obj, dict):
            size += sum(self._sizeof(k) + self._sizeof(v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            size += sum(self._sizeof(item) for item in obj)
        else:
            instance_dict = getattr(obj, "__dict__", None)
            if instance_dict is not None:
                size += self._sizeof(instance_dict)
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                size += self._sizeof(getattr(obj, slot))
        return size


def deep_size(obj: Any) -> int:
    """Convenience wrapper: estimated deep size of ``obj`` in bytes."""
    return MemoryMeter().measure(obj)
