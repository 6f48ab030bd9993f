"""Memory accounting for operator state, sketches and ranges.

The paper reports the memory consumption of operator state, sketches and
ranges.  :class:`MemoryMeter` estimates the deep size of Python object graphs,
which is how the state/sketch memory figures (Fig. 13e/f, 15, 17, 18) are
produced.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import Any


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
