"""Bloom filter used by the incremental join optimization.

Paper Sec. 7.2: IMP maintains Bloom filters on the join attributes of both
sides of every equi-join.  Before shipping a delta to the backend database to
evaluate ``ΔR ⋈ S`` the delta is pre-filtered with the filter of ``S``; when no
delta tuple passes, the round trip to the database is skipped entirely.

The implementation is a classic partitioned Bloom filter with ``k`` hash
functions derived from two independent hashes (Kirsch & Mitzenmacher double
hashing), sized from a target false-positive rate.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _stable_hash(value: Hashable, seed: int) -> int:
    """Return a 64-bit hash of ``value`` mixed with ``seed``.

    The probe path of the filter sits on IMP's per-delta-tuple hot path, so it
    uses Python's built-in ``hash`` followed by a splitmix64 finaliser instead
    of a cryptographic hash.  Numeric join keys hash identically across
    processes; string keys depend on ``PYTHONHASHSEED`` but only the filter's
    false-positive pattern changes, never its correctness (no false negatives).
    """
    mixed = (hash(value) ^ seed) & _MASK64
    mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _MASK64
    return mixed ^ (mixed >> 31)


class BloomFilter:
    """A fixed-size Bloom filter over hashable values.

    Parameters
    ----------
    expected_items:
        Number of distinct values the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` insertions.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_count")

    def __init__(self, expected_items: int = 1024, false_positive_rate: float = 0.01) -> None:
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = max(8, int(math.ceil(-expected_items * math.log(false_positive_rate) / ln2**2)))
        self._num_bits = num_bits
        self._num_hashes = max(1, int(round(num_bits / expected_items * ln2)))
        # Bit ``p`` is bit ``p & 7`` of byte ``p >> 3``: setting or testing one
        # touches one byte, not a filter-sized integer.
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    # -- population -----------------------------------------------------------

    def add(self, value: Hashable) -> None:
        """Insert ``value`` into the filter."""
        bits = self._bits
        for position in self._positions(value):
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Insert every value of ``values`` into the filter."""
        for value in values:
            self.add(value)

    # -- membership -----------------------------------------------------------

    def might_contain(self, value: Hashable) -> bool:
        """Return False when ``value`` is definitely absent, True otherwise."""
        h1 = _stable_hash(value, 0x9E3779B1)
        h2 = _stable_hash(value, 0x85EBCA77) | 1
        bits = self._bits
        num_bits = self._num_bits
        for i in range(self._num_hashes):
            position = (h1 + i * h2) % num_bits
            if not bits[position >> 3] >> (position & 7) & 1:
                return False
        return True

    def __contains__(self, value: Hashable) -> bool:
        return self.might_contain(value)

    # -- inspection -----------------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Size of the bit array."""
        return self._num_bits

    @property
    def approximate_count(self) -> int:
        """Number of insertions performed (duplicates counted)."""
        return self._count

    def byte_size(self) -> int:
        """Physical size of the filter payload in bytes."""
        return (self._num_bits + 7) // 8

    def fill_ratio(self) -> float:
        """Fraction of bits currently set; useful to detect saturation."""
        return int.from_bytes(self._bits, "little").bit_count() / self._num_bits

    # -- internals ------------------------------------------------------------

    def _positions(self, value: Hashable) -> Iterable[int]:
        h1 = _stable_hash(value, 0x9E3779B1)
        h2 = _stable_hash(value, 0x85EBCA77) | 1
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits
