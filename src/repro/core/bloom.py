"""Bloom filter used by the incremental join optimization.

Paper Sec. 7.2: IMP maintains Bloom filters on the join attributes of both
sides of every equi-join.  Before shipping a delta to the backend database to
evaluate ``ΔR ⋈ S`` the delta is pre-filtered with the filter of ``S``; when no
delta tuple passes, the round trip to the database is skipped entirely.

The implementation is a classic partitioned Bloom filter with ``k`` hash
functions derived from two independent hashes (Kirsch & Mitzenmacher double
hashing), sized from a target false-positive rate: position ``i`` of a value
is ``(h1 + i*h2) % m``.

A capture seeds a filter with every join key of a side at once, so
:meth:`BloomFilter.add_all` derives positions in whole-list passes: one
comprehension per finaliser step, then ``p = h1 % m`` and ``s = h2 % m`` for
every value, and each next position ``p + s``, minus ``m`` when that reaches
``m``.  Both terms are below ``m``, so one subtraction reduces the sum, and
by induction round ``i`` holds ``(h1 % m + i*(h2 % m)) % m = (h1 + i*h2) % m``:
the very bits the per-value reference :meth:`BloomFilter._positions` sets, so
a filter's bytes do not depend on which path filled it.  A delta probes a
filter with a few distinct keys at a time, so probing stays per value.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator
from operator import add

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Seeds of the two hashes (h1, h2) and the splitmix64 finaliser's multipliers.
_SEED1, _SEED2 = 0x9E3779B1, 0x85EBCA77
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _stable_hash(value: Hashable, seed: int) -> int:
    """Return a 64-bit hash of ``value`` mixed with ``seed``.

    The probe path of the filter sits on IMP's per-delta-tuple hot path, so it
    uses Python's built-in ``hash`` followed by a splitmix64 finaliser instead
    of a cryptographic hash.  Numeric join keys hash identically across
    processes; string keys depend on ``PYTHONHASHSEED`` but only the filter's
    false-positive pattern changes, never its correctness (no false negatives).
    """
    mixed = (hash(value) ^ seed) & _MASK64
    mixed = ((mixed ^ (mixed >> 30)) * _MIX1) & _MASK64
    mixed = ((mixed ^ (mixed >> 27)) * _MIX2) & _MASK64
    return mixed ^ (mixed >> 31)


def _stable_hashes(hashes: list[int], seed: int) -> list[int]:
    """:func:`_stable_hash` of every value whose built-in hash is in
    ``hashes``, one list pass per line of the finaliser."""
    mixed = [(h ^ seed) & _MASK64 for h in hashes]
    mixed = [((x ^ (x >> 30)) * _MIX1) & _MASK64 for x in mixed]
    mixed = [((x ^ (x >> 27)) * _MIX2) & _MASK64 for x in mixed]
    return [x ^ (x >> 31) for x in mixed]


class BloomFilter:
    """A fixed-size Bloom filter over hashable values.

    Parameters
    ----------
    expected_items:
        Number of distinct values the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` insertions.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes")

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

    # -- population -----------------------------------------------------------

    def add(self, value: Hashable) -> None:
        """Insert ``value`` into the filter."""
        bits = self._bits
        for position in self._positions(value):
            bits[position >> 3] |= 1 << (position & 7)

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Insert every value of ``values`` into the filter: the bits of
        :meth:`_positions`, derived in whole-list passes (see the module
        docstring)."""
        bits = self._bits
        m = self._num_bits
        hashes = list(map(hash, values))
        positions = [h % m for h in _stable_hashes(hashes, _SEED1)]
        steps = [(h | 1) % m for h in _stable_hashes(hashes, _SEED2)]
        for i in range(self._num_hashes):
            if i:
                positions = [p - m if p >= m else p for p in map(add, positions, steps)]
            for position in positions:
                bits[position >> 3] |= 1 << (position & 7)

    # -- membership -----------------------------------------------------------

    def might_contain(self, value: Hashable) -> bool:
        """Return False when ``value`` is definitely absent, True otherwise."""
        bits = self._bits
        return all(bits[p >> 3] >> (p & 7) & 1 for p in self._positions(value))

    def __contains__(self, value: Hashable) -> bool:
        return self.might_contain(value)

    # -- inspection -----------------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Size of the bit array."""
        return self._num_bits

    def byte_size(self) -> int:
        """Physical size of the filter payload in bytes."""
        return (self._num_bits + 7) // 8

    def fill_ratio(self) -> float:
        """Fraction of bits currently set; useful to detect saturation."""
        return int.from_bytes(self._bits, "little").bit_count() / self._num_bits

    # -- internals ------------------------------------------------------------

    def _positions(self, value: Hashable) -> Iterator[int]:
        """The bit positions of one value: the reference derivation."""
        h1 = _stable_hash(value, _SEED1)
        h2 = _stable_hash(value, _SEED2) | 1
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits
