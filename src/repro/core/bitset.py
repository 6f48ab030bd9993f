"""A compact, growable bit set.

Provenance sketches are encoded as bitvectors (paper Sec. 7.1): bit ``i`` is set
iff range ``i`` of the partition belongs to the sketch.  Python integers are
arbitrary precision, so the implementation stores the bits in a single ``int``
which makes the union / intersection operations used by the incremental engine
single machine instructions for small sketches while remaining correct for
partitions with hundreds of thousands of ranges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask`` in ascending order.

    Peels the lowest set bit per step, so the cost is proportional to the
    number of set bits, not to the position of the highest one.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitSet:
    """A set of non-negative integers backed by a Python integer bit mask.

    The class implements the subset of the ``set`` interface the sketch code
    needs (membership, union, difference, iteration) plus
    :meth:`byte_size` which reports the physical size used by Fig. 18 of the
    paper (memory of sketches).
    """

    __slots__ = ("_bits",)

    def __init__(self, members: Iterable[int] | None = None) -> None:
        self._bits = 0
        if members is not None:
            for member in members:
                self.add(member)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_mask(cls, mask: int) -> "BitSet":
        """Build a bit set directly from an integer mask."""
        if mask < 0:
            raise ValueError("bit mask must be non-negative")
        result = cls()
        result._bits = mask
        return result

    def copy(self) -> "BitSet":
        """Return an independent copy of this bit set."""
        return BitSet.from_mask(self._bits)

    # -- element operations ---------------------------------------------------

    def add(self, index: int) -> None:
        """Set bit ``index``."""
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        self._bits |= 1 << index

    def discard(self, index: int) -> None:
        """Clear bit ``index`` (no error if it was not set)."""
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        self._bits &= ~(1 << index)

    def __contains__(self, index: int) -> bool:
        if index < 0:
            return False
        return bool(self._bits >> index & 1)

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "BitSet") -> "BitSet":
        """Return a new bit set containing members of either operand."""
        return BitSet.from_mask(self._bits | other._bits)

    def intersection(self, other: "BitSet") -> "BitSet":
        """Return a new bit set containing members of both operands."""
        return BitSet.from_mask(self._bits & other._bits)

    def difference(self, other: "BitSet") -> "BitSet":
        """Return a new bit set containing members of ``self`` not in ``other``."""
        return BitSet.from_mask(self._bits & ~other._bits)

    def update(self, other: "BitSet") -> None:
        """In-place union with ``other``."""
        self._bits |= other._bits

    def issubset(self, other: "BitSet") -> bool:
        """Return True when every member of ``self`` is a member of ``other``."""
        return self._bits & ~other._bits == 0

    def issuperset(self, other: "BitSet") -> bool:
        """Return True when every member of ``other`` is a member of ``self``."""
        return other.issubset(self)

    def __or__(self, other: "BitSet") -> "BitSet":
        return self.union(other)

    def __and__(self, other: "BitSet") -> "BitSet":
        return self.intersection(other)

    def __sub__(self, other: "BitSet") -> "BitSet":
        return self.difference(other)

    # -- inspection -----------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._bits)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSet):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitSet({sorted(self)})"

    @property
    def mask(self) -> int:
        """The raw integer bit mask."""
        return self._bits

    def max_bit(self) -> int:
        """Return the index of the highest set bit, or ``-1`` when empty."""
        return self._bits.bit_length() - 1

    def byte_size(self) -> int:
        """Physical size of the bitvector in bytes.

        This is the quantity reported in the paper's Fig. 18 ("Memory of
        Sketches"): one bit per range of the partition, rounded up to whole
        bytes, with a small fixed header.
        """
        payload = (self._bits.bit_length() + 7) // 8
        return max(payload, 1) + 8

    def to_list(self) -> list[int]:
        """Return the sorted list of set bit indices."""
        return list(self)
