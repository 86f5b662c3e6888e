"""Support-set engine: the algebra over one big-int bitset.

A support set (paper Def. 3.12) is the increasing set of granule positions
where an event, group, or pattern occurs.  The miners only ever need three
operations on it:

* **intersection** -- every candidate group in ``EHk`` is born from one
  (Sec. IV-D 4.1);
* **cardinality** -- the ``|SUP|`` of Eq. (1)'s maxSeason, the first
  check of every candidate gate;
* **ascending iteration** -- only when seasons are materialized, the
  group's granules are walked for instance enumeration, or a support that
  passes the O(1) checks of the candidate gate meets its season-chain
  walk.

:class:`SupportSet` is the one class: the positions are packed into one
Python big int (bit ``p`` set <=> granule ``p`` is in the set), so
intersection is a single C-level ``&`` and cardinality a single
``int.bit_count()``.  Support sets compare equal to plain position
lists/tuples, so callers and tests can treat them as sorted lists.

Event supports never walk their bits: the sequence database packs a
whole level's supports at once and hands each the ascending positions
it was packed from (:meth:`SupportSet.from_packed`), fine and coarse
levels alike.  :func:`bit_positions` serves the supports born from an
intersection and the streaming miner's raw bitmasks; :func:`_pack_bits`
packs one position list (the pure-Python twin of the level packing).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from repro.exceptions import ConfigError

#: Anything the algebra accepts where a support set is expected.
SupportLike = Union["SupportSet", Sequence[int]]

#: Bitmasks at or below this bit length skip the chunked machine-word
#: paths -- a handful of big-int ops on a few words beats the ``to_bytes``
#: round trip.
_SMALL_BITS = 4096


def bit_positions(bits: int) -> list[int]:
    """The set bit indices of a support bitmask, ascending.

    The low-bit extraction primitive shared by :class:`SupportSet` and
    the streaming miner's raw-bitmask state.  Small masks peel low
    bits off the int directly; larger ones are exported once with
    ``int.to_bytes`` and peeled word by word, so the total cost is linear
    in the mask length instead of quadratic (every ``bits ^= low`` on a
    big int copies the whole mask).
    """
    positions: list[int] = []
    if bits.bit_length() <= _SMALL_BITS:
        while bits:
            low = bits & -bits
            positions.append(low.bit_length() - 1)
            bits ^= low
        return positions
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    from_bytes = int.from_bytes
    for offset in range(0, len(data), 8):
        word = from_bytes(data[offset : offset + 8], "little")
        if not word:
            continue
        base = offset * 8
        while word:
            low = word & -word
            positions.append(base + low.bit_length() - 1)
            word ^= low
    return positions


class SupportSet:
    """A support set packed into one Python big int.

    Bit ``p`` of ``bits`` is set iff granule position ``p`` belongs to the
    set.  Positions are 1-based (bit 0 is never set by the miners, but the
    representation does not care).  Instances behave like immutable
    sorted sequences of granule positions: they are sized, iterable
    (ascending), indexable, and compare equal to plain lists/tuples with
    the same positions.  Intersection and cardinality never materialize
    the positions; iteration does, once, and caches the tuple.
    """

    __slots__ = ("bits", "_cached")

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ConfigError("support bitset cannot be negative")
        self.bits = bits
        self._cached: tuple[int, ...] | None = None

    @classmethod
    def from_positions(cls, positions: Iterable[int]) -> "SupportSet":
        """Pack an iterable of non-negative positions into a bitset."""
        return cls(_pack_bits(positions))

    @classmethod
    def from_sorted(cls, positions: Sequence[int]) -> "SupportSet":
        """Pack strictly ascending positions and keep them as the cached
        positions, so :meth:`positions` never re-derives them from the bits."""
        return cls.from_packed(_pack_bits(positions), tuple(positions))

    @classmethod
    def from_packed(cls, bits: int, positions: tuple[int, ...]) -> "SupportSet":
        """A support set of already packed ``bits`` whose cached positions
        are ``positions``: the set bits of ``bits``, ascending, as Python
        ints (the caller packed one from the other)."""
        support = cls(bits)
        support._cached = positions
        return support

    def positions(self) -> tuple[int, ...]:
        """The positions as an ascending tuple (materialized once, cached)."""
        if self._cached is None:
            self._cached = tuple(bit_positions(self.bits))
        return self._cached

    def __and__(self, other: SupportLike) -> "SupportSet":
        """``a & b``: the intersection, with a support set or a position
        sequence."""
        if isinstance(other, SupportSet):
            return SupportSet(self.bits & other.bits)
        return SupportSet(self.bits & _pack_bits(other))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions())

    def __getitem__(self, index):
        """Indexing and slicing over the materialized positions."""
        result = self.positions()[index]
        return list(result) if isinstance(index, slice) else result

    def __contains__(self, position: int) -> bool:
        return position >= 0 and (self.bits >> position) & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        """Equal to any SupportSet / list / tuple with the same positions."""
        if isinstance(other, SupportSet):
            return self.bits == other.bits
        if isinstance(other, (list, tuple, range)):
            return list(self.positions()) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.positions())

    def __reduce__(self):
        return (SupportSet, (self.bits,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SupportSet({list(self.positions())!r})"


def _pack_bits(positions: Iterable[int]) -> int:
    """Pack non-negative positions into a big-int bitmask.

    Sets bits in a flat ``bytearray`` (one in-place byte OR per position)
    and converts once with ``int.from_bytes`` -- linear in the mask
    length, where per-position ``bits |= 1 << p`` copies the growing big
    int every time.
    """
    ordered = positions if isinstance(positions, (list, tuple)) else list(positions)
    if not ordered:
        return 0
    top = max(ordered)
    if top < 0 or min(ordered) < 0:
        raise ConfigError("support positions cannot be negative")
    packed = bytearray((top >> 3) + 1)
    for position in ordered:
        packed[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(packed, "little")


def as_positions(support: SupportLike) -> Sequence[int]:
    """A sorted position sequence view of any support-like value.

    ``SupportSet`` inputs materialize (cached); plain sequences pass
    through untouched, so pre-existing list-based callers pay nothing.
    """
    if isinstance(support, SupportSet):
        return support.positions()
    return support
