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

#: Coarse granules folded per chunk by :func:`coarsen_bits` (the fine
#: chunk is ``factor`` times wider); multiples of 8 keep every chunk
#: byte-aligned for any factor.
_COARSEN_CHUNK = 512


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


def coarsen_bits(bits: int, factor: int, n_granules: int | None = None) -> int:
    """Fold a 1-based support bitmask onto a ``factor``-times coarser scale.

    Coarse bit ``q`` is set iff any fine bit in the block
    ``(q-1)*factor+1 .. q*factor`` is set -- the support-set image of the
    sequence mapping ``g: XS ->factor H``.  ``n_granules`` caps the coarse
    positions (granules beyond it come from a trailing partial block that
    the sequence mapping drops).

    Small masks fold with one mask/shift pair per coarse granule.  Large
    masks are exported once with ``int.to_bytes`` and folded in
    byte-aligned chunks of :data:`_COARSEN_CHUNK` coarse granules, so each
    shift touches a fixed-size machine-word window instead of the whole
    remaining big int -- linear total cost where the scalar loop is
    quadratic.
    """
    if factor < 1:
        raise ConfigError(f"coarsening factor must be >= 1, got {factor}")
    if factor == 1:
        folded = bits
        if n_granules is not None:
            folded &= (1 << (n_granules + 1)) - 1
        return folded
    block_mask = (1 << factor) - 1
    remaining = bits >> 1  # drop the never-set bit 0: fine position p -> bit p-1
    if remaining.bit_length() <= _SMALL_BITS:
        folded = 0
        coarse = 1
        while remaining:
            if n_granules is not None and coarse > n_granules:
                break
            if remaining & block_mask:
                folded |= 1 << coarse
            remaining >>= factor
            coarse += 1
        return folded
    data = remaining.to_bytes((remaining.bit_length() + 7) // 8, "little")
    from_bytes = int.from_bytes
    chunk_bytes = factor * (_COARSEN_CHUNK // 8)
    folded = 0
    coarse_base = 0
    for offset in range(0, len(data), chunk_bytes):
        if n_granules is not None and coarse_base >= n_granules:
            break
        chunk = from_bytes(data[offset : offset + chunk_bytes], "little")
        if chunk:
            local = 0
            position = 0
            while chunk:
                if chunk & block_mask:
                    local |= 1 << position
                chunk >>= factor
                position += 1
            folded |= local << (coarse_base + 1)
        coarse_base += _COARSEN_CHUNK
    if n_granules is not None:
        folded &= (1 << (n_granules + 1)) - 1
    return folded


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
        support = cls(_pack_bits(positions))
        support._cached = tuple(positions)
        return support

    def positions(self) -> tuple[int, ...]:
        """The positions as an ascending tuple (materialized once, cached)."""
        if self._cached is None:
            self._cached = tuple(bit_positions(self.bits))
        return self._cached

    def coarsen(self, factor: int, n_granules: int | None = None) -> "SupportSet":
        """The support set's image under a ``factor``-coarser sequence mapping.

        A coarse granule is in the folded set iff it covers at least one
        fine granule of this set.  For *events* the fold is exact: an
        event occurs in a coarse granule iff it occurs in one of the
        covered fine granules, so folding a fine event support yields the
        support the coarse-level DSEQ scan would recompute.  ``n_granules``
        drops coarse positions beyond the mapped database's length (the
        trailing partial block of Def. 3.3).
        """
        return SupportSet(coarsen_bits(self.bits, factor, n_granules))

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
