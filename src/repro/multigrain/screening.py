"""Cross-level event screening from fold-derived supports.

Soundness argument
------------------
An event occurs in a coarse granule ``Hq`` iff it occurs in at least one
of the ``f`` fine granules ``Hq`` covers -- the sequence mapping merges
runs but never creates or destroys event occurrences.  Folding a fine
event support with :meth:`~repro.core.supportset.SupportSet.coarsen`
therefore yields *exactly* the support a coarse-level DSEQ scan would
recompute (asserted by the hypothesis property tests).

Because the fold is exact, each coarse level's candidate gate -- the
season-chain bound ``C(SUP_E) >= minSeason`` of
:func:`~repro.core.seasonality.is_season_candidate`, which depends on the
support's positions only -- can be evaluated from the folded supports
alone, before any of that level's granule rows exist, and it decides
exactly as the level's step 2.1 will on the same supports.  The batch
miner materializes per-granule instance tables only for gate-passing
events (``ESTPM._mine_single_events`` checks the gate first), so
granules touched by no candidate event are never read during mining --
screening them out of the row derivation cannot change the result, only
skip work.  The gate walks each folded support through its cached
``positions()``, which the level's step-2.1 season count then reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MiningParams
from repro.core.seasonality import is_season_candidate
from repro.core.supportset import BitsetSupportSet, bit_positions


@dataclass(frozen=True)
class LevelScreening:
    """What the fold-based screening decided for one coarse level.

    Attributes
    ----------
    ratio:
        The level's sequence-mapping ratio (fine granules per sequence).
    n_sequences:
        Length of the level's DSEQ.
    supports:
        Folded (exact) support per event occurring at this level.
    candidates:
        Events passing the level's candidate gate (the season-chain bound).
    granules:
        Union of the candidates' supports -- the only coarse positions
        whose rows mining can touch, hence the only ones worth deriving.
    """

    ratio: int
    n_sequences: int
    supports: dict[str, BitsetSupportSet]
    candidates: frozenset[str]
    granules: frozenset[int]

    @property
    def n_events(self) -> int:
        """Distinct events occurring at this level."""
        return len(self.supports)

    @property
    def n_screened_out(self) -> int:
        """Events whose coarse gate failed before any row was derived."""
        return len(self.supports) - len(self.candidates)

    @property
    def n_granules_skipped(self) -> int:
        """Coarse granules whose rows never need materializing."""
        return self.n_sequences - len(self.granules)


def screen_level(
    fine_supports: dict[str, BitsetSupportSet],
    factor: int,
    n_sequences: int,
    params: MiningParams,
    ratio: int,
) -> LevelScreening:
    """Fold the finest level's event supports and apply the coarse gate.

    ``fine_supports`` are the finest level's per-event supports;
    ``factor`` is the ratio between the two levels; ``n_sequences`` caps
    the folded positions (the trailing partial block is dropped, matching
    the sequence mapping).  Events whose folded support is empty occur
    only in that dropped block and do not exist at the coarse level.
    The candidates' granule union is one bitmask OR per candidate,
    converted to positions once.
    """
    supports: dict[str, BitsetSupportSet] = {}
    candidates: set[str] = set()
    union = 0
    for event, support in fine_supports.items():
        folded = support.coarsen(factor, n_sequences)
        if not folded:
            continue
        supports[event] = folded
        if is_season_candidate(folded, params):
            candidates.add(event)
            union |= folded.bits
    return LevelScreening(
        ratio=ratio,
        n_sequences=n_sequences,
        supports=supports,
        candidates=frozenset(candidates),
        granules=frozenset(bit_positions(union)),
    )
