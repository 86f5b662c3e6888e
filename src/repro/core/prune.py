"""Pruning configuration for E-STPM (paper Sec. VI-C3).

The evaluation compares four variants of the exact miner:

* ``NoPrune`` -- neither technique;
* ``Apriori`` -- the candidate filtering of Lemmas 1-2; here the gate is
  the season-chain bound of
  :func:`~repro.core.seasonality.is_season_candidate`, which is
  anti-monotone like the paper's maxSeason and never looser, so candidate
  counts are at most the paper's;
* ``Trans``   -- the transitivity filtering of F1 (Lemmas 3-4);
* ``All``     -- both (the default E-STPM).

Both prunings are *lossless*: they only discard candidates that provably
cannot be frequent seasonal patterns, so all four variants return identical
pattern sets (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PruningConfig:
    """Which E-STPM pruning techniques are active."""

    apriori: bool = True
    transitivity: bool = True

    @classmethod
    def none(cls) -> "PruningConfig":
        """The (NoPrune) variant."""
        return cls(apriori=False, transitivity=False)

    @classmethod
    def apriori_only(cls) -> "PruningConfig":
        """The (Apriori) variant."""
        return cls(apriori=True, transitivity=False)

    @classmethod
    def transitivity_only(cls) -> "PruningConfig":
        """The (Trans) variant."""
        return cls(apriori=False, transitivity=True)

    @classmethod
    def all(cls) -> "PruningConfig":
        """The (All) variant -- the default E-STPM."""
        return cls(apriori=True, transitivity=True)

    @property
    def label(self) -> str:
        """The paper's variant name for reports."""
        if self.apriori and self.transitivity:
            return "All"
        if self.apriori:
            return "Apriori"
        if self.transitivity:
            return "Trans"
        return "NoPrune"


#: All four ablation variants in the paper's plotting order.
ALL_VARIANTS = (
    PruningConfig.none(),
    PruningConfig.apriori_only(),
    PruningConfig.transitivity_only(),
    PruningConfig.all(),
)
