"""Seasonality measures (paper Defs. 3.13-3.15 and Eq. (1)).

Given the support set of an event / group / pattern, this module computes:

* its maximal *near support sets* -- maximal runs whose consecutive-granule
  periods are all <= ``max_period`` (Def. 3.13);
* its *seasons* -- near support sets of density >= ``min_density`` chained
  so that consecutive season distances lie in ``dist_interval``
  (Defs. 3.14-3.15);
* its ``maxSeason`` upper bound ``|SUP| / min_density`` (Eq. (1));
* the candidate gate of the Apriori-like pruning (Lemmas 1-2),
  :func:`is_season_candidate`, which tightens maxSeason to the
  season-chain bound (see below).

The season-chain bound
----------------------
Let ``g = max(dist_min, max_period + 1)``.  A *window* of a support set
``S`` is ``min_density`` consecutive granules of ``S`` whose steps are
all <= ``max_period``.  ``C(S)`` counts the windows a greedy walk finds:
it takes the earliest window, then the earliest one starting at least
``g`` after that window's end, and so on.

``C`` bounds the seasons of every subset.  Take a chain of seasons of
``S' <= S``.  Each season holds ``min_density`` granules of ``S'`` with
steps <= ``max_period``, so the granules of ``S`` from its first one on
hold a window that ends no later than the season.  Consecutive seasons of
a chain lie at least ``g`` apart: the H9 trim keeps ``dist_min``, and
they come from different near sets of ``S'``, which lie more than
``max_period`` apart.  So the seasons' windows form a chain of windows
``g`` apart, and the greedy walk, whose i-th window ends no later than
theirs (by induction), finds at least as many.  The same exchange
argument gives ``C(S') <= C(S)``, so ``C`` is anti-monotone like
maxSeason and never falls when a support gains granules, by append or by
merge, which keeps the streaming miner's gates monotone.  A near set
``N`` holds at most ``floor(|N| / min_density)`` disjoint windows, so

    seasons(S') <= C(S') <= C(S) <= B(S) <= |S| / min_density,

where ``B(S)`` sums ``floor(|N| / min_density)`` over the near sets of
``S``.  When ``dist_max`` does not bind, the union of the greedy windows
is a subset whose seasons are exactly those windows, so ``C(S)`` is the
best season count over all subsets of ``S``.

``max_season`` stays: it is the quantity the MI bound of Eq. (6)
(:mod:`repro.core.bounds`) bounds, and its gate :func:`is_candidate` is
the first O(1) check of :func:`is_season_candidate`.  The second is the
span check: ``m`` windows ``g`` apart need at least
``m * (min_density - 1) + (m - 1) * g`` between their first and last
granule.

Season chaining semantics
-------------------------
The paper defines seasons per near support set and requires every pair of
consecutive seasons to respect ``dist_interval``; its worked example
(Sec. IV-B) drops granule H9 from a near set because it starts closer than
``dist_min`` to the previous season.  We pin this down as a left-to-right
chain construction:

1. Split the support set into maximal near support sets (gap <= maxPeriod).
2. Walk the near sets in order, maintaining the current chain of seasons:
   * while the next set starts closer than ``dist_min`` to the end of the
     last season, its leading granules are trimmed (the H9 rule);
   * a (possibly trimmed) set with density >= ``min_density`` joins the
     chain if its distance is <= ``dist_max``; sparser sets are skipped;
   * a distance > ``dist_max`` breaks the chain and starts a new one.
3. ``seasons(P)`` is the length of the longest chain.

For support sets whose near sets chain without breaks (the common case and
all of the paper's examples) this is exactly the paper's definition.

One step of the walk is :func:`_chain_step`, and every season view is
built with it: :func:`season_view` folds it over the near sets of a
whole support.  :func:`compute_seasons` splits one support into its near
sets and calls it; step 2.1 of the batch miner gets every admitted
event's near sets from one split of the whole level
(:meth:`~repro.transform.sequence_db.TemporalSequenceDatabase.near_support_sets`)
and calls it directly, so an event's support is walked once for its
view and its frequency is ``view.n_seasons >= minSeason``.  The walk is
left to right, so a support that only grows at its end keeps every near
set but the last (the *open* one) and the chain state in front of it:
:class:`SeasonChain` holds that state for the streaming miner, which
walks a fresh support once and then re-walks only the open near set and
the new granules per append.  :func:`count_seasons` counts the same
chains without building them, for the gates that only need the number.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.core.config import MiningParams
from repro.core.supportset import (
    SupportLike,
    SupportSet,
    as_positions,
    bit_positions,
)


def max_season(support_size: int, min_density: int) -> float:
    """The maximum seasonal occurrence bound of Eq. (1): ``|SUP|/minDensity``."""
    return support_size / min_density


def is_candidate(support_size: int, params: MiningParams) -> bool:
    """Candidate gate of Sec. IV-B: ``maxSeason >= minSeason``."""
    return max_season(support_size, params.min_density) >= params.min_season


def is_season_candidate(support: SupportLike | int, params: MiningParams) -> bool:
    """The Apriori candidate gate: ``C(SUP) >= minSeason``.

    ``support`` is a sorted position sequence, a
    :class:`~repro.core.supportset.SupportSet` or a raw support bitmask.  Two O(1) checks run first: Eq. (1)'s size check
    :func:`is_candidate` and the span check (``minSeason`` windows ``g``
    apart must fit between the first and the last granule).  Only then are
    the positions walked (a bitset's through its cached ``positions()``),
    and the walk stops as soon as ``minSeason`` windows are found, or as
    soon as the granules or the span left can no longer hold the windows
    still needed.
    """
    if isinstance(support, int):
        bits = support
    elif isinstance(support, SupportSet):
        bits = support.bits
    else:
        bits = None
    size = len(support) if bits is None else bits.bit_count()
    if not is_candidate(size, params):
        return False
    if bits is None:
        first, last = support[0], support[-1]
    else:
        first, last = (bits & -bits).bit_length() - 1, bits.bit_length() - 1
    min_density = params.min_density
    max_period = params.max_period
    gap = max(params.dist_min, max_period + 1)
    # ``need`` windows ``gap`` apart span at least ``need * step - gap``.
    step = min_density - 1 + gap
    need = params.min_season
    if last - first < need * step - gap:
        return False
    positions = bit_positions(support) if isinstance(support, int) else as_positions(support)
    start = 0  # index of the first granule the next window may start at
    while size - start >= need * min_density and last - positions[start] >= need * step - gap:
        end = start + min_density - 1
        index = start + 1
        while index <= end and positions[index] - positions[index - 1] <= max_period:
            index += 1
        if index <= end:
            start = index  # a window starting before ``index`` holds its long step
            continue
        need -= 1
        if not need:
            return True
        start = bisect_left(positions, positions[end] + gap, end + 1)
    return False


def iter_near_sets(support, max_period: int) -> Iterator[list[int]]:
    """Stream the maximal near support sets of one support, one at a time.

    The Def. 3.13 split (gap <= maxPeriod) of :func:`compute_seasons`,
    :func:`count_seasons` and the pure-Python twin of
    :meth:`~repro.transform.sequence_db.TemporalSequenceDatabase.near_support_sets`;
    only the current set is materialized, so counting callers never hold
    the full decomposition.
    """
    current: list[int] = []
    for position in support:
        if current and position - current[-1] > max_period:
            yield current
            current = [position]
        else:
            current.append(position)
    if current:
        yield current


def season_distance(season_i: list[int], season_j: list[int]) -> int:
    """Distance between consecutive seasons (Sec. III-E):
    ``|p(last of season_i) - p(first of season_j)|``."""
    return abs(season_j[0] - season_i[-1])


@dataclass(frozen=True)
class SeasonView:
    """The seasonal decomposition of one support set.

    Attributes
    ----------
    support:
        The support set the view was computed from.
    near_sets:
        Its maximal near support sets (before density/distance filtering).
    seasons:
        The longest chain of seasons found (see module docstring).
    """

    support: tuple[int, ...]
    near_sets: tuple[tuple[int, ...], ...]
    seasons: tuple[tuple[int, ...], ...]

    @property
    def n_seasons(self) -> int:
        """``seasons(P)`` -- the number of seasons in the best chain."""
        return len(self.seasons)

    def densities(self) -> list[int]:
        """Density of each season (granule counts)."""
        return [len(season) for season in self.seasons]

    def distances(self) -> list[int]:
        """Distances between consecutive seasons in the chain."""
        return [
            season_distance(list(a), list(b))
            for a, b in zip(self.seasons, self.seasons[1:])
        ]


#: A season chain: the seasons it holds, in order.
_Chain = tuple[tuple[int, ...], ...]


def _chain_step(
    best: _Chain, current: _Chain, near_set: tuple[int, ...], params: MiningParams
) -> tuple[_Chain, _Chain]:
    """One step of the season-chain walk (step 2 of the module
    docstring's construction): chain the next near set, on immutable state.

    ``best`` is the first longest of the chains a ``dist_max`` break has
    closed so far, ``current`` the chain ``near_set`` continues; the
    seasons are the first longest of ``best`` and the final ``current``.
    """
    candidate = near_set
    if current:
        last_end = current[-1][-1]
        # Trim leading granules that sit closer than dist_min (H9 rule).
        candidate = near_set[bisect_left(near_set, last_end + params.dist_min) :]
        if not candidate:
            return best, current
        if candidate[0] - last_end > params.dist_max:
            # Chain broken by a too-long gap; start fresh from this set.
            if len(current) > len(best):
                best = current
            current = ()
            candidate = near_set
    if len(candidate) >= params.min_density:
        current = (*current, candidate)
    return best, current


def season_view(
    support: tuple[int, ...],
    near_sets: tuple[tuple[int, ...], ...],
    params: MiningParams,
) -> SeasonView:
    """The seasonal decomposition of ``support``, given its maximal near
    support sets: :func:`_chain_step` folded over them in order."""
    best: _Chain = ()
    current: _Chain = ()
    for near_set in near_sets:
        best, current = _chain_step(best, current, near_set, params)
    return SeasonView(
        support=support,
        near_sets=near_sets,
        seasons=current if len(current) > len(best) else best,
    )


def compute_seasons(support: SupportLike, params: MiningParams) -> SeasonView:
    """Full seasonal decomposition of a support set under ``params``.

    Accepts a plain sorted position list or a
    :class:`~repro.core.supportset.SupportSet` -- this is the point where
    a lazily-packed bitset support is materialized.
    """
    support = tuple(as_positions(support))
    near_sets = tuple(tuple(s) for s in iter_near_sets(support, params.max_period))
    return season_view(support, near_sets, params)


class SeasonChain:
    """The seasons of a support set that grows at its end.

    Holds the support positions, the closed near sets and the chain state
    before the open (last) near set, so :meth:`refresh` after an append
    re-walks only the open near set and the new positions.  A chain never
    refreshed before, or whose support gained a position below its last
    one, walks its whole support the same way, once.
    """

    __slots__ = ("support", "view", "_closed", "_open", "_folded", "_best", "_current")

    def __init__(self) -> None:
        self.support: list[int] = []
        #: The view the last :meth:`refresh` returned (stale once the
        #: support grows).
        self.view: SeasonView | None = None
        self._restart()

    def _restart(self) -> None:
        """Forget the walk: the next refresh walks the whole support."""
        self._closed: list[tuple[int, ...]] = []
        self._open = 0  # support index of the open near set's first position
        self._folded = 0  # support positions the walk has consumed
        self._best: _Chain = ()
        self._current: _Chain = ()

    @property
    def fresh(self) -> bool:
        """Does the next refresh walk the whole support?"""
        return self._folded == 0

    def extend(self, positions: list[int]) -> None:
        """Add ascending positions: in place when all are above the last
        one, else through a general merge."""
        support = self.support
        if not positions:
            return
        if not support or positions[0] > support[-1]:
            support.extend(positions)
            return
        n = len(support)
        last = support[-1]
        support[:] = sorted(set(support).union(positions))
        if support[n - 1] != last:
            # An older position joined: the closed near sets are void.
            self._restart()

    def refresh(self, params: MiningParams) -> SeasonView:
        """The view of the current support (cached until it grows)."""
        support = self.support
        view = self.view
        if view is not None and len(view.support) == len(support):
            return view  # supports only grow: same length, same support
        self._fold(params)
        open_set = tuple(support[self._open :])
        best, current = _chain_step(self._best, self._current, open_set, params)
        view = SeasonView(
            support=tuple(support),
            near_sets=(*self._closed, open_set) if open_set else (),
            seasons=current if len(current) > len(best) else best,
        )
        self.view = view
        return view

    def _fold(self, params: MiningParams) -> None:
        """Walk the positions added since the last refresh (all of them on
        a fresh chain), stepping the chain over each near set they close."""
        support = self.support
        max_period = params.max_period
        open_start = self._open
        start = self._folded or 1  # the first position closes no near set
        previous = support[start - 1] if support else 0
        for index in range(start, len(support)):
            position = support[index]
            if position - previous > max_period:
                near_set = tuple(support[open_start:index])
                self._closed.append(near_set)
                self._best, self._current = _chain_step(
                    self._best, self._current, near_set, params
                )
                open_start = index
            previous = position
        self._open = open_start
        self._folded = len(support)


def count_seasons(
    support: SupportLike, params: MiningParams, stop_at: int | None = None
) -> int:
    """``seasons(P)`` without materializing a :class:`SeasonView`.

    Streams the chain construction of :func:`_chain_step` over the near
    sets one at a time -- no view tuples, no chains, just the running
    chain length and the best seen.  With ``stop_at`` the
    walk returns as soon as the current chain reaches that many seasons
    (chains only grow until a ``dist_max`` break, so any prefix reaching
    ``stop_at`` proves ``seasons(P) >= stop_at``) -- the early exit the
    frequency gate of Def. 3.15 needs.

    Equivalent to ``compute_seasons(support, params).n_seasons`` when
    ``stop_at`` is ``None`` (pinned by the regression and property
    tests); with ``stop_at`` the result is only guaranteed on the
    ``>= stop_at`` side of the comparison.
    """
    support = as_positions(support)
    dist_min = params.dist_min
    dist_max = params.dist_max
    min_density = params.min_density
    best = 0
    current = 0
    last_end = 0
    for near_set in iter_near_sets(support, params.max_period):
        start_index = 0
        if current:
            # Trim leading granules that sit closer than dist_min to the
            # end of the last season (the H9 rule).
            start_index = bisect_left(near_set, last_end + dist_min)
            if start_index == len(near_set):
                continue
            if near_set[start_index] - last_end > dist_max:
                # Chain broken by a too-long gap; start fresh from the
                # untrimmed set.
                if current > best:
                    best = current
                current = 0
                start_index = 0
        if len(near_set) - start_index >= min_density:
            current += 1
            last_end = near_set[-1]
            if stop_at is not None and current >= stop_at:
                return current
    return best if best > current else current


def is_frequent_seasonal(support: SupportLike, params: MiningParams) -> bool:
    """Def. 3.15 check: at least ``min_season`` chained seasons.

    Uses the early-exit chain counter: the walk stops at the first
    ``min_season`` chained seasons and allocates no season views.
    """
    return count_seasons(support, params, stop_at=params.min_season) >= params.min_season
