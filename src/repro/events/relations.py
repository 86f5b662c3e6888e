"""Temporal relations between event instances (paper Table III, Property 1).

The paper defines three Allen-style relations between two event instances
``ei = (omega_i, [ts_i, te_i])`` and ``ej = (omega_j, [ts_j, te_j])`` with a
tolerance buffer ``epsilon`` and a minimal overlapping duration ``do``:

* **Follows**  ``ei -> ej``:   ``te_i +- eps <= ts_j``
* **Contains** ``ei >= ej``:   ``ts_i <= ts_j`` and ``te_i +- eps >= te_j``
* **Overlaps** ``ei ~ ej``:    ``ts_i < ts_j`` and ``te_i +- eps < te_j``
  and ``te_i - ts_j >= do +- eps``

Interval arithmetic
-------------------
Instance intervals are *inclusive granule index* pairs, so we convert the
end to the half-open bound ``te + 1`` before comparing.  With that
convention, ``[G1,G2]`` followed by ``[G3,G4]`` is adjacency (a Follows),
and the overlap length of ``[G1,G2]`` and ``[G2,G3]`` is exactly one
granule -- matching how Table IV's sequences read.

Mutual exclusivity
------------------
For ``epsilon = 0`` the three conditions are mutually exclusive exactly as
proved in the paper's appendix.  For ``epsilon > 0`` the tolerance widens
each condition, so we evaluate in the fixed order Contains -> Follows ->
Overlaps; the first match wins, which preserves Property 1 by construction
while keeping the intended tolerance semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.event import EventInstance
from repro.exceptions import ConfigError

FOLLOWS = "Follows"
CONTAINS = "Contains"
OVERLAPS = "Overlaps"

#: The relation set of Def. 3.8, in evaluation order.
RELATIONS = (CONTAINS, FOLLOWS, OVERLAPS)

#: Pretty operators used by the paper (and our reports).
RELATION_SYMBOLS = {FOLLOWS: "->", CONTAINS: ">=", OVERLAPS: "~"}


@dataclass(frozen=True)
class RelationConfig:
    """Tolerance buffer and minimal overlap duration for relation checks.

    ``epsilon`` and ``min_overlap`` (the paper's ``do``) are measured in
    fine granules.  Defaults (0, 1) give the exact Table III semantics with
    at least one shared granule required for an Overlaps.
    """

    epsilon: int = 0
    min_overlap: int = 1

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.min_overlap < 1:
            raise ConfigError(f"min_overlap (do) must be >= 1, got {self.min_overlap}")


DEFAULT_RELATION_CONFIG = RelationConfig()


def order_pair(
    first: EventInstance, second: EventInstance
) -> tuple[EventInstance, EventInstance]:
    """Order two instances chronologically (earlier start first; on ties the
    longer instance first so a Contains reads left-to-right)."""
    if second.sort_key() < first.sort_key():
        return second, first
    return first, second


def relation_of_bounds(
    start_i: int,
    end_i: int,
    start_j: int,
    end_j: int,
    epsilon: int,
    min_overlap: int,
) -> str | None:
    """Relation of an *ordered* pair of inclusive interval bounds.

    The scalar core of Table III, phrased directly on the inclusive
    ``[start, end]`` granule bounds (the half-open ``+1`` of the interval
    arithmetic is folded into the comparisons).  The step-2.2 kernels
    of :mod:`repro.core.array_kernel` inline exactly these comparisons on
    their instance columns; this function is the single place their
    semantics are written down (and property-tested against
    :func:`relation_between`).
    """
    if start_i <= start_j and end_j <= end_i + epsilon:
        return CONTAINS
    if start_j >= end_i + 1 - epsilon:
        return FOLLOWS
    # Overlap length is (end_i + 1) - start_j, > 0 here since the
    # Follows test above failed.
    if (
        start_i < start_j
        and end_i + epsilon < end_j
        and end_i + 1 - start_j >= min_overlap - epsilon
    ):
        return OVERLAPS
    return None


def relation_between(
    earlier: EventInstance,
    later: EventInstance,
    config: RelationConfig = DEFAULT_RELATION_CONFIG,
) -> str | None:
    """Relation of an *ordered* instance pair, or ``None`` if none holds.

    ``earlier`` must not start after ``later`` (callers normally go through
    :func:`order_pair`).  Returns one of :data:`FOLLOWS`,
    :data:`CONTAINS`, :data:`OVERLAPS`, or ``None`` when the pair overlaps
    for less than ``do`` without containment.
    """
    return relation_of_bounds(
        earlier.start,
        earlier.end,
        later.start,
        later.end,
        config.epsilon,
        config.min_overlap,
    )


def relation_of_pair(
    a: EventInstance,
    b: EventInstance,
    config: RelationConfig = DEFAULT_RELATION_CONFIG,
) -> tuple[str, EventInstance, EventInstance] | None:
    """Order a pair chronologically and compute its relation triple.

    Returns ``(relation, earlier, later)`` or ``None``.  This is the
    building block for relation triples ``(r_ij, E_i, E_j)`` of Def. 3.8.
    """
    earlier, later = order_pair(a, b)
    relation = relation_between(earlier, later, config)
    if relation is None:
        return None
    return relation, earlier, later


def format_triple(relation: str, earlier_event: str, later_event: str) -> str:
    """Render a relation triple in the paper's operator notation."""
    return f"{earlier_event} {RELATION_SYMBOLS[relation]} {later_event}"
