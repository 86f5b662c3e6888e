"""Temporal patterns (paper Def. 3.8).

A k-event temporal pattern is the list of the ``k(k-1)/2`` relation triples
``(r_ij, E_i, E_j)`` between its events, where the events ``E_1..E_k`` are
taken in the chronological order of the instances that realize the pattern.
Pattern identity is the pair ``(events, triples)``; two occurrences whose
instances order differently (and therefore relate differently) are distinct
patterns, exactly as Def. 3.8 prescribes.

Self-pairs are allowed: the search-space analysis counts ``N2 = P(n,2) + n``
because "the same event can form a pair of events with itself" -- realized
by two *distinct* instances of that event.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from repro.events.event import EventInstance
from repro.events.relations import (
    RELATION_SYMBOLS,
    RelationConfig,
    relation_between,
)
from repro.exceptions import MiningError


class Triple(NamedTuple):
    """One relation triple ``(r, E_earlier, E_later)`` of a pattern."""

    relation: str
    first: str
    second: str

    def describe(self) -> str:
        """Operator rendering, e.g. ``C:1 >= D:1``."""
        return f"{self.first} {RELATION_SYMBOLS[self.relation]} {self.second}"


@dataclass(frozen=True, slots=True)
class TemporalPattern:
    """An n-event temporal pattern: events in chronological order + triples.

    ``events`` is the chronologically ordered event tuple ``(E_1..E_k)``;
    ``triples`` holds the relation triples for every index pair ``i < j`` in
    ``combinations`` order.  Both tuples together are the hashable identity.

    The mining kernels flyweight-intern patterns (one object per distinct
    identity per process, see
    :func:`repro.core.instance_index.intern_pattern`); ``slots`` keeps
    the per-object footprint to the two tuples.
    """

    events: tuple[str, ...]
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        k = len(self.events)
        if len(self.triples) != k * (k - 1) // 2:
            raise MiningError(
                f"a {k}-event pattern needs {k * (k - 1) // 2} triples, "
                f"got {len(self.triples)}"
            )

    @property
    def size(self) -> int:
        """Number of events k (the pattern is a k-event pattern)."""
        return len(self.events)

    @property
    def event_group(self) -> tuple[str, ...]:
        """The k-event group as a sorted multiset key (HLHk's ``EHk`` key)."""
        return tuple(sorted(self.events))

    def contains_event(self, event: str) -> bool:
        """The paper's ``E in P`` membership test."""
        return event in self.events

    def is_subpattern_of(self, other: "TemporalPattern") -> bool:
        """``self ⊆ other``: an index-ordered embedding of self's events into
        other's events under which every triple of self appears in other."""
        if self.size > other.size:
            return False
        for indices in combinations(range(other.size), self.size):
            if tuple(other.events[i] for i in indices) != self.events:
                continue
            ok = True
            for (a, b), triple in zip(combinations(range(self.size), 2), self.triples):
                pair_index = _pair_index(other.size, indices[a], indices[b])
                if other.triples[pair_index].relation != triple.relation:
                    ok = False
                    break
            if ok:
                return True
        return False

    def describe(self) -> str:
        """Human-readable rendering; single triple for 2-event patterns,
        semicolon-joined triples otherwise."""
        return "; ".join(triple.describe() for triple in self.triples) or self.events[0]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


def _pair_index(k: int, i: int, j: int) -> int:
    """Index of pair (i, j), i<j, in ``combinations(range(k), 2)`` order."""
    # Pairs before row i: sum_{r<i} (k-1-r); offset inside row: j - i - 1.
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


def pattern_from_instances(
    instances: tuple[EventInstance, ...] | list[EventInstance],
    relation: RelationConfig,
) -> TemporalPattern | None:
    """Build the pattern realized by a set of instances, or ``None``.

    Instances are sorted chronologically; all pairwise relations must hold
    (a single unrelated pair -- e.g. a sub-``do`` overlap -- voids the
    pattern, per Def. 3.8).
    """
    ordered = sorted(instances, key=EventInstance.sort_key)
    triples: list[Triple] = []
    for i, j in combinations(range(len(ordered)), 2):
        rel = relation_between(ordered[i], ordered[j], relation)
        if rel is None:
            return None
        triples.append(Triple(rel, ordered[i].event, ordered[j].event))
    return TemporalPattern(tuple(inst.event for inst in ordered), tuple(triples))


def single_event_pattern(event: str) -> TemporalPattern:
    """The degenerate 1-event pattern (a frequent seasonal single event)."""
    return TemporalPattern((event,), ())


def splice_triples(
    prev_triples: tuple[Triple, ...],
    partner_triples: list[Triple],
    position: int,
    k: int,
) -> tuple[Triple, ...]:
    """Triple list of a k-event pattern built by inserting one event.

    ``prev_triples`` are the parent's triples (pairs not involving the new
    event); ``partner_triples[i]`` relates the parent's i-th instance with
    the new one; ``position`` is the new instance's chronological index.
    The k == 3 case (the bulk of all mining work) is unrolled.
    """
    if k == 3:
        t0, t1 = partner_triples
        previous = prev_triples[0]
        if position == 0:
            return (t0, t1, previous)
        if position == 1:
            return (t0, previous, t1)
        return (previous, t0, t1)
    triples: list[Triple] = []
    old_pair = 0
    for i in range(k):
        for j in range(i + 1, k):
            if i == position:
                triples.append(partner_triples[j - 1])
            elif j == position:
                triples.append(partner_triples[i])
            else:
                triples.append(prev_triples[old_pair])
                old_pair += 1
    return tuple(triples)


def extend_pattern(
    prev_events: tuple[str, ...],
    prev_triples: tuple[Triple, ...],
    assignment: tuple[EventInstance, ...],
    instance: EventInstance,
    relation: RelationConfig,
) -> tuple[tuple[str, ...], tuple[Triple, ...], tuple[EventInstance, ...], tuple[Triple, ...]] | None:
    """Incrementally extend a realized pattern with one new instance.

    ``assignment`` must be the chronologically sorted instances realizing
    the parent pattern ``(prev_events, prev_triples)``.  Only the k-1 new
    pairwise relations are computed; the parent's triples are spliced in
    unchanged (inserting an instance cannot reorder or re-relate the
    existing pairs).  Returns ``(events, triples, new_assignment,
    new_triples)`` -- the last element holds just the triples involving the
    new instance, for the Iterative Check -- or ``None`` if any new pair
    has no relation.
    """
    key = instance.sort_key()
    position = 0
    while position < len(assignment) and assignment[position].sort_key() <= key:
        position += 1
    new_assignment = assignment[:position] + (instance,) + assignment[position:]
    k = len(new_assignment)
    events = prev_events[:position] + (instance.event,) + prev_events[position:]
    partner_triples: list[Triple | None] = [None] * k
    for index, other in enumerate(new_assignment):
        if index == position:
            continue
        if index < position:
            rel = relation_between(other, instance, relation)
            if rel is None:
                return None
            partner_triples[index] = Triple(rel, other.event, instance.event)
        else:
            rel = relation_between(instance, other, relation)
            if rel is None:
                return None
            partner_triples[index] = Triple(rel, instance.event, other.event)
    triples: list[Triple] = []
    old_pair = 0
    for i in range(k):
        for j in range(i + 1, k):
            if i == position:
                triples.append(partner_triples[j])  # type: ignore[arg-type]
            elif j == position:
                triples.append(partner_triples[i])  # type: ignore[arg-type]
            else:
                triples.append(prev_triples[old_pair])
                old_pair += 1
    new_triples = tuple(t for t in partner_triples if t is not None)
    return events, tuple(triples), new_assignment, new_triples
