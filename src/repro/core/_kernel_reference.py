"""Pre-index reference kernels for step 2.2 (parity baseline).

These are the object-at-a-time pair-enumeration and group-extension
loops the miner shipped before the columnar instance index: every
``(a, b)`` instance product goes through
:func:`~repro.events.relations.relation_of_pair` /
:func:`~repro.core.pattern.oriented_triple`, every accepted pair builds
a fresh :class:`~repro.core.pattern.TemporalPattern`, and assignments
are stored as :class:`~repro.events.event.EventInstance` tuples.

They are kept verbatim as the semantics baseline: the parity tests run
whole mining jobs under ``kernel="reference"`` and assert
``results_equivalent`` against the sweep-join kernels, and the EXT5
benchmark measures the sweep kernels' speedup over these loops.  A job
runs entirely on one kernel (``ESTPM(kernel=...)``); the two kernels'
``GH_k`` encodings (instance tuples here, column-index tuples in the
sweep path) are never mixed.
"""

from __future__ import annotations

from itertools import combinations, product

from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.pattern import (
    TemporalPattern,
    Triple,
    oriented_triple,
    splice_triples,
)
from repro.events.event import EventInstance
from repro.events.relations import relation_of_pair


def reference_collect_pair_patterns(
    hlh1: HLH1,
    event_a: str,
    event_b: str,
    granules,
    relation,
    pattern_support: dict[TemporalPattern, list[int]],
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]],
) -> None:
    """Enumerate the related instance pairs of one event pair per granule.

    The pre-index inner loop of step 2.2 (k = 2): a full instance
    product with one ``relation_of_pair`` call and one fresh pattern
    object per accepted pair.
    """
    for granule in granules:
        instances_a = hlh1.instances_of(event_a, granule)
        if event_a == event_b:
            pairs = combinations(instances_a, 2)
        else:
            pairs = product(instances_a, hlh1.instances_of(event_b, granule))
        for a, b in pairs:
            located = relation_of_pair(a, b, relation)
            if located is None:
                continue
            rel, earlier, later = located
            pattern = TemporalPattern(
                (earlier.event, later.event),
                (Triple(rel, earlier.event, later.event),),
            )
            support_list = pattern_support.setdefault(pattern, [])
            if not support_list or support_list[-1] != granule:
                support_list.append(granule)
            pattern_assignments.setdefault(pattern, {}).setdefault(
                granule, []
            ).append((earlier, later))


def reference_extend_group_patterns(
    hlh1: HLH1,
    previous: HLHk,
    entry_prev,
    event: str,
    candidate_triples,
    params,
    check_candidates: bool,
    verdict_store,
    parent_patterns=None,
    granule_filter=None,
) -> tuple[
    dict[TemporalPattern, list[int]],
    dict[TemporalPattern, dict[int, list[Assignment]]],
]:
    """Extend every candidate pattern of one parent group with ``event``.

    The pre-index Iterative Check loop (Sec. IV-D 4.2.2), relating
    instance objects pair by pair with a value-keyed per-granule cache.
    ``verdict_store`` is accepted for the shared kernel signature and
    ignored: this kernel keeps its cache per call.
    """
    relation = params.relation
    if parent_patterns is None:
        parent_patterns = entry_prev.patterns
    accumulator: dict[tuple, dict[int, set[Assignment]]] = {}
    pair_cache: dict[int, dict[tuple[EventInstance, EventInstance], tuple | None]] = {}
    event_support = hlh1.support_of(event)
    for pattern_prev in parent_patterns:
        prev_events = pattern_prev.events
        prev_triples = pattern_prev.triples
        k = len(prev_events) + 1
        common = previous.support_of(pattern_prev) & event_support
        if granule_filter is not None:
            common = common & granule_filter
        for granule in common:
            new_instances = hlh1.instances_of(event, granule)
            cache = pair_cache.setdefault(granule, {})
            for assignment in previous.assignments_of(pattern_prev, granule):
                for instance in new_instances:
                    if instance in assignment:
                        continue
                    position = 0
                    partner: list[Triple] = []
                    valid = True
                    for existing in assignment:
                        pair = (existing, instance)
                        info = cache.get(pair, False)
                        if info is False:
                            info = oriented_triple(existing, instance, relation)
                            cache[pair] = info
                        if info is None:
                            valid = False
                            break
                        existing_first, triple = info
                        if existing_first:
                            position += 1
                        if check_candidates and triple not in candidate_triples:
                            valid = False
                            break
                        partner.append(triple)
                    if not valid:
                        continue
                    events = (
                        prev_events[:position]
                        + (instance.event,)
                        + prev_events[position:]
                    )
                    triples = splice_triples(prev_triples, partner, position, k)
                    ordered = (
                        assignment[:position]
                        + (instance,)
                        + assignment[position:]
                    )
                    per_granule = accumulator.setdefault((events, triples), {})
                    per_granule.setdefault(granule, set()).add(ordered)
    pattern_support: dict[TemporalPattern, list[int]] = {}
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]] = {}
    for (events, triples), per_granule in accumulator.items():
        pattern = TemporalPattern(events, triples)
        pattern_support[pattern] = sorted(per_granule)
        pattern_assignments[pattern] = {
            granule: sorted(assignments)
            for granule, assignments in per_granule.items()
        }
    return pattern_support, pattern_assignments
