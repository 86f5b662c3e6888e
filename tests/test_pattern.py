"""Unit tests for temporal patterns (paper Def. 3.8)."""

import pytest

from repro import TemporalPattern, Triple
from repro.core.pattern import (
    pattern_from_instances,
    single_event_pattern,
    splice_triples,
)
from repro.events import (
    CONTAINS,
    FOLLOWS,
    OVERLAPS,
    EventInstance,
    RelationConfig,
    relation_between,
)
from repro.exceptions import MiningError

CONFIG = RelationConfig()


def _instances(*specs):
    return [EventInstance(event, start, end) for event, start, end in specs]


class TestTriple:
    def test_describe(self):
        assert Triple(CONTAINS, "C:1", "D:1").describe() == "C:1 >= D:1"

    def test_equality_with_plain_tuple(self):
        # The mining hot path relies on NamedTuple/tuple interchangeability.
        assert Triple(FOLLOWS, "a", "b") == (FOLLOWS, "a", "b")
        assert hash(Triple(FOLLOWS, "a", "b")) == hash((FOLLOWS, "a", "b"))


class TestTemporalPattern:
    def test_sizes(self):
        single = single_event_pattern("C:1")
        assert single.size == 1
        assert single.triples == ()
        pair = TemporalPattern(("A", "B"), (Triple(FOLLOWS, "A", "B"),))
        assert pair.size == 2

    def test_triple_count_validated(self):
        with pytest.raises(MiningError):
            TemporalPattern(("A", "B"), ())
        with pytest.raises(MiningError):
            TemporalPattern(("A",), (Triple(FOLLOWS, "A", "A"),))

    def test_event_group_is_sorted_multiset(self):
        pattern = TemporalPattern(("B", "A"), (Triple(FOLLOWS, "B", "A"),))
        assert pattern.event_group == ("A", "B")

    def test_contains_event(self):
        pattern = TemporalPattern(("A", "B"), (Triple(FOLLOWS, "A", "B"),))
        assert pattern.contains_event("A")
        assert not pattern.contains_event("C")

    def test_describe_joins_triples(self):
        triples = (
            Triple(CONTAINS, "A", "B"),
            Triple(FOLLOWS, "A", "C"),
            Triple(FOLLOWS, "B", "C"),
        )
        pattern = TemporalPattern(("A", "B", "C"), triples)
        assert pattern.describe() == "A >= B; A -> C; B -> C"

    def test_subpattern_positive(self):
        triples = (
            Triple(CONTAINS, "A", "B"),
            Triple(FOLLOWS, "A", "C"),
            Triple(FOLLOWS, "B", "C"),
        )
        big = TemporalPattern(("A", "B", "C"), triples)
        small = TemporalPattern(("A", "C"), (Triple(FOLLOWS, "A", "C"),))
        assert small.is_subpattern_of(big)
        assert big.is_subpattern_of(big)

    def test_subpattern_negative_on_relation_mismatch(self):
        triples = (
            Triple(CONTAINS, "A", "B"),
            Triple(FOLLOWS, "A", "C"),
            Triple(FOLLOWS, "B", "C"),
        )
        big = TemporalPattern(("A", "B", "C"), triples)
        wrong = TemporalPattern(("A", "B"), (Triple(OVERLAPS, "A", "B"),))
        assert not wrong.is_subpattern_of(big)

    def test_subpattern_negative_on_size(self):
        small = TemporalPattern(("A", "B"), (Triple(FOLLOWS, "A", "B"),))
        assert not small.is_subpattern_of(single_event_pattern("A"))


class TestPatternFromInstances:
    def test_paper_fig1_shape(self):
        # Low Temp overlaps High Humidity; both followed by High Influenza.
        instances = _instances(
            ("Temp:Low", 1, 6), ("Hum:High", 4, 10), ("Flu:High", 12, 14)
        )
        pattern = pattern_from_instances(instances, CONFIG)
        assert pattern is not None
        assert pattern.events == ("Temp:Low", "Hum:High", "Flu:High")
        assert pattern.triples == (
            Triple(OVERLAPS, "Temp:Low", "Hum:High"),
            Triple(FOLLOWS, "Temp:Low", "Flu:High"),
            Triple(FOLLOWS, "Hum:High", "Flu:High"),
        )

    def test_orders_instances_chronologically(self):
        instances = _instances(("B:1", 5, 6), ("A:1", 1, 2))
        pattern = pattern_from_instances(instances, CONFIG)
        assert pattern.events == ("A:1", "B:1")
        assert pattern.triples[0] == Triple(FOLLOWS, "A:1", "B:1")

    def test_unrelated_pair_voids_pattern(self):
        config = RelationConfig(min_overlap=4)
        instances = _instances(("A:1", 1, 4), ("B:1", 3, 9))
        assert pattern_from_instances(instances, config) is None


def _spliced(base, new):
    """The pattern of ``base + [new]`` by splicing: the parent's triples
    plus the new instance's relation with each parent instance, or
    ``None`` if one of those pairs is unrelated."""
    ordered = sorted(base, key=EventInstance.sort_key)
    parent = pattern_from_instances(ordered, CONFIG)
    position = sum(inst.sort_key() <= new.sort_key() for inst in ordered)
    partner = []
    for index, other in enumerate(ordered):
        first, second = (other, new) if index < position else (new, other)
        rel = relation_between(first, second, CONFIG)
        if rel is None:
            return None
        partner.append(Triple(rel, first.event, second.event))
    events = parent.events[:position] + (new.event,) + parent.events[position:]
    return events, splice_triples(parent.triples, partner, position, len(events))


class TestIncrementalExtension:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_splice_matches_full_construction_k3(self, position):
        base = _instances(("A:1", 2, 4), ("B:1", 6, 9))
        starts = {0: (1, 1), 1: (5, 5), 2: (11, 12)}[position]
        new = EventInstance("C:1", *starts)
        full = pattern_from_instances(base + [new], CONFIG)
        assert full.events.index("C:1") == position
        assert _spliced(base, new) == (full.events, full.triples)

    def test_splice_matches_full_construction_k4(self):
        base = _instances(("A:1", 1, 3), ("B:1", 5, 7), ("C:1", 9, 12))
        new = EventInstance("D:1", 6, 14)
        full = pattern_from_instances(base + [new], CONFIG)
        if full is None:
            assert _spliced(base, new) is None
        else:
            assert _spliced(base, new) == (full.events, full.triples)

    def test_splice_triples_general_path(self):
        prev = (Triple(FOLLOWS, "A", "B"),)
        partner = [Triple(FOLLOWS, "A", "C"), Triple(FOLLOWS, "B", "C")]
        assert splice_triples(prev, partner, position=2, k=3) == (
            Triple(FOLLOWS, "A", "B"),
            Triple(FOLLOWS, "A", "C"),
            Triple(FOLLOWS, "B", "C"),
        )
