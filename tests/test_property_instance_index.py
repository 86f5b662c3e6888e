"""Property tests: the step-2.2 kernels equal naive enumeration.

On random instance sets and random ``epsilon`` / ``min_overlap``
configurations (small coordinate ranges, so exact epsilon-boundary pairs
are generated constantly), the pair kernel
(:func:`~repro.core.array_kernel.array_collect_pair_patterns`) must
reproduce the naive ``product`` / ``combinations`` +
``relation_of_pair`` enumeration exactly: same patterns (relation +
orientation), same supports, same deduplicated assignments.  A second
property runs whole random mining jobs against the brute-force
:class:`~repro.baselines.naive.NaiveSTPM` oracle, covering the extension
kernel's verdict rows and Iterative Check.  A third runs dense jobs
(several instances per column) at ``max_pattern_length`` 3, where the
extension kernel trims the walks of separated assignments, and at 4,
where the same k = 3 level keeps every assignment: the size-3 output
must agree in order and supports.
"""

import dataclasses
import random
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.baselines import NaiveSTPM
from repro.core.array_kernel import array_collect_pair_patterns
from repro.core.hlh import HLH1
from repro.core.instance_index import InstanceColumn, decode_assignment
from repro.core.pattern import TemporalPattern, Triple
from repro.core.prune import PruningConfig
from repro.core.results import results_equivalent
from repro.events.event import EventInstance
from repro.events.relations import (
    RelationConfig,
    relation_between,
    relation_of_bounds,
    relation_of_pair,
)
from repro.obs.counters import capture


@st.composite
def instance_runs(draw, event: str, horizon: int = 14):
    """Disjoint ascending runs of one event inside one granule."""
    instances = []
    position = draw(st.integers(1, 4))
    while position <= horizon:
        end = draw(st.integers(position, min(position + 3, horizon)))
        instances.append(EventInstance(event, position, end))
        position = end + 1 + draw(st.integers(1, 4))
    return instances


relation_configs = st.builds(
    RelationConfig, epsilon=st.integers(0, 3), min_overlap=st.integers(1, 3)
)


#: Instance lists per event and granule, the input both sides read.
Instances = dict[str, dict[int, list[EventInstance]]]


def _hlh1_with(instances: Instances) -> HLH1:
    hlh1 = HLH1()
    for event, by_granule in instances.items():
        hlh1.add_event(
            event,
            sorted(by_granule),
            {
                granule: InstanceColumn.from_instances(runs)
                for granule, runs in by_granule.items()
            },
        )
    return hlh1


def _naive_pairs(instances: Instances, event_a, event_b, granules, config):
    """The oracle: classify the full instance product of every granule.

    Returns ``(pattern -> support list, pattern -> granule -> sorted
    instance pairs)``, each pair ordered ``(earlier, later)``.
    """
    support: dict[TemporalPattern, list[int]] = {}
    assignments: dict[TemporalPattern, dict[int, list]] = {}
    for granule in granules:
        instances_a = instances[event_a].get(granule, [])
        if event_a == event_b:
            pairs = combinations(instances_a, 2)
        else:
            pairs = product(instances_a, instances[event_b].get(granule, []))
        for a, b in pairs:
            located = relation_of_pair(a, b, config)
            if located is None:
                continue
            rel, earlier, later = located
            pattern = TemporalPattern(
                (earlier.event, later.event),
                (Triple(rel, earlier.event, later.event),),
            )
            granules_of = support.setdefault(pattern, [])
            if not granules_of or granules_of[-1] != granule:
                granules_of.append(granule)
            assignments.setdefault(pattern, {}).setdefault(granule, []).append(
                (earlier, later)
            )
    return support, assignments


def _assert_kernel_matches_naive(instances: Instances, event_a, event_b, granules, config):
    hlh1 = _hlh1_with(instances)
    kernel_support, kernel_assignments = {}, {}
    array_collect_pair_patterns(
        hlh1, event_a, event_b, granules, config, kernel_support, kernel_assignments
    )
    naive_support, naive_assignments = _naive_pairs(
        instances, event_a, event_b, granules, config
    )
    assert kernel_support == naive_support
    assert set(kernel_assignments) == set(naive_assignments)
    for pattern, by_granule in kernel_assignments.items():
        naive_by_granule = naive_assignments[pattern]
        assert set(by_granule) == set(naive_by_granule)
        for granule, encoded_list in by_granule.items():
            decoded = [
                decode_assignment(hlh1, pattern.events, granule, encoded)
                for encoded in encoded_list
            ]
            # Same related pairs (orientation included), same dedup.
            assert sorted(decoded) == sorted(naive_by_granule[granule])
            assert len(set(decoded)) == len(decoded)


@given(
    instance_runs("A:1"),
    instance_runs("B:1"),
    instance_runs("A:1"),
    instance_runs("B:1"),
    relation_configs,
)
@settings(max_examples=200, deadline=None)
def test_pair_join_equals_naive_product(a1, b1, a2, b2, config):
    instances = {"A:1": {1: a1, 2: a2}, "B:1": {1: b1, 2: b2}}
    _assert_kernel_matches_naive(instances, "A:1", "B:1", [1, 2], config)


@given(instance_runs("A:1"), instance_runs("A:1"), relation_configs)
@settings(max_examples=150, deadline=None)
def test_self_join_equals_naive_combinations(a1, a2, config):
    _assert_kernel_matches_naive({"A:1": {1: a1, 2: a2}}, "A:1", "A:1", [1, 2], config)


def _long_column(event: str, seed: int, n_instances: int = 80) -> list[EventInstance]:
    """``n_instances`` disjoint ascending runs, drawn like :func:`instance_runs`."""
    rng = random.Random(seed)
    instances = []
    position = rng.randint(1, 4)
    while len(instances) < n_instances:
        end = position + rng.randint(0, 3)
        instances.append(EventInstance(event, position, end))
        position = end + 1 + rng.randint(1, 4)
    return instances


def test_joins_on_columns_longer_than_64_instances():
    """80 instances per column, over four times the longest column of any
    shipped workload (18): bulk zones dominate, and the near windows
    still hold every relation."""
    instances = {
        "A:1": {1: _long_column("A:1", 1), 2: _long_column("A:1", 2)},
        "B:1": {1: _long_column("B:1", 3), 2: _long_column("B:1", 4)},
    }
    hlh1 = _hlh1_with(instances)
    assert all(
        len(hlh1.column_of(event, granule)) > 64
        for event in ("A:1", "B:1")
        for granule in (1, 2)
    )
    for config in (RelationConfig(), RelationConfig(epsilon=2, min_overlap=3)):
        _assert_kernel_matches_naive(instances, "A:1", "B:1", [1, 2], config)
        _assert_kernel_matches_naive(instances, "A:1", "A:1", [1, 2], config)


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 3),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_relation_of_bounds_matches_relation_between(
    start_i, dur_i, start_j, dur_j, epsilon, min_overlap
):
    """The scalar bounds classifier (inlined by the kernels) is exactly
    relation_between on the ordered pair -- boundary values included."""
    a = EventInstance("A:1", start_i, start_i + dur_i - 1)
    b = EventInstance("B:1", start_j, start_j + dur_j - 1)
    earlier, later = (a, b) if a.sort_key() <= b.sort_key() else (b, a)
    config = RelationConfig(epsilon=epsilon, min_overlap=min_overlap)
    assert relation_of_bounds(
        earlier.start, earlier.end, later.start, later.end, epsilon, min_overlap
    ) == relation_between(earlier, later, config)


@st.composite
def mining_inputs(draw):
    n_series = draw(st.integers(2, 3))
    length = draw(st.integers(12, 30))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    params = MiningParams(
        max_period=draw(st.integers(1, 3)),
        min_density=1,
        dist_interval=(draw(st.integers(0, 2)), draw(st.integers(3, 10))),
        min_season=1,
        relation=draw(relation_configs),
        max_pattern_length=draw(st.sampled_from([3, 4])),
    )
    dseq = build_sequence_database(
        SymbolicDatabase.from_rows(rows), draw(st.sampled_from([2, 3]))
    )
    return dseq, params


@given(mining_inputs())
@settings(max_examples=40, deadline=None)
def test_whole_jobs_agree_with_naive_oracle(inputs):
    """End-to-end parity with the brute-force miner under random
    epsilon/min_overlap configs (exercises the extension kernel's verdict
    rows + Iterative Check)."""
    dseq, params = inputs
    assert results_equivalent(
        ESTPM(dseq, params).mine(), NaiveSTPM(dseq, params).mine()
    )


def _dense_rows(rng: random.Random, n_series: int, length: int) -> dict[str, str]:
    """Binary rows of alternating 1-3 instant runs: at a ratio of 8 or
    more, every (event, granule) column holds several instances."""
    rows = {}
    for index in range(n_series):
        symbols = ""
        while len(symbols) < length:
            symbols += rng.choice("01") * rng.randint(1, 3)
        rows[f"S{index}"] = symbols[:length]
    return rows


@st.composite
def dense_jobs(draw):
    ratio = draw(st.sampled_from([8, 12]))
    rows = _dense_rows(
        draw(st.randoms(use_true_random=False)),
        draw(st.integers(2, 3)),
        ratio * draw(st.integers(4, 7)),
    )
    params = MiningParams(
        max_period=draw(st.integers(1, 3)),
        min_density=1,
        dist_interval=(draw(st.integers(0, 2)), draw(st.integers(3, 10))),
        min_season=draw(st.integers(1, 2)),
        relation=draw(relation_configs),
        max_pattern_length=3,
    )
    pruning = PruningConfig(apriori=draw(st.booleans()), transitivity=True)
    return build_sequence_database(SymbolicDatabase.from_rows(rows), ratio), params, pruning


def _size_3(dseq, params, pruning):
    """The frequent size-3 patterns in emission order, and the k = 3
    candidate count."""
    result = ESTPM(dseq, params, pruning).mine()
    return (
        [(sp.pattern, sp.support) for sp in result.by_size(3)],
        result.stats.n_candidate_patterns.get(3, 0),
    )


@given(dense_jobs())
@settings(max_examples=25, deadline=None)
def test_last_level_keeps_emission_order_and_supports(job):
    """At the last level the extension kernel trims the windows of
    separated assignments to what they can still add; at
    max_pattern_length 4 the same k = 3 level keeps every assignment and
    trims nothing.  Both emit the same size-3 patterns, in the same order,
    with the same supports."""
    dseq, params, pruning = job
    deeper = dataclasses.replace(params, max_pattern_length=4)
    assert _size_3(dseq, params, pruning) == _size_3(dseq, deeper, pruning)


def test_dense_last_level_skips_assignments():
    """A fixed dense job whose last level skips whole assignments, so
    the suite always runs the skip."""
    dseq = build_sequence_database(
        SymbolicDatabase.from_rows(_dense_rows(random.Random(5), 2, 96)), 12
    )
    params = MiningParams(
        max_period=2,
        min_density=1,
        dist_interval=(0, 6),
        min_season=2,
        relation=RelationConfig(epsilon=0, min_overlap=1),
        max_pattern_length=3,
    )
    with capture() as registry:
        size_3, _ = _size_3(dseq, params, PruningConfig.all())
    assert size_3
    assert registry.counters.get("kernel.extend.assignments_skipped", 0) > 0
