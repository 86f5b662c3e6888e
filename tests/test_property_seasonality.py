"""Property-based tests for the seasonality machinery (Defs. 3.13-3.15)."""

from itertools import compress, cycle, product

from dseq_oracle import support_dsyb
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import MiningParams, build_sequence_database, compute_seasons, max_season
from repro.core.seasonality import (
    SeasonChain,
    count_seasons,
    is_season_candidate,
)
from repro.core.supportset import SupportSet
from repro.transform.sequence_db import _NUMPY_MIN_SYMBOLS

supports = st.lists(
    st.integers(1, 120), min_size=0, max_size=40, unique=True
).map(sorted)

params_strategy = st.builds(
    MiningParams,
    max_period=st.integers(1, 6),
    min_density=st.integers(1, 4),
    dist_interval=st.tuples(st.integers(0, 5), st.integers(5, 30)),
    min_season=st.integers(1, 5),
)


def split_near_support_sets(support, max_period) -> list[list[int]]:
    """The maximal near support sets of S (Def. 3.13), as a plain loop:
    a new set starts wherever the step from the previous granule
    exceeds maxPeriod."""
    sets: list[list[int]] = []
    for position in support:
        if not sets or position - sets[-1][-1] > max_period:
            sets.append([])
        sets[-1].append(position)
    return sets


@given(supports, st.integers(1, 6))
def test_near_sets_partition_the_support(support, max_period):
    sets = split_near_support_sets(support, max_period)
    flattened = [g for near in sets for g in near]
    assert flattened == support


@given(supports, st.integers(1, 6))
def test_near_sets_are_maximal(support, max_period):
    sets = split_near_support_sets(support, max_period)
    for near in sets:
        for a, b in zip(near, near[1:]):
            assert b - a <= max_period
    for left, right in zip(sets, sets[1:]):
        assert right[0] - left[-1] > max_period


@st.composite
def level_split_cases(draw):
    """A maxPeriod and supports of one to three events whose steps are
    often exactly maxPeriod or maxPeriod + 1, over a horizon short
    enough for the pure-Python builder or long enough for the numpy one."""
    max_period = draw(st.integers(1, 6))
    n_granules = draw(
        st.one_of(
            st.integers(20, 60),
            st.integers(_NUMPY_MIN_SYMBOLS, _NUMPY_MIN_SYMBOLS + 60),
        )
    )
    step = st.one_of(
        st.sampled_from([max_period, max_period + 1]), st.integers(1, 3 * max_period)
    )
    level = {}
    for index in range(draw(st.integers(1, 3))):
        position = draw(st.integers(1, n_granules))
        positions = [position]
        for gap in draw(st.lists(step, max_size=30)):
            position += gap
            if position > n_granules:
                break
            positions.append(position)
        level[f"S{index}"] = positions
    return level, n_granules, max_period


@given(case=level_split_cases())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_level_split_matches_the_oracle(compute_backend, case):
    """``near_support_sets`` splits a whole level (fine, and folded by 2)
    exactly as the plain loop splits each of its supports."""
    level, n_granules, max_period = case
    fine = build_sequence_database(support_dsyb(level, n_granules), 1)
    for database in (fine, fine.coarsen(2)):
        by_event = database.event_support()
        events = sorted(by_event)
        expected = {
            event: tuple(
                tuple(near) for near in split_near_support_sets(by_event[event], max_period)
            )
            for event in events
        }
        assert database.near_support_sets(max_period, events) == expected
        some = events[::2]
        assert database.near_support_sets(max_period, some) == {
            event: expected[event] for event in some
        }


@given(supports, params_strategy)
def test_season_invariants(support, params):
    view = compute_seasons(support, params)
    support_set = set(support)
    seen: set[int] = set()
    for season in view.seasons:
        assert len(season) >= params.min_density
        assert set(season) <= support_set
        assert not (set(season) & seen)  # seasons are disjoint
        seen.update(season)
        for a, b in zip(season, season[1:]):
            assert b - a <= params.max_period
    for distance in view.distances():
        assert params.dist_min <= distance <= params.dist_max


@given(supports, params_strategy)
def test_max_season_upper_bounds_seasons(support, params):
    view = compute_seasons(support, params)
    assert view.n_seasons <= max_season(len(support), params.min_density) + 1e-12


@given(supports, supports, params_strategy)
@settings(max_examples=200)
def test_max_season_anti_monotone_under_subset(support_a, support_b, params):
    # Lemma 1: a subset support has at most the superset's maxSeason.
    union = sorted(set(support_a) | set(support_b))
    assert max_season(len(support_a), params.min_density) <= max_season(
        len(union), params.min_density
    )


@given(supports, params_strategy)
def test_adding_occurrences_never_lowers_max_season(support, params):
    extended = sorted(set(support) | {121, 125})
    assert max_season(len(extended), params.min_density) >= max_season(
        len(support), params.min_density
    )


@given(supports, params_strategy)
def test_chain_counter_equals_view(support, params):
    from repro.core.seasonality import count_seasons, is_frequent_seasonal

    view = compute_seasons(support, params)
    assert count_seasons(support, params) == view.n_seasons
    assert is_frequent_seasonal(support, params) == (
        view.n_seasons >= params.min_season
    )


@given(supports, params_strategy, st.integers(1, 6))
def test_chain_counter_early_exit_is_sound(support, params, stop_at):
    from repro.core.seasonality import count_seasons

    exact = compute_seasons(support, params).n_seasons
    stopped = count_seasons(support, params, stop_at=stop_at)
    assert (stopped >= stop_at) == (exact >= stop_at)


# -- SeasonChain: the streaming miner's append-only season state ----------

#: H9 trimming (the paper's Sec. IV-B example).
_H9 = (
    [1, 3, 4, 5, 6, 9, 10, 11, 13],
    MiningParams(max_period=2, min_density=3, dist_interval=(4, 10), min_season=2),
)
#: A dist_max break between two equally long chains: the first one wins.
_TIED_CHAINS = (
    [1, 2, 5, 6, 20, 21, 24, 25],
    MiningParams(max_period=1, min_density=2, dist_interval=(2, 5), min_season=2),
)


def _assert_same_view(view, expected):
    assert view.support == expected.support
    assert view.near_sets == expected.near_sets
    assert view.seasons == expected.seasons


@given(supports, params_strategy, st.lists(st.integers(1, 6), min_size=1, max_size=40))
@example(*_H9, [2, 1, 3])
@example(*_TIED_CHAINS, [3, 1, 4])
@settings(max_examples=200)
def test_season_chain_matches_compute_seasons_after_every_chunk(support, params, sizes):
    chain = SeasonChain()
    _assert_same_view(chain.refresh(params), compute_seasons([], params))
    start = 0
    for size in cycle(sizes):
        if start >= len(support):
            break
        chain.extend(support[start : start + size])
        start += size
        assert chain.support == support[:start]
        _assert_same_view(chain.refresh(params), compute_seasons(support[:start], params))


@given(supports, params_strategy, st.data())
@example(*_TIED_CHAINS, None)
def test_season_chain_older_position_takes_the_full_recompute(support, params, data):
    assume(len(support) >= 2)
    if data is None:  # the explicit example: re-insert the first chain's end
        older, tail = 6, [30]
    else:
        older = data.draw(st.sampled_from(support[:-1]))
        tail = data.draw(
            st.lists(st.integers(support[-1] + 1, 160), max_size=4, unique=True).map(sorted)
        )
    chain = SeasonChain()
    chain.extend([position for position in support if position != older])
    chain.refresh(params)
    assert not chain.fresh
    chain.extend(sorted([older, *tail]))
    assert chain.fresh, "an older position must void the incremental walk"
    merged = sorted({*support, *tail})
    assert chain.support == merged
    _assert_same_view(chain.refresh(params), compute_seasons(merged, params))
    # Appends after the fallback extend the recomputed walk again.
    more = [merged[-1] + 1, merged[-1] + params.max_period + 2]
    chain.extend(more)
    assert not chain.fresh
    _assert_same_view(chain.refresh(params), compute_seasons(merged + more, params))


# -- compute_seasons against a plain-loop oracle --------------------------


def chain_seasons(support, params) -> tuple[tuple[int, ...], ...]:
    """The seasons of S, as a plain loop over lists: walk the near sets
    left to right, keeping every season chain (trim leading granules
    closer than distMin to the chain's last season, the H9 rule; break
    the chain at a distance above distMax), and return the first longest."""
    chains: list[list[list[int]]] = []
    current: list[list[int]] = []
    for near_set in split_near_support_sets(support, params.max_period):
        candidate = near_set
        if current:
            last_end = current[-1][-1]
            start = 0
            while start < len(candidate) and candidate[start] - last_end < params.dist_min:
                start += 1
            candidate = candidate[start:]
            if not candidate:
                continue
            if candidate[0] - last_end > params.dist_max:
                chains.append(current)
                current = []
                candidate = near_set
        if len(candidate) >= params.min_density:
            current.append(candidate)
    if current:
        chains.append(current)
    best = max(chains, key=len) if chains else []
    return tuple(tuple(season) for season in best)


@st.composite
def chained_supports(draw):
    """Supports built near set by near set, with gaps up to past distMax
    (chain breaks) and, where distMin > maxPeriod + 1, gaps below distMin
    (H9 trims)."""
    params = draw(
        st.builds(
            MiningParams,
            max_period=st.integers(1, 3),
            min_density=st.integers(1, 3),
            dist_interval=st.integers(0, 12).flatmap(
                lambda low: st.tuples(st.just(low), st.integers(low, 24))
            ),
            min_season=st.just(1),
        )
    )
    support: list[int] = []
    position = 0
    for _ in range(draw(st.integers(0, 8))):
        position += draw(st.integers(params.max_period + 1, params.dist_max + 4))
        support.append(position)
        for _ in range(draw(st.integers(0, 4))):
            position += draw(st.integers(1, params.max_period))
            support.append(position)
    return support, params


@given(chained_supports())
@example(_H9)
@example(_TIED_CHAINS)
@settings(max_examples=400)
def test_compute_seasons_matches_the_chain_oracle(case):
    support, params = case
    view = compute_seasons(support, params)
    assert view.seasons == chain_seasons(support, params)
    assert view.near_sets == tuple(
        tuple(near) for near in split_near_support_sets(support, params.max_period)
    )


# -- The near-set bound B, the reference the season-chain bound tightens --


def near_set_bound(support, params) -> int:
    """B(S): the sum of floor(|N| / minDensity) over the near sets N of S."""
    return sum(
        len(near) // params.min_density
        for near in split_near_support_sets(support, params.max_period)
    )


@st.composite
def support_and_subset(draw):
    support = draw(supports)
    keep = draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)))
    return support, [position for position, kept in zip(support, keep) if kept]


@given(support_and_subset(), params_strategy)
@example((_H9[0], _H9[0][2:]), _H9[1])
@settings(max_examples=300)
def test_near_set_bound_caps_the_seasons_of_every_subset(case, params):
    # Lemmas 1-2 with B: a subset's seasons never exceed the superset's B.
    support, subset = case
    assert count_seasons(subset, params) <= near_set_bound(support, params)
    assert near_set_bound(subset, params) <= near_set_bound(support, params)


@given(supports, supports, params_strategy)
@settings(max_examples=200)
def test_near_set_bound_never_falls_under_appends_or_merges(support, more, params):
    bound = near_set_bound(support, params)
    merged = sorted(set(support) | set(more))
    assert near_set_bound(merged, params) >= bound
    top = support[-1] if support else 0
    appended = support + [top + offset for offset in sorted(set(more))]
    assert near_set_bound(appended, params) >= bound


@given(supports, params_strategy)
def test_near_set_bound_tightens_max_season(support, params):
    bound = near_set_bound(support, params)
    assert bound <= max_season(len(support), params.min_density)
    if params.min_density == 1:
        assert bound == len(support)


# -- The season-chain bound C behind every Apriori gate ------------------


def chain_bound(support, params) -> int:
    """C(S), as a plain loop: the greedy count of windows of minDensity
    consecutive granules with steps <= maxPeriod, each starting at least
    g = max(distMin, maxPeriod + 1) after the previous one ends."""
    gap = max(params.dist_min, params.max_period + 1)
    width = params.min_density
    count = 0
    earliest = None
    index = 0
    while index + width <= len(support):
        window = support[index : index + width]
        steps_ok = all(b - a <= params.max_period for a, b in zip(window, window[1:]))
        if steps_ok and (earliest is None or window[0] >= earliest):
            count += 1
            earliest = window[-1] + gap
            index += width
        else:
            index += 1
    return count


#: Thresholds where distMin often exceeds maxPeriod + 1, so that the
#: gap g between windows is distMin's.
gate_params = st.builds(
    MiningParams,
    max_period=st.integers(1, 6),
    min_density=st.integers(1, 4),
    dist_interval=st.integers(0, 40).flatmap(
        lambda low: st.tuples(st.just(low), st.integers(low, 200))
    ),
    min_season=st.integers(1, 5),
)

#: Early exits: True at granule 12, inside the second near set; False at
#: the break before 5, where the 5 granules left can add only 2 < 3.
_EARLY_TRUE = (
    [1, 2, 3, 10, 11, 12, 13, 20],
    MiningParams(max_period=1, min_density=3, dist_interval=(0, 30), min_season=2),
)
_EARLY_FALSE = (
    [1, 3, 5, 6, 7, 8, 9],
    MiningParams(max_period=1, min_density=2, dist_interval=(0, 30), min_season=3),
)
#: minDensity 1 with distMin >> maxPeriod (the regime of RE at the CLI's
#: thresholds): B = |S| = 8, but granules 30 apart give C = 3 < 4.
_SPREAD = (
    [1, 2, 5, 31, 33, 40, 61, 62],
    MiningParams(max_period=1, min_density=1, dist_interval=(30, 330), min_season=4),
)


@given(supports, gate_params)
@example(*_EARLY_TRUE)
@example(*_EARLY_FALSE)
@example(*_H9)
@example(*_SPREAD)
@settings(max_examples=400)
def test_season_gate_agrees_with_the_chain_bound(support, params):
    bound = chain_bound(support, params)
    bitset = SupportSet.from_positions(support)
    # The drawn minSeason, and the thresholds on either side of C, which
    # pin C itself.
    for min_season in {params.min_season, max(bound, 1), bound + 1}:
        at = params.with_updates(min_season=min_season)
        expected = bound >= min_season
        for form in (support, bitset, bitset.bits):
            assert is_season_candidate(form, at) == expected


@given(support_and_subset(), gate_params)
@example((_H9[0], _H9[0][2:]), _H9[1])
@example((_SPREAD[0], _SPREAD[0][::2]), _SPREAD[1])
@settings(max_examples=300)
def test_chain_bound_caps_the_seasons_of_every_subset(case, params):
    # Lemmas 1-2 with C: a subset's seasons never exceed the superset's C.
    support, subset = case
    assert count_seasons(subset, params) <= chain_bound(support, params)
    assert chain_bound(subset, params) <= chain_bound(support, params)


@given(supports, supports, gate_params)
@settings(max_examples=200)
def test_chain_bound_never_falls_under_appends_or_merges(support, more, params):
    bound = chain_bound(support, params)
    merged = sorted(set(support) | set(more))
    assert chain_bound(merged, params) >= bound
    top = support[-1] if support else 0
    appended = support + [top + offset for offset in sorted(set(more))]
    assert chain_bound(appended, params) >= bound


@given(supports, gate_params)
@example(*_SPREAD)
def test_chain_bound_tightens_the_near_set_bound(support, params):
    assert chain_bound(support, params) <= near_set_bound(support, params)


@given(
    st.lists(st.integers(1, 60), max_size=10, unique=True).map(sorted),
    gate_params,
)
@example(*_SPREAD)
@settings(max_examples=150)
def test_chain_bound_is_the_best_season_count_of_a_subset(support, params):
    # With distMax >= max(S) no distance binds, and the greedy windows of
    # S are the seasons of their union.
    dist_max = max(params.dist_min, max(support, default=0))
    params = params.with_updates(dist_interval=(params.dist_min, dist_max))
    best = max(
        count_seasons(list(compress(support, keep)), params)
        for keep in product((False, True), repeat=len(support))
    )
    assert chain_bound(support, params) == best
