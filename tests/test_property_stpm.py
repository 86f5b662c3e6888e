"""Property-based equivalence tests: the miners agree on random inputs.

These are the strongest correctness guarantees in the suite: on arbitrary
small symbolic databases,

* E-STPM equals the brute-force oracle (NaiveSTPM);
* every pruning variant of E-STPM returns the same pattern set
  (the prunings are lossless, Lemmas 1-4);
* APS-growth (the baseline) also returns the same pattern set;
* A-STPM returns a subset, exact on the series it keeps.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    ASTPM,
    ESTPM,
    MiningParams,
    PruningConfig,
    SymbolicDatabase,
    build_sequence_database,
)
from repro.baselines import APSGrowth, NaiveSTPM


@st.composite
def mining_inputs(draw, max_lengths=(3,)):
    n_series = draw(st.integers(1, 3))
    length = draw(st.integers(8, 30))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    ratio = draw(st.sampled_from([2, 3]))
    # distMin up to 6 exceeds maxPeriod + 1 (at most 4) in many draws, so
    # the candidate gate's season spacing is distMin's there.
    dist_min = draw(st.integers(0, 6))
    params = MiningParams(
        max_period=draw(st.integers(1, 3)),
        min_density=draw(st.integers(1, 2)),
        dist_interval=(dist_min, draw(st.integers(max(3, dist_min), 10))),
        min_season=draw(st.integers(1, 2)),
        max_pattern_length=draw(st.sampled_from(max_lengths)),
    )
    dseq = build_sequence_database(SymbolicDatabase.from_rows(rows), ratio)
    return SymbolicDatabase.from_rows(rows), dseq, ratio, params


def _fixed_inputs(rows: dict[str, str], ratio: int, params: MiningParams):
    dsyb = SymbolicDatabase.from_rows(rows)
    return dsyb, build_sequence_database(dsyb, ratio), ratio, params


# Lengths 2-4 put the oracle on each kind of last level (the pair level,
# the k = 3 fast path, the general extension path) and k = 3 also as an
# inner level whose assignments are extended.  Few random draws reach
# frequent 4-event patterns, so one explicit example with 91 of them
# always runs.  The second example runs at minDensity 1 with distMin far
# above maxPeriod, where the season-chain gate rejects 2-/3-event
# candidates (14 and 19 of them) that the near-set bound admits.
@given(mining_inputs(max_lengths=(2, 3, 4)))
@example(
    _fixed_inputs(
        {
            "S0": "110111111001001010011011101110",
            "S1": "001011010000010011011010110110",
            "S2": "100001100000011001111101011000",
        },
        2,
        MiningParams(
            max_period=1, min_density=1, dist_interval=(6, 12),
            min_season=2, max_pattern_length=3,
        ),
    )
)
@example(
    _fixed_inputs(
        {
            "S0": "110100110100110100",
            "S1": "011010011010011010",
            "S2": "101101101101101101",
        },
        3,
        MiningParams(
            max_period=1, min_density=1, dist_interval=(0, 8),
            min_season=2, max_pattern_length=4,
        ),
    )
)
@settings(max_examples=40, deadline=None)
def test_estpm_equals_bruteforce_oracle(inputs):
    _, dseq, _, params = inputs
    exact = ESTPM(dseq, params).mine().pattern_keys()
    oracle = NaiveSTPM(dseq, params).mine().pattern_keys()
    assert exact == oracle


@given(mining_inputs())
@settings(max_examples=25, deadline=None)
def test_pruning_variants_are_lossless(inputs):
    _, dseq, _, params = inputs
    reference = ESTPM(dseq, params, PruningConfig.all()).mine().pattern_keys()
    for variant in (
        PruningConfig.none(),
        PruningConfig.apriori_only(),
        PruningConfig.transitivity_only(),
    ):
        assert ESTPM(dseq, params, variant).mine().pattern_keys() == reference


@given(mining_inputs())
@settings(max_examples=25, deadline=None)
def test_apsgrowth_equals_estpm(inputs):
    _, dseq, _, params = inputs
    exact = ESTPM(dseq, params).mine().pattern_keys()
    baseline = APSGrowth(dseq, params).mine().pattern_keys()
    assert baseline == exact


@given(mining_inputs())
@settings(max_examples=25, deadline=None)
def test_astpm_is_subset_and_exact_on_kept_series(inputs):
    dsyb, dseq, ratio, params = inputs
    exact = ESTPM(dseq, params).mine().pattern_keys()
    miner = ASTPM(dsyb, ratio, params, dseq=dseq)
    report = miner.screening()
    approx = miner.mine().pattern_keys()
    assert approx <= exact
    kept = set(report.correlated_series)
    expected = {
        p
        for p in exact
        if all(event.rsplit(":", 1)[0] in kept for event in p.events)
    }
    assert approx == expected


@given(mining_inputs())
@settings(max_examples=25, deadline=None)
def test_every_frequent_pattern_meets_all_thresholds(inputs):
    _, dseq, _, params = inputs
    result = ESTPM(dseq, params).mine()
    for sp in result.patterns:
        assert sp.n_seasons >= params.min_season
        assert all(d >= params.min_density for d in sp.seasons.densities())
        assert all(
            params.dist_min <= dist <= params.dist_max
            for dist in sp.seasons.distances()
        )
        # Support is strictly increasing granule positions.
        assert list(sp.support) == sorted(set(sp.support))
