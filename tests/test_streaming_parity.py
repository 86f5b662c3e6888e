"""The streaming subsystem's hard guarantee: prefix parity with batch E-STPM.

Feeding any prefix of a granule stream through :class:`IncrementalSTPM`
must produce a mining result equivalent to running batch E-STPM on that
prefix -- same frequent patterns, same supports, near support sets, and
seasons -- for every seed dataset profile, and both single-granule and
multi-granule batches.  Every advance's delta must match the diff of the
results around it (:mod:`delta_oracle`).  On the paper example and
one seed stream every sampled prefix is also checked against the
brute-force :class:`NaiveSTPM` oracle.  The k >= 3 worklist's four
triggers and the full season recompute all fire on the seed streams, so
these parity checks exercise every path of the advance.  At sampled
prefixes of streams where the season-chain gate prunes, the streaming
candidate mirrors also match batch E-STPM's candidate counts.
"""

import pytest

from delta_oracle import advance_checked
from repro import ESTPM, IncrementalSTPM
from repro.baselines import NaiveSTPM
from repro.core.results import results_equivalent
from repro.core.seasonality import is_candidate, is_season_candidate
from repro.datasets.registry import DATASET_BUILDERS
from repro.obs import counters as metrics


def _assert_prefix_parity(dseq, params, batch_granules, check_every=1, oracle=False):
    """Stream ``dseq`` in batches, checking every delta and asserting
    parity at sampled prefixes (with batch E-STPM, and with NaiveSTPM
    too when ``oracle`` is set)."""
    miner = IncrementalSTPM.empty(dseq.ratio, params)
    position = 0
    n_batches = 0
    checked = 0
    seasonal_map: dict = {}
    while position < len(dseq):
        rows = dseq.rows[position : position + batch_granules]
        position += len(rows)
        delta, seasonal_map = advance_checked(miner, rows, seasonal_map)
        assert delta.n_granules == position
        n_batches += 1
        if n_batches % check_every == 0 or position == len(dseq):
            batch = ESTPM(dseq.prefix(position), params).mine()
            streaming = miner.result()
            assert results_equivalent(streaming, batch), (
                f"prefix {position}: streaming diverged from batch "
                f"(batch_granules={batch_granules})"
            )
            if oracle:
                naive = NaiveSTPM(dseq.prefix(position), params).mine()
                assert results_equivalent(streaming, naive), (
                    f"prefix {position}: streaming diverged from NaiveSTPM"
                )
            checked += 1
    assert checked >= 2, "the parity loop must actually compare prefixes"
    return miner


class TestPaperExampleParity:
    """Every prefix of the paper's running example."""

    @pytest.mark.parametrize("batch_granules", [1, 3])
    def test_every_prefix(self, paper_dseq, paper_params, batch_granules):
        miner = _assert_prefix_parity(paper_dseq, paper_params, batch_granules)
        assert len(miner.result()) == 25  # the golden pattern count


class TestSeedDatasetParity:
    """All four seed dataset profiles, batches of 1 and k."""

    @pytest.fixture(scope="class")
    def streams(self):
        datasets = {}
        for name in DATASET_BUILDERS:
            dataset = DATASET_BUILDERS[name](n_sequences=44, n_series=4)
            params = dataset.params(min_season=2, min_density_pct=0.6)
            datasets[name] = (dataset.dseq(), params)
        return datasets

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_granule_by_granule(self, streams, name):
        dseq, params = streams[name]
        miner = _assert_prefix_parity(dseq, params, 1, check_every=8)
        assert len(miner.result()) > 0, "parity must be checked on real patterns"

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_multi_granule_batches(self, streams, name):
        dseq, params = streams[name]
        _assert_prefix_parity(dseq, params, 9, check_every=2)

    def test_deeper_patterns(self, streams):
        dseq, params = streams["INF"]
        deeper = params.with_updates(max_pattern_length=4)
        _assert_prefix_parity(dseq, deeper, 7, check_every=3)


class TestKernelParity:
    """The streaming miner's step-2.2 kernel calls against the NaiveSTPM
    oracle at every sampled prefix."""

    def test_paper_example(self, paper_dseq, paper_params):
        miner = _assert_prefix_parity(paper_dseq, paper_params, 3, oracle=True)
        assert len(miner.result()) == 25

    def test_seed_dataset_array_kernel(self):
        dataset = DATASET_BUILDERS["INF"](n_sequences=44, n_series=4)
        params = dataset.params(min_season=2, min_density_pct=0.6)
        miner = _assert_prefix_parity(dataset.dseq(), params, 9, oracle=True)
        assert len(miner.result()) > 0, "parity must be checked on real patterns"


def _gate_acted(state, params) -> int:
    """Event, group and pattern supports of the streaming state that pass
    Eq. (1) but fail the season-chain gate."""
    supports = [es.chain.support for es in state.events.values()]
    for level in state.levels.values():
        for gs in level.values():
            if gs.bits is not None:
                supports.append(gs.bits)
            supports.extend(ps.chain.support for ps in gs.patterns.values())
    return sum(
        1
        for support in supports
        if is_candidate(
            support.bit_count() if isinstance(support, int) else len(support), params
        )
        and not is_season_candidate(support, params)
    )


def _assert_gates_agree(dseq, params, check_every):
    """Stream ``dseq`` granule by granule; at sampled prefixes the
    streaming mirrors hold exactly the candidates batch E-STPM counts on
    that prefix, and every one of them passes the gate."""
    miner = IncrementalSTPM.empty(dseq.ratio, params)
    checked = 0
    for position, row in enumerate(dseq.rows, start=1):
        miner.advance([row])
        if position % check_every and position != len(dseq):
            continue
        stats = ESTPM(dseq.prefix(position), params).mine().stats
        state = miner.state
        where = f"prefix {position}"
        assert len(state.hlh1) == stats.n_candidate_events, where
        assert all(
            is_season_candidate(support, params) for support in state.hlh1.eh.values()
        ), where
        for k in range(2, params.max_pattern_length + 1):
            mirror = state.mirror(k)
            assert len(mirror.ehk) == stats.n_candidate_groups.get(k, 0), (where, k)
            assert len(mirror.phk) == stats.n_candidate_patterns.get(k, 0), (where, k)
            assert all(
                is_season_candidate(entry.support, params)
                for entry in mirror.ehk.values()
            ), (where, k)
            assert all(
                is_season_candidate(support, params) for support in mirror.phk.values()
            ), (where, k)
        checked += 1
    assert checked >= 2
    return miner


class TestGateConsistency:
    """Batch and streaming miners share one candidate gate.

    Frequent-output parity cannot catch a gate site left on Eq. (1)'s
    maxSeason, because the season-chain bound is lossless; the candidate
    counts can.  The bound prunes through density (the streams at
    minDensity 3) and through season spacing: at minDensity 1 a window
    is one granule, but windows must lie ``g = max(distMin, maxPeriod +
    1)`` apart, so the streams at distMin > maxPeriod + 1 prune too.
    Each test asserts that the bound rejected a support Eq. (1) admits.
    """

    def test_paper_example(self, paper_dseq, paper_params):
        miner = _assert_gates_agree(paper_dseq, paper_params, check_every=2)
        assert len(miner.result()) == 25
        assert _gate_acted(miner.state, paper_params) > 0

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_seed_dataset(self, name):
        dataset = DATASET_BUILDERS[name](n_sequences=44, n_series=4)
        params = dataset.params(min_season=2, min_density_pct=5, max_period_pct=5)
        assert params.min_density == 3
        miner = _assert_gates_agree(dataset.dseq(), params, check_every=6)
        assert len(miner.result()) > 0
        assert _gate_acted(miner.state, params) > 0

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_seed_dataset_season_spacing(self, name):
        dataset = DATASET_BUILDERS[name](n_sequences=44, n_series=4)
        params = dataset.params(min_season=2, min_density_pct=1, max_period_pct=1)
        assert params.min_density == 1
        assert params.dist_min > params.max_period + 1
        miner = _assert_gates_agree(dataset.dseq(), params, check_every=6)
        assert len(miner.result()) > 0
        assert _gate_acted(miner.state, params) > 0


#: The k >= 3 worklist's triggers, by the miner method that lists each.
TRIGGERS = {
    "T1": "_groups_with_changed_members",
    "T2": "_children_of_changed_parents",
    "T3": "_groups_with_new_triples",
    "T4": "_newly_generated_groups",
}


class _SpyMiner(IncrementalSTPM):
    """Records the groups each trigger lists, per level, in one advance."""

    listed: dict


def _spy(method: str, trigger: str):
    def listing(self, k, adv):
        groups = getattr(IncrementalSTPM, method)(self, k, adv)
        self.listed[(k, trigger)] = set(groups)
        return groups

    return listing


for _trigger, _method in TRIGGERS.items():
    setattr(_SpyMiner, _method, _spy(_method, _trigger))


class TestWorklistCoverage:
    """Each worklist trigger, and the full season recompute, fires on the
    seed streams after the first advance -- each trigger at least once
    for a group no other trigger listed -- so the parity tests above
    exercise every path."""

    @pytest.fixture(scope="class")
    def coverage(self):
        fired = dict.fromkeys(TRIGGERS, 0)
        alone = dict.fromkeys(TRIGGERS, 0)
        recomputed = 0
        for name in sorted(DATASET_BUILDERS):
            dataset = DATASET_BUILDERS[name](n_sequences=44, n_series=4)
            params = dataset.params(min_season=2, min_density_pct=0.6)
            dseq = dataset.dseq()
            miner = _SpyMiner.empty(dseq.ratio, params)
            miner.listed = {}
            miner.advance(dseq.rows[:1])
            with metrics.capture() as registry:
                for row in dseq.rows[1:]:
                    miner.listed = {}
                    miner.advance([row])
                    for (k, trigger), groups in miner.listed.items():
                        others = set().union(
                            *(
                                miner.listed.get((k, other), set())
                                for other in TRIGGERS
                                if other != trigger
                            )
                        )
                        fired[trigger] += bool(groups)
                        alone[trigger] += bool(groups - others)
            recomputed += registry.counters.get("stream.views.recomputed", 0)
        return fired, alone, recomputed

    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    def test_trigger_fires_alone(self, coverage, trigger):
        fired, alone, _ = coverage
        assert fired[trigger] > 0
        assert alone[trigger] > 0

    def test_full_season_recompute_fires(self, coverage):
        _, _, recomputed = coverage
        assert recomputed > 0
