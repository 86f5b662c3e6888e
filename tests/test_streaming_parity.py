"""The streaming subsystem's hard guarantee: prefix parity with batch E-STPM.

Feeding any prefix of a granule stream through :class:`IncrementalSTPM`
must produce a mining result equivalent to running batch E-STPM on that
prefix -- same frequent patterns, same supports, near support sets, and
seasons -- for every seed dataset profile, both support backends, and
both single-granule and multi-granule batches.  On the paper example and
one seed stream every sampled prefix is also checked against the
brute-force :class:`NaiveSTPM` oracle.
"""

import pytest

from repro import ESTPM, IncrementalSTPM
from repro.baselines import NaiveSTPM
from repro.core.results import results_equivalent
from repro.datasets.registry import DATASET_BUILDERS


def _assert_prefix_parity(
    dseq, params, backend, batch_granules, check_every=1, oracle=False
):
    """Stream ``dseq`` in batches, asserting parity at sampled prefixes
    (with batch E-STPM, and with NaiveSTPM too when ``oracle`` is set)."""
    miner = IncrementalSTPM.empty(dseq.ratio, params, support_backend=backend)
    position = 0
    n_batches = 0
    checked = 0
    while position < len(dseq):
        rows = dseq.rows[position : position + batch_granules]
        position += len(rows)
        delta = miner.advance(rows)
        assert delta.n_granules == position
        n_batches += 1
        if n_batches % check_every == 0 or position == len(dseq):
            batch = ESTPM(
                dseq.prefix(position), params, support_backend=backend
            ).mine()
            streaming = miner.result()
            assert results_equivalent(streaming, batch), (
                f"prefix {position}: streaming diverged from batch "
                f"(backend={backend}, batch_granules={batch_granules})"
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
    """Every prefix of the paper's running example, both backends."""

    @pytest.mark.parametrize("backend", ["bitset", "list"])
    @pytest.mark.parametrize("batch_granules", [1, 3])
    def test_every_prefix(self, paper_dseq, paper_params, backend, batch_granules):
        miner = _assert_prefix_parity(
            paper_dseq, paper_params, backend, batch_granules
        )
        assert len(miner.result()) == 25  # the golden pattern count


class TestSeedDatasetParity:
    """All four seed dataset profiles, both backends, batches of 1 and k."""

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
        miner = _assert_prefix_parity(dseq, params, "bitset", 1, check_every=8)
        assert len(miner.result()) > 0, "parity must be checked on real patterns"

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_multi_granule_batches(self, streams, name):
        dseq, params = streams[name]
        _assert_prefix_parity(dseq, params, "list", 9, check_every=2)

    def test_deeper_patterns(self, streams):
        dseq, params = streams["INF"]
        deeper = params.with_updates(max_pattern_length=4)
        _assert_prefix_parity(dseq, deeper, "bitset", 7, check_every=3)


class TestKernelParity:
    """The streaming miner's step-2.2 kernel calls against the NaiveSTPM
    oracle at every sampled prefix."""

    def test_paper_example(self, paper_dseq, paper_params):
        miner = _assert_prefix_parity(
            paper_dseq, paper_params, "bitset", 3, oracle=True
        )
        assert len(miner.result()) == 25

    def test_seed_dataset_array_kernel(self):
        dataset = DATASET_BUILDERS["INF"](n_sequences=44, n_series=4)
        params = dataset.params(min_season=2, min_density_pct=0.6)
        miner = _assert_prefix_parity(dataset.dseq(), params, "bitset", 9, oracle=True)
        assert len(miner.result()) > 0, "parity must be checked on real patterns"
