"""Tests for the multi-granularity streaming service."""

import pytest

from repro import ESTPM, MiningParams, SymbolicDatabase
from repro.core.results import results_equivalent
from repro.exceptions import MiningError
from repro.streaming import MultiGrainStreamingService, StreamingDatabase
from repro.transform import build_sequence_database


@pytest.fixture(scope="module")
def motif_dsyb():
    return SymbolicDatabase.from_rows(
        {"A": "111000110000" * 15, "B": "110000111000" * 15}
    )


PARAMS_BY_RATIO = {
    3: MiningParams(max_period=3, min_density=1, dist_interval=(0, 40), min_season=2),
    6: MiningParams(max_period=2, min_density=1, dist_interval=(0, 20), min_season=2),
    12: MiningParams(max_period=2, min_density=1, dist_interval=(0, 10), min_season=1),
}


def fresh_service(dsyb):
    database = StreamingDatabase(3, {s.name: s.alphabet for s in dsyb})
    return MultiGrainStreamingService(database, dict(PARAMS_BY_RATIO))


def stream_blocks(dsyb, block=24):
    streams = {series.name: series.symbols for series in dsyb}
    for start in range(0, dsyb.n_instants, block):
        yield {
            name: symbols[start : start + block]
            for name, symbols in streams.items()
        }


class TestMultiGrainStreaming:
    def test_every_level_matches_batch_mining(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        for block in stream_blocks(motif_dsyb):
            deltas = service.push_symbols(block)
            assert sorted(deltas) == [3, 6, 12]
        assert [service.n_granules(r) for r in service.ratios] == [60, 30, 15]
        for ratio in service.ratios:
            batch = ESTPM(
                build_sequence_database(motif_dsyb, ratio), PARAMS_BY_RATIO[ratio]
            ).mine()
            assert results_equivalent(service.result(ratio), batch)

    def test_verify_parity_passes_per_level(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        for block in stream_blocks(motif_dsyb, block=30):
            service.push_symbols(block)
        batch_results = service.verify_parity()
        assert sorted(batch_results) == [3, 6, 12]

    def test_coarse_granules_lag_the_fine_level(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        # 15 instants = 5 base granules = 2 ratio-6 granules = 1 ratio-12.
        blocks = stream_blocks(motif_dsyb, block=15)
        service.push_symbols(next(blocks))
        assert service.n_granules(3) == 5
        assert service.n_granules(6) == 2
        assert service.n_granules(12) == 1

    def test_results_returns_every_level(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        service.push_symbols(next(stream_blocks(motif_dsyb, block=36)))
        results = service.results()
        assert sorted(results) == [3, 6, 12]

    def test_warm_start_consumes_existing_granules(self, motif_dsyb):
        database = StreamingDatabase.from_symbolic(motif_dsyb, 3)
        service = MultiGrainStreamingService(database, dict(PARAMS_BY_RATIO))
        assert service.n_granules(3) == 60
        assert service.n_granules(12) == 15
        service.verify_parity()

    def test_border_patterns_exposed_per_level(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        for block in stream_blocks(motif_dsyb):
            service.push_symbols(block)
        for ratio in service.ratios:
            for sp in service.border_patterns(ratio):
                assert sp.n_seasons == PARAMS_BY_RATIO[ratio].min_season - 1


class TestValidation:
    def test_base_ratio_params_required(self, motif_dsyb):
        database = StreamingDatabase(3, {s.name: s.alphabet for s in motif_dsyb})
        with pytest.raises(MiningError):
            MultiGrainStreamingService(database, {6: PARAMS_BY_RATIO[6]})

    def test_non_multiple_ratio_rejected(self, motif_dsyb):
        database = StreamingDatabase(3, {s.name: s.alphabet for s in motif_dsyb})
        with pytest.raises(MiningError):
            MultiGrainStreamingService(
                database, {3: PARAMS_BY_RATIO[3], 7: PARAMS_BY_RATIO[6]}
            )

    def test_unknown_level_rejected(self, motif_dsyb):
        service = fresh_service(motif_dsyb)
        with pytest.raises(MiningError):
            service.result(5)
