"""Unit tests for the streaming subsystem: ingest, service, checkpoints."""

import json

import numpy as np
import pytest

from repro import (
    IncrementalSTPM,
    MiningParams,
    StreamingDatabase,
    StreamingMiningService,
    StreamingSymbolizer,
    build_sequence_database,
    replay_dataset,
)
from repro.core.results import results_equivalent
from repro.exceptions import (
    ConfigError,
    MiningError,
    ReproError,
    SymbolizationError,
    TransformError,
)
from repro.io import load_stream_checkpoint, save_stream_checkpoint
from repro.streaming.state import bit_positions, mask_upto
from repro.symbolic import Alphabet, QuantileMapper, TimeSeries

PARAMS = MiningParams(
    max_period=3, min_density=2, dist_interval=(0, 12), min_season=2
)


def _alphabets():
    return {"T": Alphabet.levels(("L", "M", "H")), "W": Alphabet.binary()}


def _service(rng=None, mode="frozen", **kwargs):
    alphabets = _alphabets()
    symbolizer = StreamingSymbolizer(alphabets, mode=mode)
    database = StreamingDatabase(2, alphabets)
    return StreamingMiningService(database, PARAMS, symbolizer=symbolizer, **kwargs)


class TestBitHelpers:
    def test_mask_and_positions(self):
        bits = (1 << 3) | (1 << 7) | (1 << 12)
        assert bit_positions(bits) == [3, 7, 12]
        assert bit_positions(bits & ~mask_upto(7)) == [12]
        assert bit_positions(0) == []


class TestStreamingDatabase:
    def test_matches_batch_sequence_mapping(self, paper_dsyb):
        streamed = StreamingDatabase.from_symbolic(paper_dsyb, ratio=3)
        batch = build_sequence_database(paper_dsyb, ratio=3)
        assert len(streamed.dseq) == len(batch)
        for mine, theirs in zip(streamed.dseq.rows, batch.rows):
            assert mine.position == theirs.position
            assert mine.instances == theirs.instances

    def test_granules_form_at_slowest_series(self):
        database = StreamingDatabase(2, _alphabets())
        assert database.append_symbols({"T": "LLMM", "W": "1"}) == []
        assert database.pending_instants() == 1
        rows = database.append_symbols({"W": "01"})
        assert [row.position for row in rows] == [1]
        assert database.pending_instants() == 1

    def test_partial_blocks_stay_buffered(self):
        database = StreamingDatabase(3, {"T": Alphabet.binary()})
        database.append_symbols({"T": "10110"})
        assert len(database.dseq) == 1
        assert database.pending_instants() == 2

    def test_unknown_series_rejected(self):
        database = StreamingDatabase(2, _alphabets())
        with pytest.raises(SymbolizationError):
            database.append_symbols({"X": "11"})

    def test_symbol_outside_alphabet_rejected(self):
        database = StreamingDatabase(2, _alphabets())
        with pytest.raises(SymbolizationError):
            database.append_symbols({"W": "2"})

    def test_bad_ratio_rejected(self):
        with pytest.raises(SymbolizationError):
            StreamingDatabase(0)

    def test_lazy_seed_with_alphabets_validates(self):
        # Regression: a stream seeded by its first push used to register
        # the series set but no alphabets, silently skipping symbol
        # validation forever.
        database = StreamingDatabase(2)
        database.append_symbols({"W": "01"}, alphabets={"W": Alphabet.binary()})
        with pytest.raises(SymbolizationError):
            database.append_symbols({"W": "2"})

    def test_lazy_seed_rejects_bad_symbols_immediately(self):
        database = StreamingDatabase(2)
        with pytest.raises(SymbolizationError):
            database.append_symbols({"W": "02"}, alphabets={"W": Alphabet.binary()})

    def test_register_alphabets_validates_buffered_history(self):
        database = StreamingDatabase(2)
        database.append_symbols({"W": "012"})  # lazily seeded, unvalidated
        with pytest.raises(SymbolizationError):
            database.register_alphabets({"W": Alphabet.binary()})

    def test_register_alphabets_rejects_conflicts_and_unknowns(self):
        database = StreamingDatabase(2, {"W": Alphabet.binary()})
        with pytest.raises(SymbolizationError):
            database.register_alphabets({"W": Alphabet.levels(("L", "H"))})
        with pytest.raises(SymbolizationError):
            database.register_alphabets({"X": Alphabet.binary()})
        # The inheritance path skips irrelevant series instead of raising.
        database.register_alphabets({"X": Alphabet.binary()}, ignore_unknown=True)
        assert "X" not in database.alphabets

    def test_service_inherits_symbolizer_alphabets(self):
        # A database constructed without alphabets (lazy seeding) inherits
        # them from the service's symbolizer, so pushed symbols validate.
        database = StreamingDatabase(2)
        service = StreamingMiningService(
            database, PARAMS, symbolizer=StreamingSymbolizer(_alphabets())
        )
        assert set(database.alphabets) == {"T", "W"}
        assert database.names == []  # the first push still fixes the set
        with pytest.raises(SymbolizationError):
            service.push_symbols({"W": "2"})

    def test_service_subset_stream_still_forms_granules(self):
        # Inheriting alphabets must not widen the series set: a stream
        # carrying only one of the symbolizer's series keeps forming
        # granules instead of waiting forever on the absent one.
        database = StreamingDatabase(2)
        service = StreamingMiningService(
            database, PARAMS, symbolizer=StreamingSymbolizer(_alphabets())
        )
        service.push_symbols({"T": "LMLM"})
        assert database.names == ["T"]
        assert len(database.dseq) == 2
        # The fixed series set also prunes unusable alphabets, so a
        # checkpoint restore re-seeds exactly this stream.
        assert set(database.alphabets) == {"T"}
        with pytest.raises(SymbolizationError):
            service.push_symbols({"T": "X"})

    def test_partial_alphabets_do_not_narrow_the_seeded_series(self):
        database = StreamingDatabase(2)
        database.append_symbols(
            {"T": "LL", "W": "01"}, alphabets={"W": Alphabet.binary()}
        )
        assert database.names == ["T", "W"]
        with pytest.raises(SymbolizationError):
            database.append_symbols({"W": "2"})  # registered: validated
        database.append_symbols({"T": "XY"})  # unregistered: unvalidated

    def test_append_row_position_validated(self, paper_dseq):
        with pytest.raises(TransformError):
            paper_dseq.append_row(paper_dseq.rows[0])

    def test_prefix_view(self, paper_dseq):
        prefix = paper_dseq.prefix(5)
        assert len(prefix) == 5
        assert prefix.rows[0] is paper_dseq.rows[0]
        with pytest.raises(TransformError):
            paper_dseq.prefix(len(paper_dseq) + 1)


class TestStreamingSymbolizer:
    def test_frozen_matches_quantile_mapper_on_window(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=60)
        alphabet = Alphabet.levels(("L", "M", "H"))
        symbolizer = StreamingSymbolizer.fit({"T": values}, {"T": alphabet})
        streamed = symbolizer.push({"T": values})["T"]
        batch = QuantileMapper(alphabet).encode(
            TimeSeries.from_array("T", values)
        )
        assert streamed == batch.symbols

    def test_frozen_breakpoints_do_not_drift(self):
        alphabet = Alphabet.binary()
        symbolizer = StreamingSymbolizer.fit({"T": [0.0, 1.0]}, {"T": alphabet})
        first = symbolizer.push({"T": [0.2, 0.8]})["T"]
        # Pushing extreme values must not re-fit the breakpoints.
        symbolizer.push({"T": [100.0] * 10})
        again = symbolizer.push({"T": [0.2, 0.8]})["T"]
        assert first == again

    def test_rolling_refits_on_history(self):
        alphabet = Alphabet.binary()
        symbolizer = StreamingSymbolizer({"T": alphabet}, mode="rolling")
        assert symbolizer.push({"T": [0.0, 1.0]})["T"] == ("0", "1")
        # After a much larger regime, old "high" values encode low.
        symbolizer.push({"T": [10.0] * 20})
        assert symbolizer.push({"T": [1.0]})["T"] == ("0",)

    def test_unknown_mode_and_series_rejected(self):
        with pytest.raises(SymbolizationError):
            StreamingSymbolizer({"T": Alphabet.binary()}, mode="sliding")
        symbolizer = StreamingSymbolizer({"T": Alphabet.binary()})
        with pytest.raises(SymbolizationError):
            symbolizer.push({"X": [1.0]})

    def test_frozen_constant_first_push_rejected(self):
        # Regression: a constant (or single-value) fitting window froze
        # all-equal breakpoints, silently binning every future value into
        # one symbol for the stream's whole lifetime.
        symbolizer = StreamingSymbolizer({"T": Alphabet.levels(("L", "M", "H"))})
        with pytest.raises(SymbolizationError, match="degenerate fitting window"):
            symbolizer.push({"T": [5.0] * 8})
        with pytest.raises(SymbolizationError, match="degenerate fitting window"):
            symbolizer.push({"T": [2.0]})
        # The rejected window left no trace: a proper window still fits.
        assert symbolizer.history["T"] == []
        assert symbolizer.push({"T": [0.0, 1.0, 2.0]})["T"] == ("L", "M", "H")

    def test_rejected_multi_series_push_is_atomic(self):
        # A degenerate window in ONE series must not commit the others:
        # the caller re-pushes the whole corrected batch, which would
        # otherwise duplicate the committed series' instants.
        symbolizer = StreamingSymbolizer(_alphabets())
        with pytest.raises(SymbolizationError, match="degenerate fitting window"):
            symbolizer.push({"T": [0.0, 1.0, 2.0], "W": [5.0, 5.0]})
        assert symbolizer.history["T"] == []
        assert "T" not in symbolizer.mappers
        out = symbolizer.push({"T": [0.0, 1.0, 2.0], "W": [0.0, 1.0]})
        assert out["T"] == ("L", "M", "H")
        assert symbolizer.history["T"] == [0.0, 1.0, 2.0]

    def test_frozen_fit_on_constant_window_rejected(self):
        with pytest.raises(SymbolizationError, match="degenerate fitting window"):
            StreamingSymbolizer.fit(
                {"T": [3.0, 3.0, 3.0, 3.0]}, {"T": Alphabet.binary()}
            )

    def test_rolling_constant_first_push_tolerated(self):
        # Rolling mode refits on every push, so an early constant window
        # heals itself once varied values arrive.
        symbolizer = StreamingSymbolizer({"T": Alphabet.binary()}, mode="rolling")
        symbolizer.push({"T": [5.0, 5.0]})
        assert symbolizer.push({"T": [0.0, 10.0]})["T"] == ("0", "1")

    def test_single_symbol_alphabet_is_not_degenerate(self):
        # One symbol means zero breakpoints: a constant window is the
        # expected shape, not a degenerate fit.
        symbolizer = StreamingSymbolizer({"T": Alphabet(("x",))})
        assert symbolizer.push({"T": [1.0, 1.0]})["T"] == ("x", "x")


class TestIncrementalSTPM:
    def test_advance_without_new_rows_is_a_noop(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params)
        delta = miner.advance()
        assert delta.new_granules == 0 and not delta.has_changes

    def test_deltas_report_promotions(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params)
        promoted: set = set()
        for row in paper_dseq.rows:
            delta = miner.advance([row])
            assert delta.n_granules == row.position
            for sp in delta.promoted:
                assert sp.pattern not in promoted
                promoted.add(sp.pattern)
            assert not delta.demoted
        assert promoted == miner.result().pattern_keys()

    def test_updated_views_change(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params)
        seen: dict = {}
        for row in paper_dseq.rows:
            delta = miner.advance([row])
            for sp in delta.updated:
                assert sp.pattern in seen
                assert seen[sp.pattern] != sp.seasons
            for sp in delta.promoted + delta.updated:
                seen[sp.pattern] = sp.seasons

    def test_border_patterns_one_season_short(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params)
        miner.advance(paper_dseq.rows)
        border = miner.border_patterns()
        threshold = paper_params.min_season - 1
        assert border, "the paper example has near-frequent candidates"
        assert all(sp.n_seasons == threshold for sp in border)
        frequent = miner.result().pattern_keys()
        assert not frequent & {sp.pattern for sp in border}

    def test_reanchor_every_advance(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params, reanchor_every=1)
        for row in paper_dseq.rows:
            miner.advance([row])  # raises MiningError on any divergence

    @pytest.mark.parametrize("reanchor_every", [0, -3])
    def test_reanchor_every_must_be_positive(self, paper_params, reanchor_every):
        with pytest.raises(ConfigError, match="reanchor_every must be >= 1"):
            IncrementalSTPM.empty(3, paper_params, reanchor_every=reanchor_every)

    def test_describe_mentions_counts(self, paper_dseq, paper_params):
        miner = IncrementalSTPM.empty(3, paper_params)
        delta = miner.advance(paper_dseq.rows)
        assert "promoted" in delta.describe()
        assert f"granule {len(paper_dseq)}" in delta.describe()


class TestStreamingMiningService:
    def test_push_requires_symbolizer(self):
        database = StreamingDatabase(2, _alphabets())
        service = StreamingMiningService(database, PARAMS)
        with pytest.raises(MiningError):
            service.push({"T": [1.0], "W": [0.0]})

    def test_push_symbols_and_result(self):
        database = StreamingDatabase(2, _alphabets())
        service = StreamingMiningService(database, PARAMS)
        service.push_symbols({"T": "LMHLMHLMHLMH", "W": "101010101010"})
        assert service.n_granules == 6
        service.verify_parity()

    def test_push_points_end_to_end(self):
        rng = np.random.default_rng(11)
        service = _service()
        service.push({"T": rng.normal(size=30), "W": rng.normal(size=30)})
        for _ in range(6):
            service.push({"T": rng.normal(size=4), "W": rng.normal(size=4)})
        assert service.n_granules == 27
        service.verify_parity()

    def test_replay_dataset_batches(self, tiny_inf):
        params = tiny_inf.params(min_season=2, min_density_pct=0.5)
        deltas = []
        service = None
        for service, delta in replay_dataset(
            tiny_inf, params, batch_granules=26, initial_granules=26
        ):
            deltas.append(delta)
        assert service.n_granules == tiny_inf.n_sequences
        assert sum(d.new_granules for d in deltas) == tiny_inf.n_sequences
        batch = service.verify_parity()
        assert results_equivalent(service.result(), batch)

    def test_replay_validates_batch_size(self, tiny_inf):
        with pytest.raises(ConfigError):
            next(iter(replay_dataset(tiny_inf, PARAMS, batch_granules=0)))
        with pytest.raises(ConfigError):
            next(
                iter(
                    replay_dataset(
                        tiny_inf, PARAMS, batch_granules=4, initial_granules=-5
                    )
                )
            )


#: The key 1.13 stream checkpoints carried for the retired support-set
#: representation knob (spelled in parts: the knob's name is gone from
#: the tree).
_RETIRED_KEY = "_".join(("support", "backend"))


class TestStreamCheckpoint:
    def _seeded_service(self):
        rng = np.random.default_rng(5)
        service = _service()
        service.push({"T": rng.normal(size=40), "W": rng.normal(size=40)})
        for _ in range(4):
            service.push({"T": rng.normal(size=5), "W": rng.normal(size=5)})
        return service

    def test_roundtrip(self, tmp_path):
        service = self._seeded_service()
        path = tmp_path / "stream.json"
        service.save_checkpoint(path)
        restored = StreamingMiningService.restore(path)
        assert restored.n_granules == service.n_granules
        assert results_equivalent(restored.result(), service.result())
        # The restored stream keeps accepting identical input identically.
        points = {"T": [0.5] * 6, "W": [0.1] * 6}
        service.push(points)
        restored.push(points)
        assert results_equivalent(restored.result(), service.result())
        restored.verify_parity()

    def test_roundtrip_via_text(self):
        service = self._seeded_service()
        text = save_stream_checkpoint(service)
        restored = load_stream_checkpoint(text)
        assert results_equivalent(restored.result(), service.result())

    @pytest.mark.parametrize("representation", ["list", "bitset"])
    def test_checkpoint_written_by_1_13_still_loads(self, representation):
        # 1.13 also recorded which support-set representation the stream
        # ran on; that choice is gone, and its key is ignored on load.
        service = self._seeded_service()
        payload = json.loads(save_stream_checkpoint(service))
        assert _RETIRED_KEY not in payload
        payload[_RETIRED_KEY] = representation
        restored = load_stream_checkpoint(json.dumps(payload))
        assert restored.n_granules == service.n_granules
        assert restored.result().pattern_keys() == service.result().pattern_keys()
        restored.verify_parity()

    @pytest.mark.parametrize("reanchor_every", [0, -1])
    def test_bad_reanchor_every_rejected(self, reanchor_every):
        payload = json.loads(save_stream_checkpoint(self._seeded_service()))
        payload["reanchor_every"] = reanchor_every
        with pytest.raises(ConfigError, match="reanchor_every must be >= 1"):
            load_stream_checkpoint(json.dumps(payload))

    def test_unknown_version_rejected(self):
        with pytest.raises(ReproError) as excinfo:
            load_stream_checkpoint(json.dumps({"format_version": 99}))
        assert "99" in str(excinfo.value)

    def test_unserializable_mapper_rejected(self):
        # A frozen QuantileMapper would silently re-fit after restore,
        # so saving must refuse it instead of dropping the breakpoints.
        alphabet = Alphabet.binary()
        symbolizer = StreamingSymbolizer(
            {"T": alphabet}, mappers={"T": QuantileMapper(alphabet)}
        )
        database = StreamingDatabase(2, {"T": alphabet})
        service = StreamingMiningService(database, PARAMS, symbolizer=symbolizer)
        with pytest.raises(ReproError) as excinfo:
            save_stream_checkpoint(service)
        assert "QuantileMapper" in str(excinfo.value)

    def test_invalid_payloads_rejected(self):
        with pytest.raises(ReproError):
            load_stream_checkpoint("{not json")
        with pytest.raises(ReproError):
            load_stream_checkpoint(json.dumps([1, 2]))
        with pytest.raises(ReproError):
            load_stream_checkpoint(json.dumps({"format_version": 1}))
        # A JSON array where an object belongs.
        payload = json.loads(save_stream_checkpoint(self._seeded_service()))
        for key in ("params", "alphabets"):
            with pytest.raises(ReproError):
                load_stream_checkpoint(json.dumps({**payload, key: []}))
