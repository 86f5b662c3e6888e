"""Rolling-symbolizer refit: incremental, O(block), bit-identical.

The naive rolling refit re-sorted the full raw history on every push
(quadratic over a stream's life).  The incremental refit sorted-inserts
only the pushed block into a maintained sorted twin and interpolates the
breakpoints from it, so each push costs O(block x log history) while the
breakpoints stay bit-identical to a full re-fit over the whole history.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import set_compute_backend
from repro.streaming import StreamingSymbolizer
from repro.streaming.ingest import quantile_thresholds
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.series import TimeSeries


@pytest.fixture
def alphabet():
    return Alphabet.levels(["L", "M", "H"])


def _push_blocks(symbolizer, blocks):
    out = []
    for block in blocks:
        out.append(symbolizer.push({"S": block})["S"])
    return out


class TestBitIdenticalBreakpoints:
    def test_matches_full_refit_after_every_push(self, alphabet):
        rng = random.Random(7)
        symbolizer = StreamingSymbolizer({"S": alphabet}, mode="rolling")
        history: list[float] = []
        for _ in range(40):
            block = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, 9))]
            symbolizer.push({"S": block})
            history.extend(block)
            refit = quantile_thresholds(history, alphabet)
            # _rolling_refit with an empty block re-interpolates from the
            # sorted twin without inserting anything.
            live = symbolizer._rolling_refit("S", alphabet, [])
            assert live.breakpoints == refit.breakpoints

    def test_symbols_match_fresh_symbolizer_per_push(self, alphabet):
        # Each push must encode with breakpoints fitted on ALL values seen
        # so far -- the same symbols a fresh rolling symbolizer replaying
        # the stream block by block would emit.
        rng = random.Random(13)
        blocks = [
            [rng.gauss(0.0, 2.0) for _ in range(rng.randint(1, 6))]
            for _ in range(25)
        ]
        incremental = _push_blocks(
            StreamingSymbolizer({"S": alphabet}, mode="rolling"), blocks
        )
        replayed = _push_blocks(
            StreamingSymbolizer({"S": alphabet}, mode="rolling"), blocks
        )
        assert incremental == replayed

    def test_parity_across_compute_backends(self, alphabet):
        # Smooth values plus hostile ones: a constant stream, few
        # distinct values (the breakpoints land on pushed values) and
        # huge finite values.  Each stream starts with one single-value
        # push, a history shorter than the alphabet.
        draws = {
            "uniform": lambda rng: rng.uniform(-1.0, 1.0),
            "constant": lambda rng: 2.5,
            "ties": lambda rng: rng.choice((-1.0, 0.0, 0.1, 0.5, 1.0)),
            "huge": lambda rng: rng.choice(
                (-1e308, 1e308, 0.0, rng.uniform(-1.0, 1.0) * 1e308)
            ),
        }
        for kind, draw in draws.items():
            rng = random.Random(99)
            blocks = [[draw(rng)]] + [
                [draw(rng) for _ in range(rng.randint(1, 5))] for _ in range(20)
            ]
            streams = []
            for backend in (None, "python"):
                set_compute_backend(backend)
                try:
                    symbolizer = StreamingSymbolizer({"S": alphabet}, mode="rolling")
                    outcomes = []
                    for block in blocks:
                        try:
                            outcomes.append(symbolizer.push({"S": block})["S"])
                        except Exception as exc:  # noqa: BLE001 -- the type is compared
                            outcomes.append(type(exc))
                    streams.append(outcomes)
                finally:
                    set_compute_backend(None)
            assert streams[0] == streams[1], kind


class TestRefitCost:
    def test_cost_is_block_sized_not_history_sized(self, alphabet):
        # The regression this file pins: the refit's work units scale
        # with the pushed block (plus O(alphabet) interpolation), never
        # with the accumulated history.
        rng = random.Random(5)
        symbolizer = StreamingSymbolizer({"S": alphabet}, mode="rolling")
        symbolizer.push({"S": [rng.random() for _ in range(500)]})
        for block_size in (1, 3, 7):
            symbolizer.push({"S": [rng.random() for _ in range(block_size)]})
            assert symbolizer.last_refit_cost == block_size + (len(alphabet) - 1)
        assert len(symbolizer.history["S"]) == 511  # history kept growing

    def test_frozen_mode_never_refits(self, alphabet):
        symbolizer = StreamingSymbolizer({"S": alphabet}, mode="frozen")
        symbolizer.push({"S": [0.1, 0.5, 0.9, 0.3, 0.7]})
        symbolizer.push({"S": [0.2, 0.8]})
        assert symbolizer.last_refit_cost == 0


class TestCheckpointHeal:
    def test_restored_history_rebuilds_sorted_twin(self, alphabet):
        rng = random.Random(21)
        symbolizer = StreamingSymbolizer({"S": alphabet}, mode="rolling")
        symbolizer.push({"S": [rng.random() for _ in range(50)]})
        # Simulate a checkpoint restore: the history is swapped wholesale
        # and the sorted twin silently disagrees with it.
        restored = [rng.uniform(10.0, 20.0) for _ in range(30)]
        symbolizer.history["S"] = list(restored)
        block = [12.5, 17.0]
        symbols = symbolizer.push({"S": block})["S"]
        restored.extend(block)
        # The refit must have healed: breakpoints now reflect the restored
        # history plus the new block, exactly as a full refit computes.
        expected = quantile_thresholds(restored, alphabet)
        assert symbolizer._rolling_refit("S", alphabet, []).breakpoints == (
            expected.breakpoints
        )
        assert symbols == expected.encode(TimeSeries("S", tuple(block))).symbols
