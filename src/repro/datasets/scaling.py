"""Synthetic scale-ups (paper Table V, synthetic rows).

The paper scales each real dataset to 1,000x more sequences and up to
10,000 time series for the scalability studies (Figs. 11-14).  We scale the
*simulated* datasets the same way:

* :func:`scale_sequences` rebuilds a dataset with a longer time axis;
* :func:`scale_series` derives extra series from the existing raw signals
  by random source selection, lag, gain and noise -- preserving the
  dataset's correlation structure so that A-STPM's MI screening stays
  meaningful at scale.

Front-end scale workloads
-------------------------
:func:`iter_symbol_blocks` is a bounded-memory generator of symbol blocks
for granule counts up to 10^6 and beyond: only one block is ever held,
so a million-granule stream ingests in a few tens of MB regardless of
total length.  Deterministic for a given ``(seed, block_granules)`` pair
-- each block is seeded independently, so block N can be regenerated
without replaying blocks 0..N-1.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

import numpy as np

from repro.datasets.dataset import Dataset, symbolize
from repro.datasets.synthetic import lagged_response, noisy
from repro.exceptions import DatasetError
from repro.symbolic.alphabet import Alphabet

#: A dataset builder: (n_sequences, n_series, seed) -> Dataset.
Builder = Callable[..., Dataset]


def scale_alphabet(alphabet_size: int) -> Alphabet:
    """A wide quantile alphabet: ``L00 < L01 < ... < L{n-1}``."""
    if alphabet_size < 2:
        raise DatasetError(f"alphabet_size must be >= 2, got {alphabet_size}")
    return Alphabet.levels([f"L{i:02d}" for i in range(alphabet_size)])


def iter_symbol_blocks(
    n_granules: int,
    ratio: int = 4,
    n_series: int = 8,
    alphabet_size: int = 4,
    seed: int = 303,
    block_granules: int = 4096,
) -> Iterator[dict[str, tuple[str, ...]]]:
    """Stream ``{series: symbols}`` blocks covering ``n_granules`` granules.

    Generator-based row emission for the million-granule scale harness:
    each yielded block holds ``block_granules * ratio`` symbols per series
    (the final block may be shorter) and earlier blocks are never
    retained, so memory is bounded by one block no matter how large
    ``n_granules`` grows.  Symbols follow a per-series seasonal carrier
    (granule index rotating through the alphabet, staggered by series)
    with deterministic pseudo-random perturbations; each block reseeds
    from ``(seed, series, block_index)``, making any block reproducible
    in isolation.  Feed the blocks to
    :meth:`~repro.streaming.ingest.StreamingDatabase.append_symbols` or
    collect a bench-sized prefix for batch construction.
    """
    if n_granules < 1:
        raise DatasetError(f"n_granules must be >= 1, got {n_granules}")
    if ratio < 1:
        raise DatasetError(f"ratio must be >= 1, got {ratio}")
    if block_granules < 1:
        raise DatasetError(f"block_granules must be >= 1, got {block_granules}")
    symbols = scale_alphabet(alphabet_size).symbols
    names = [f"S{index:03d}" for index in range(n_series)]
    n_blocks = (n_granules + block_granules - 1) // block_granules
    for block_index in range(n_blocks):
        first = block_index * block_granules
        count = min(block_granules, n_granules - first)
        block: dict[str, tuple[str, ...]] = {}
        for series_index, name in enumerate(names):
            rng = random.Random((seed, series_index, block_index))
            out: list[str] = []
            for granule in range(first, first + count):
                # Seasonal carrier: the granule's dominant symbol rotates
                # through the alphabet, staggered per series; ~20% of
                # granules perturb to a random symbol.
                dominant = (granule // 2 + series_index) % len(symbols)
                if rng.random() < 0.2:
                    dominant = rng.randrange(len(symbols))
                symbol = symbols[dominant]
                other = symbols[(dominant + 1) % len(symbols)]
                flip = rng.randrange(ratio + 1)
                out.extend([symbol] * (ratio - flip))
                out.extend([other] * flip)
            block[name] = tuple(out)
        yield block


def scale_sequences(builder: Builder, n_sequences: int, seed: int = 101, **kwargs) -> Dataset:
    """Rebuild a dataset with ``n_sequences`` temporal sequences."""
    if n_sequences < 4:
        raise DatasetError(f"n_sequences must be >= 4, got {n_sequences}")
    dataset = builder(n_sequences=n_sequences, seed=seed, **kwargs)
    dataset.name = f"{dataset.name}-syn-seq{n_sequences}"
    return dataset


def scale_series(
    base: Dataset,
    n_series: int,
    seed: int = 202,
    derived_noise: float = 0.35,
) -> Dataset:
    """Extend a dataset to ``n_series`` by deriving new series.

    Each derived series picks a random source series, applies a random lag
    (0..3 sequences worth of fine granules), a random gain, and fresh
    noise.  About a third of the derived series are pure noise, so the MI
    screening has genuinely uncorrelated series to prune (Table XI).

    Like the paper's synthetic datasets (which are generated wholesale
    rather than extended), the scaled dataset is re-symbolized uniformly
    with the default 3-level alphabet; the base raw signals are preserved
    verbatim but their symbols may re-bin.
    """
    if n_series < base.n_series:
        raise DatasetError(
            f"n_series {n_series} is below the base dataset's {base.n_series}"
        )
    rng = np.random.default_rng(seed)
    raw: dict[str, np.ndarray] = dict(base.raw)
    source_names = list(base.raw)
    n_instants = len(next(iter(base.raw.values())))
    for index in range(n_series - base.n_series):
        name = f"Syn{index:05d}"
        if rng.random() < 0.35:
            # Uncorrelated noise series -- prunable by A-STPM.
            raw[name] = rng.normal(0.0, 1.0, size=n_instants)
            continue
        source = raw[source_names[rng.integers(len(source_names))]]
        lag = int(rng.integers(0, 3 * base.ratio + 1))
        gain = float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.8 else -1)
        derived = lagged_response(source, lag=lag, gain=gain)
        raw[name] = noisy(rng, derived, derived_noise * max(derived.std(), 1e-9))
    scaled = symbolize(
        name=f"{base.name}-syn-ser{n_series}",
        raw=raw,
        levels={},
        ratio=base.ratio,
        dist_interval=base.dist_interval,
        description=f"{base.description} (scaled to {n_series} series)",
        sequence_unit=base.sequence_unit,
    )
    return scaled
