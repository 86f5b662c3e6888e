"""Synthetic scale-ups (paper Table V, synthetic rows).

The paper scales each real dataset to 1,000x more sequences and up to
10,000 time series for the scalability studies (Figs. 11-14).  We scale the
*simulated* datasets the same way:

* :func:`scale_sequences` rebuilds a dataset with a longer time axis;
* :func:`scale_series` derives extra series from the existing raw signals
  by random source selection, lag, gain and noise -- preserving the
  dataset's correlation structure so that A-STPM's MI screening stays
  meaningful at scale.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.datasets.dataset import Dataset, symbolize
from repro.datasets.synthetic import lagged_response, noisy
from repro.exceptions import DatasetError

#: A dataset builder: (n_sequences, n_series, seed) -> Dataset.
Builder = Callable[..., Dataset]


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
