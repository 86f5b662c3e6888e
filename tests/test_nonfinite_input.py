"""NaN and infinite raw values are rejected at the input boundary.

Left through, a NaN reaches the quantile mapper, where the numpy twin and
the pure-Python twin encode it differently: one 200-point series with 5
NaNs encoded as 200 ``L`` under numpy and as a ``L``/``M``/``H`` mix
under pure Python.  ``TimeSeries``, ``load_csv_series`` and
``StreamingSymbolizer.push`` therefore raise :class:`DatasetError`, the
same way under both compute backends.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.io import load_csv_series
from repro.streaming import StreamingSymbolizer
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.series import TimeSeries

LMH = Alphabet.levels(("L", "M", "H"))


def _series_with_nans() -> list[float]:
    """200 smooth points with 5 NaNs -- the twin-divergence reproducer."""
    rng = random.Random(5)
    values = [math.sin(i / 7) + rng.gauss(0, 0.1) for i in range(200)]
    for index in (17, 40, 99, 150, 180):
        values[index] = math.nan
    return values


def test_nan_series_rejected_under_both_backends(compute_backend):
    values = _series_with_nans()
    with pytest.raises(DatasetError, match=r"'T' .*nan at index 17"):
        TimeSeries("T", tuple(values))
    with pytest.raises(DatasetError, match="at index 17"):
        TimeSeries.from_array("T", values)
    with pytest.raises(DatasetError, match="at index 17"):
        TimeSeries.from_array("T", np.asarray(values, dtype=np.float64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("index", [0, 17, 199])
def test_from_array_names_the_first_non_finite_index(dtype, index, compute_backend):
    # NaN first, in the middle, last; a later inf never hides an earlier NaN.
    values = np.linspace(-1.0, 1.0, 200).astype(dtype)
    values[index] = np.nan
    if index < 199:
        values[199] = np.inf
    with pytest.raises(DatasetError, match=rf"'T' .*nan at index {index}$"):
        TimeSeries.from_array("T", values)
    with pytest.raises(DatasetError, match=rf"at index {index}$"):
        TimeSeries.from_array("T", values.tolist())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_every_non_finite_kind_rejected(bad, compute_backend):
    with pytest.raises(DatasetError, match="at index 2"):
        TimeSeries("T", (0.0, 1.0, bad, 3.0))


def test_csv_names_file_line_and_column(tmp_path, compute_backend):
    path = tmp_path / "data.csv"
    path.write_text("A,B\n1,2\n3,4\n5,inf\n")
    with pytest.raises(DatasetError) as excinfo:
        load_csv_series(path)
    message = str(excinfo.value)
    assert f"{path}:4:" in message
    assert "'B'" in message
    path.write_text("A,B\nnan,2\n3,4\n")
    with pytest.raises(DatasetError, match=r":2: .*'A'"):
        load_csv_series(path)


@pytest.mark.parametrize("mode", ["frozen", "rolling"])
def test_push_rejects_without_mutating(mode, compute_backend):
    symbolizer = StreamingSymbolizer.fit(
        {"T": [0.0, 1.0, 2.0], "U": [0.0, 1.0, 2.0]},
        {"T": LMH, "U": LMH},
        mode=mode,
    )
    symbolizer.push({"T": [0.0, 1.0, 2.0], "U": [0.0, 1.0, 2.0]})
    with pytest.raises(DatasetError, match=r"'U'.*index 1 .*instant 4"):
        symbolizer.push({"T": [1.0, 2.0], "U": [1.0, math.nan]})
    # Atomic: neither series took any of the rejected push.
    assert symbolizer.history == {"T": [0.0, 1.0, 2.0], "U": [0.0, 1.0, 2.0]}
    pushed = symbolizer.push({"T": [2.0], "U": [0.0]})
    assert pushed["U"] == ("L",)
    assert len(pushed["T"]) == 1
    assert symbolizer.history == {"T": [0.0, 1.0, 2.0, 2.0], "U": [0.0, 1.0, 2.0, 0.0]}
