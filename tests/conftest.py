"""Shared fixtures: the paper's running example, tiny datasets, and a
compute-backend fixture that runs a test under numpy and pure Python.

The running example is Tables II/IV of the paper: five binary device
series (C: Cooker, D: Dish washer, F: Food processor, M: Microwave,
N: Nespresso) over 42 five-minute granules, mapped 3-to-1 into fourteen
15-minute sequences.  The paper states several exact facts about it
(candidate events, season counts, near support sets) that the golden
tests assert.
"""

from __future__ import annotations

import pytest

from repro import MiningParams, SymbolicDatabase, build_sequence_database
from repro.core.config import set_compute_backend
from repro.datasets import load_dataset


#: Table II, transcribed row by row (42 symbols each).
PAPER_ROWS = {
    "C": "110100110000000000111111000000100110000110",
    "D": "100100110110000000111111000000100100110110",
    "F": "001011001001111000000000111111001001001001",
    "M": "111100111110111111000111111111111000111000",
    "N": "110111111110111111000000111111111111111000",
}


@pytest.fixture(scope="session")
def paper_dsyb() -> SymbolicDatabase:
    """The symbolic database of Table II."""
    return SymbolicDatabase.from_rows(PAPER_ROWS)


@pytest.fixture(scope="session")
def paper_dseq(paper_dsyb):
    """The temporal sequence database of Table IV (ratio 3)."""
    return build_sequence_database(paper_dsyb, ratio=3)


@pytest.fixture(scope="session")
def paper_params() -> MiningParams:
    """The running example's thresholds (Secs. III-E / IV-B/IV-C)."""
    return MiningParams(
        max_period=2,
        min_density=3,
        dist_interval=(4, 10),
        min_season=2,
    )


@pytest.fixture(scope="session")
def tiny_re():
    """A tiny RE dataset for integration tests."""
    return load_dataset("RE", "tiny")


@pytest.fixture(scope="session")
def tiny_inf():
    """A tiny INF dataset for integration tests."""
    return load_dataset("INF", "tiny")


@pytest.fixture(params=[None, "python"], ids=["numpy", "pure"])
def compute_backend(request):
    """Run a test under both compute backends."""
    set_compute_backend(request.param)
    yield request.param
    set_compute_backend(None)
