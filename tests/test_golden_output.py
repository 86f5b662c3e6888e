"""Golden frequent output of E-STPM on the four seed datasets.

Each dataset is mined at the ``tiny`` profile with the thresholds that
``freqstpfts mine --min-season 4`` resolves (maxPeriod 0.4% and
minDensity 0.75% of the granules).  The frequent patterns are compared
by a sha256 of their sorted lines, each pattern with its support: the
``result_digest`` format of ``perfbench/workloads.py``.  The digests were
recorded with version 1.19.0, whose candidate gate was the near-set
bound, so a candidate gate that loses or adds a frequent pattern fails
here under either compute backend.
"""

import hashlib

import pytest

from repro import ESTPM
from repro.datasets.registry import load_dataset

#: Dataset -> (frequent patterns, digest) at the tiny profile.
GOLDEN = {
    "HFM": (1492, "dff397b79500e5a22fa2d16d4fad6fcb650e973d1fac8776fdc264e75b844da5"),
    "INF": (1376, "5d6fa2ee7e42c7e2cec90ba9a0e90fda54fb1c8d01b80a7bf4e751d974efb514"),
    "RE": (65, "0ab6d36979688e7a2700a7f6fa0ecdabdcae22ad2440d1c0dde11bbbdbb96cd7"),
    "SC": (7, "08c16318cae5cf38d8341cfafe9a18346fa03398589341f789b0c0a3b0e65341"),
}


def result_digest(patterns) -> str:
    """sha256 of the sorted ``events|relations|support`` pattern lines."""
    lines = sorted(
        f"{'/'.join(sp.pattern.events)}|{sp.pattern.describe()}|"
        f"{','.join(map(str, sp.support))}"
        for sp in patterns
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frequent_output_matches_the_golden_digest(name):
    dataset = load_dataset(name, "tiny")
    params = dataset.params(max_period_pct=0.4, min_density_pct=0.75, min_season=4)
    patterns = ESTPM(dataset.dseq(), params).mine().patterns
    assert (len(patterns), result_digest(patterns)) == GOLDEN[name]
