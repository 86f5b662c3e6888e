"""Property-based streaming parity: random streams, every prefix.

On arbitrary small symbolic databases, feeding the granule stream one
granule at a time through :class:`IncrementalSTPM` must match batch
E-STPM after *every* prefix, and every advance's delta must match the
diff of the results around it -- the property version of the
seed-dataset parity tests, exploring shapes (alphabets, ratios,
thresholds) the seed profiles do not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from delta_oracle import advance_checked

from repro import (
    ESTPM,
    IncrementalSTPM,
    MiningParams,
    SymbolicDatabase,
    build_sequence_database,
)
from repro.core.results import results_equivalent


@st.composite
def streaming_inputs(draw):
    n_series = draw(st.integers(1, 3))
    length = draw(st.integers(8, 28))
    alphabet = draw(st.sampled_from(["01", "abc"]))
    rows = {
        f"S{i}": "".join(
            draw(
                st.lists(
                    st.sampled_from(alphabet), min_size=length, max_size=length
                )
            )
        )
        for i in range(n_series)
    }
    ratio = draw(st.sampled_from([2, 3]))
    params = MiningParams(
        max_period=draw(st.integers(1, 3)),
        min_density=draw(st.integers(1, 2)),
        dist_interval=(draw(st.integers(0, 1)), draw(st.integers(4, 10))),
        min_season=draw(st.integers(1, 2)),
        max_pattern_length=draw(st.integers(1, 3)),
    )
    return rows, ratio, params


@settings(max_examples=30, deadline=None)
@given(streaming_inputs())
def test_streaming_equals_batch_at_every_prefix(case):
    rows, ratio, params = case
    from repro.symbolic import Alphabet

    observed = sorted({symbol for row in rows.values() for symbol in row})
    dsyb = SymbolicDatabase.from_rows(rows, Alphabet(tuple(observed)))
    dseq = build_sequence_database(dsyb, ratio)
    miner = IncrementalSTPM.empty(ratio, params)
    seasonal_map: dict = {}
    for position, row in enumerate(dseq.rows, start=1):
        _, seasonal_map = advance_checked(miner, [row], seasonal_map)
        batch = ESTPM(dseq.prefix(position), params).mine()
        assert results_equivalent(miner.result(), batch), (
            f"prefix {position} diverged (ratio={ratio})"
        )
