"""Property-based tests for the coarsening fold (the multigrain hot path).

The soundness of the whole fold-derived engine rests on two equalities,
asserted here for random databases and ratios:

* ``SupportSet.coarsen(factor)`` on a fine event support equals the
  support recomputed by scanning a freshly rebuilt coarse DSEQ, and so
  does ``TemporalSequenceDatabase.coarsen(factor).event_support()``;
* ``TemporalSequenceDatabase.coarsen(factor)`` produces exactly the rows
  ``build_sequence_database`` would produce at the coarse ratio.

The fold itself is checked against the plain scalar fold of a sorted
position list, ``p -> (p - 1) // factor + 1``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, SymbolicDatabase, build_sequence_database
from repro.core.supportset import SupportSet

MAX_LENGTH = 48


@st.composite
def fold_cases(draw):
    """A random DSYB plus a fine ratio and a coarsening factor."""
    n_series = draw(st.integers(1, 3))
    length = draw(st.integers(8, MAX_LENGTH))
    alphabet = draw(st.sampled_from(["01", "abc"]))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from(alphabet), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    base_ratio = draw(st.integers(1, 4).filter(lambda r: length // r >= 2))
    n_fine = length // base_ratio
    factor = draw(st.integers(1, 4).filter(lambda f: n_fine // f >= 1))
    dsyb = SymbolicDatabase.from_rows(rows, Alphabet(tuple(alphabet)))
    return dsyb, base_ratio, factor


@given(fold_cases())
@settings(max_examples=80, deadline=None)
def test_folded_supports_equal_rebuilt_coarse_supports(case):
    dsyb, base_ratio, factor = case
    fine = build_sequence_database(dsyb, base_ratio)
    coarse = build_sequence_database(dsyb, base_ratio * factor)
    n_coarse = len(coarse)
    recomputed = coarse.event_support()
    folded = {
        event: support.coarsen(factor, n_coarse)
        for event, support in fine.event_support().items()
    }
    folded = {event: support for event, support in folded.items() if support}
    assert set(folded) == set(recomputed)
    for event, support in folded.items():
        assert support == recomputed[event]
    assert fine.coarsen(factor).event_support() == recomputed


@given(fold_cases())
@settings(max_examples=80, deadline=None)
def test_coarsened_rows_equal_rebuilt_rows(case):
    dsyb, base_ratio, factor = case
    fine = build_sequence_database(dsyb, base_ratio)
    derived = fine.coarsen(factor)
    rebuilt = build_sequence_database(dsyb, base_ratio * factor)
    assert derived.ratio == rebuilt.ratio == base_ratio * factor
    assert len(derived) == len(rebuilt)
    for derived_row, rebuilt_row in zip(derived.rows, rebuilt.rows):
        assert derived_row.position == rebuilt_row.position
        assert derived_row.instances == rebuilt_row.instances
        assert derived_row.events() == rebuilt_row.events()


@given(
    st.lists(st.integers(1, 200), min_size=0, max_size=40, unique=True),
    st.integers(1, 7),
)
@settings(max_examples=120, deadline=None)
def test_fold_matches_the_scalar_fold(positions, factor):
    ordered = sorted(positions)
    expected = sorted({(p - 1) // factor + 1 for p in ordered})
    assert list(SupportSet.from_positions(ordered).coarsen(factor)) == expected
    limit = max(expected, default=0) // 2
    capped = [p for p in expected if p <= limit]
    assert list(SupportSet.from_positions(ordered).coarsen(factor, limit)) == capped
