"""Property-based tests for the coarsening fold (the multigrain hot path).

The soundness of the whole fold-derived engine rests on two equalities,
asserted here for random databases and ratios:

* ``TemporalSequenceDatabase.coarsen(factor).event_support()`` equals
  the supports recomputed by scanning a freshly rebuilt coarse DSEQ,
  and both equal the plain scalar fold of the fine supports;
* ``TemporalSequenceDatabase.coarsen(factor)`` produces exactly the rows
  ``build_sequence_database`` would produce at the coarse ratio.

The fold itself is checked against the plain scalar fold of a sorted
position list, ``p -> (p - 1) // factor + 1``.  The draws reach both
builders and so both folds: streams shorter than ``_NUMPY_MIN_SYMBOLS``
take the pure-Python builder, longer ones the numpy builder and its
array fold when numpy is on.
"""

from dseq_oracle import support_dsyb
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, SymbolicDatabase, build_sequence_database
from repro.transform.sequence_db import _NUMPY_MIN_SYMBOLS

MAX_LENGTH = 48
#: Stream lengths that keep at least ``_NUMPY_MIN_SYMBOLS`` symbols at
#: every fine ratio drawn below (at most 4), so the numpy builder runs.
LONG_LENGTHS = st.integers(_NUMPY_MIN_SYMBOLS + 3, _NUMPY_MIN_SYMBOLS + 100)


def _scalar_fold(positions, factor, n_coarse):
    """``p -> (p - 1) // factor + 1``, repeats and granules past
    ``n_coarse`` dropped."""
    return [q for q in sorted({(p - 1) // factor + 1 for p in positions}) if q <= n_coarse]


@st.composite
def fold_cases(draw):
    """A random DSYB plus a fine ratio and a coarsening factor.

    Now and then the factor is 1 or the whole fine row count, and where
    the coarse level drops a trailing block of fine rows, a series ``T``
    may hold its second symbol only there: an event whose fold is empty.
    """
    n_series = draw(st.integers(1, 3))
    length = draw(st.one_of(st.integers(8, MAX_LENGTH), LONG_LENGTHS))
    alphabet = draw(st.sampled_from(["01", "abc"]))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from(alphabet), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    base_ratio = draw(st.integers(1, 4).filter(lambda r: length // r >= 2))
    n_fine = length // base_ratio
    factor = draw(
        st.one_of(st.integers(2, 4), st.sampled_from([1, n_fine])).filter(
            lambda f: n_fine // f >= 1
        )
    )
    kept_end = (n_fine // factor) * factor * base_ratio
    fine_end = n_fine * base_ratio
    if kept_end < fine_end and draw(st.booleans()):
        low, high = alphabet[0], alphabet[1]
        rows["T"] = low * kept_end + high * (fine_end - kept_end) + low * (length - fine_end)
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
        event: _scalar_fold(support, factor, n_coarse)
        for event, support in fine.event_support().items()
    }
    folded = {event: positions for event, positions in folded.items() if positions}
    assert folded == {event: list(support) for event, support in recomputed.items()}
    derived = fine.coarsen(factor).event_support()
    assert derived == recomputed  # the bits
    for event, support in derived.items():
        assert support.positions() == recomputed[event].positions()


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
    """One event's fold in a database ending at its last position (the
    trailing partial block dropped) and in one long enough for the numpy
    builder."""
    ordered = sorted(positions)
    for n_fine in (max(ordered + [factor]), max(ordered + [_NUMPY_MIN_SYMBOLS])):
        fine = build_sequence_database(support_dsyb({"x": ordered}, n_fine), 1)
        expected = _scalar_fold(ordered, factor, n_fine // factor)
        assert list(fine.coarsen(factor).event_support().get("x:1", ())) == expected
