"""Property and unit tests for the SupportSet engine.

The bitset representation must be observationally equivalent to plain
sorted-list algebra on every operation the miners use: intersection
(against ``sorted(set(a) & set(b))``), cardinality, ascending iteration,
membership, equality.  The machine-word kernels (``bit_positions`` /
``_pack_bits``) must match their scalar reference semantics on masks
straddling the small/large cutovers, and so must the supports the
sequence database folds to a coarser level and packs, a whole level at
once (``TemporalSequenceDatabase.coarsen`` / ``event_support``), under
both compute backends.
"""

import pickle

import pytest
from dseq_oracle import each_backend, support_dsyb
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_sequence_database
from repro.core.supportset import (
    _SMALL_BITS,
    SupportSet,
    _pack_bits,
    as_positions,
    bit_positions,
)
from repro.exceptions import ConfigError, TransformError

positions_lists = st.lists(
    st.integers(min_value=1, max_value=400), unique=True, max_size=60
).map(sorted)


@given(positions_lists)
@settings(max_examples=100, deadline=None)
def test_roundtrip_equivalence(positions):
    support = SupportSet.from_positions(positions)
    assert list(support) == positions
    assert support.positions() == tuple(positions)
    assert len(support) == len(positions)
    assert bool(support) == bool(positions)
    assert support == positions
    assert as_positions(support) == tuple(positions)


@given(positions_lists, positions_lists)
@settings(max_examples=100, deadline=None)
def test_intersection_matches_list_algebra(left, right):
    expected = sorted(set(left) & set(right))
    both = SupportSet.from_positions(left) & SupportSet.from_positions(right)
    assert list(both) == expected
    assert len(both) == len(expected)


@given(positions_lists, positions_lists)
@settings(max_examples=50, deadline=None)
def test_cross_backend_intersection(left, right):
    # A support set intersects with a plain position sequence as well as
    # with another support set, and the result is always a SupportSet.
    expected = sorted(set(left) & set(right))
    support = SupportSet.from_positions(left)
    for other in (right, tuple(right), SupportSet.from_positions(right)):
        both = support & other
        assert type(both) is SupportSet
        assert list(both) == expected


@given(positions_lists, st.integers(min_value=0, max_value=401))
@settings(max_examples=100, deadline=None)
def test_membership_matches(positions, probe):
    assert (probe in SupportSet.from_positions(positions)) == (probe in positions)


@given(positions_lists)
@settings(max_examples=50, deadline=None)
def test_indexing_and_slicing(positions):
    support = SupportSet.from_positions(positions)
    if positions:
        assert support[0] == positions[0]
        assert support[-1] == positions[-1]
    assert support[1:] == positions[1:]
    assert support[:3] == positions[:3]


@given(positions_lists)
@settings(max_examples=50, deadline=None)
def test_pickle_roundtrip(positions):
    support = SupportSet.from_positions(positions)
    clone = pickle.loads(pickle.dumps(support))
    assert clone == support
    assert type(clone) is SupportSet


class TestUnits:
    def test_bitset_stores_big_int(self):
        support = SupportSet.from_positions([1, 3, 5])
        assert support.bits == 0b101010
        assert len(support) == 3

    def test_unsorted_duplicated_input_is_normalized(self):
        raw = [9, 3, 5, 3, 9]
        assert list(SupportSet.from_positions(raw)) == sorted(set(raw))

    def test_equality_against_lists_and_tuples(self):
        support = SupportSet.from_positions([2, 4])
        assert support == [2, 4]
        assert support == (2, 4)
        assert [2, 4] == support  # reflected comparison
        assert support != [2, 5]
        assert support != "24"

    def test_hash_consistent_with_equality(self):
        a = SupportSet.from_positions([1, 9])
        b = SupportSet.from_positions((9, 1))
        assert a == b
        assert hash(a) == hash(b) == hash((1, 9))

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigError):
            SupportSet(-1)

    def test_as_positions_passthrough(self):
        raw = [1, 2, 3]
        assert as_positions(raw) is raw
        assert as_positions(SupportSet.from_positions(raw)) == (1, 2, 3)

    def test_from_sorted_keeps_the_positions_it_packs(self):
        granules = [2, 5, 9]
        support = SupportSet.from_sorted(granules)
        assert support.bits == SupportSet.from_positions(granules).bits
        assert support.positions() == (2, 5, 9)
        with pytest.raises(ConfigError):
            SupportSet.from_sorted([-1, 3])


# ---------------------------------------------------------------------------
# Machine-word kernels and the level fold vs their scalar reference semantics
# ---------------------------------------------------------------------------

#: Position lists that straddle the small/large cutover of the kernels:
#: masks shorter and longer than ``_SMALL_BITS`` bits.
kernel_positions = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=_SMALL_BITS - 64, max_value=_SMALL_BITS + 64),
        st.integers(min_value=1, max_value=4 * _SMALL_BITS),
    ),
    unique=True,
    max_size=80,
).map(sorted)

coarsen_factors = st.integers(min_value=1, max_value=9)
#: Fine granules past the last position: the trailing block the fold
#: drops is 0 to 8 granules long for the factors above.
trailing_granules = st.integers(min_value=0, max_value=17)

def _reference_coarse(positions, factor, n_granules):
    """Scalar semantics reference: fine p -> (p - 1) // factor + 1."""
    coarse = sorted({(p - 1) // factor + 1 for p in positions})
    if n_granules is not None:
        coarse = [q for q in coarse if q <= n_granules]
    return coarse


def _fold_case(positions, factor, trailing):
    """The fine ratio-1 database holding ``positions`` as event ``x:1``,
    with ``trailing`` more granules (and at least ``factor``), and the
    scalar fold of ``positions`` onto its ``factor``-coarser level."""
    n_fine = max(max(positions, default=1) + trailing, factor)
    fine = build_sequence_database(support_dsyb({"x": positions}, n_fine), 1)
    return fine, _reference_coarse(positions, factor, n_fine // factor)


@given(kernel_positions)
@settings(max_examples=150, deadline=None)
def test_pack_bits_and_bit_positions_roundtrip(positions):
    bits = _pack_bits(positions)
    assert bits == sum(1 << p for p in positions)
    assert bit_positions(bits) == positions


@given(kernel_positions, coarsen_factors, trailing_granules)
@settings(max_examples=100, deadline=None)
def test_coarsen_bits_matches_scalar_semantics(positions, factor, trailing):
    """The bits of a fold-derived support: the level fold, then the
    level packing, against the scalar fold, under both backends."""

    def check():
        fine, expected = _fold_case(positions, factor, trailing)
        folded = fine.coarsen(factor).event_support().get("x:1", SupportSet())
        assert folded.bits == sum(1 << q for q in expected)

    each_backend(check)


@given(kernel_positions, coarsen_factors, trailing_granules)
@settings(max_examples=100, deadline=None)
def test_supportset_coarsen_matches_scalar_fold(positions, factor, trailing):
    """The positions a fold-derived support is seeded with, under both
    backends; an empty fold leaves the event out."""

    def check():
        fine, expected = _fold_case(positions, factor, trailing)
        supports = fine.coarsen(factor).event_support()
        assert ("x:1" in supports) == bool(expected)
        assert list(supports.get("x:1", ())) == expected

    each_backend(check)


def test_large_mask_kernels_cross_chunk_boundaries():
    """One deterministic case pinning the large-mask paths: every 64-bit
    word boundary of ``bit_positions`` is straddled, and the level fold
    and packing run on masks longer than ``_SMALL_BITS`` bits, with and
    without a trailing block to drop, under both backends."""
    factor = 3
    positions = list(range(1, factor * 512 * 3 + 7, 2))
    bits = _pack_bits(positions)
    assert bits.bit_length() > _SMALL_BITS
    assert bit_positions(bits) == positions

    def check():
        for n_fine in (positions[-1], positions[-1] + 1, positions[-1] + 2, 512 * factor - 1):
            kept = [p for p in positions if p <= n_fine]
            fine = build_sequence_database(support_dsyb({"x": kept}, n_fine), 1)
            assert fine.event_support()["x:1"].bits == _pack_bits(kept)
            folded = fine.coarsen(factor).event_support()["x:1"]
            expected = _reference_coarse(kept, factor, n_fine // factor)
            assert folded.positions() == tuple(expected)
            assert folded.bits == _pack_bits(expected)

    each_backend(check)


def test_pack_bits_rejects_negative_positions():
    with pytest.raises(ConfigError):
        _pack_bits([4, -1])
    with pytest.raises(ConfigError):
        SupportSet.from_positions([-2])


def test_coarsen_rejects_bad_factor():
    def check():
        fine = build_sequence_database(support_dsyb({"x": [1, 3]}, 4), 1)
        for factor in (0, -1, 5):  # below 1, or more than the 4 rows
            with pytest.raises(TransformError):
                fine.coarsen(factor)

    each_backend(check)
