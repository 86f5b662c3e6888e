"""Golden tests: Table II -> Table IV transformation (paper Defs. 3.9-3.11),
and the whole-level support steps against plain loops under both
compute backends."""

import pytest
from dseq_oracle import support_dsyb
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SymbolicDatabase, build_sequence_database
from repro.events import EventInstance
from repro.exceptions import TransformError
from repro.transform.sequence_db import _NUMPY_MIN_SYMBOLS


class TestPaperTableIV:
    def test_row_count(self, paper_dseq):
        assert len(paper_dseq) == 14

    def test_h1_sequence_for_series_c(self, paper_dseq):
        # H1: (C:1,[G1,G2]), (C:0,[G3,G3]) per Table IV.
        row = paper_dseq.sequence_at(1)
        assert row.instances_of("C:1") == [EventInstance("C:1", 1, 2)]
        assert row.instances_of("C:0") == [EventInstance("C:0", 3, 3)]

    def test_h2_sequence_for_series_c(self, paper_dseq):
        row = paper_dseq.sequence_at(2)
        assert row.instances_of("C:1") == [EventInstance("C:1", 4, 4)]
        assert row.instances_of("C:0") == [EventInstance("C:0", 5, 6)]

    def test_h7_run_is_cut_at_granule_boundary(self, paper_dseq):
        # C is ON during G19..G24; Table IV shows (C:1,[G19,G21]) in H7 and
        # (C:1,[G22,G24]) in H8.
        assert paper_dseq.sequence_at(7).instances_of("C:1") == [
            EventInstance("C:1", 19, 21)
        ]
        assert paper_dseq.sequence_at(8).instances_of("C:1") == [
            EventInstance("C:1", 22, 24)
        ]

    def test_h5_all_series(self, paper_dseq):
        # H5: C:0, D:0, F:1, M:1, N:1 all spanning G13..G15.
        row = paper_dseq.sequence_at(5)
        expected = {
            "C:0": (13, 15), "D:0": (13, 15), "F:1": (13, 15),
            "M:1": (13, 15), "N:1": (13, 15),
        }
        for event, (start, end) in expected.items():
            assert row.instances_of(event) == [EventInstance(event, start, end)]
        assert len(row) == 5

    def test_event_support_of_m1(self, paper_dseq):
        # Sec. IV-B: SUP(M:1) = {H1..H6, H8..H11, H13}.
        assert paper_dseq.event_support()["M:1"] == [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13]

    def test_event_support_of_n0_and_m0(self, paper_dseq):
        support = paper_dseq.event_support()
        assert support["N:0"] == [1, 4, 7, 8, 14]
        assert support["M:0"] == [2, 4, 7, 12, 14]

    def test_total_events(self, paper_dseq):
        # Five binary series -> 10 distinct events.
        assert len(paper_dseq.events()) == 10

    def test_describe_row(self, paper_dseq):
        text = paper_dseq.describe_row(1)
        assert "(C:1,[G1,G2])" in text
        assert "(M:1,[G1,G3])" in text


class TestBuildValidation:
    def test_trailing_partial_block_dropped(self):
        dsyb = SymbolicDatabase.from_rows({"C": "1101"})
        dseq = build_sequence_database(dsyb, ratio=3)
        assert len(dseq) == 1

    def test_instances_within_granule_sorted(self):
        dsyb = SymbolicDatabase.from_rows({"A": "01", "B": "11"})
        dseq = build_sequence_database(dsyb, ratio=2)
        row = dseq.sequence_at(1)
        # B:1 spans [1,2] and sorts before A:0 at [1,1].
        assert row.instances[0] == EventInstance("B:1", 1, 2)

    def test_ratio_validation(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10"})
        with pytest.raises(TransformError):
            build_sequence_database(dsyb, ratio=0)
        with pytest.raises(TransformError):
            build_sequence_database(dsyb, ratio=3)

    def test_empty_dsyb_rejected(self):
        with pytest.raises(TransformError):
            build_sequence_database(SymbolicDatabase(), ratio=1)

    def test_sequence_at_bounds(self, paper_dseq):
        with pytest.raises(TransformError):
            paper_dseq.sequence_at(0)
        with pytest.raises(TransformError):
            paper_dseq.sequence_at(15)

    def test_total_instances(self):
        dsyb = SymbolicDatabase.from_rows({"C": "1100"})
        dseq = build_sequence_database(dsyb, ratio=2)
        assert dseq.total_instances() == 2

    def test_source_names_kept(self, paper_dseq):
        assert paper_dseq.source_names == ["C", "D", "F", "M", "N"]


# ---------------------------------------------------------------------------
# The whole-level steps (fold, packing) against plain loops
# ---------------------------------------------------------------------------

#: Positions on and around byte boundaries of the level packing.
BYTE_EDGES = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65)

#: ``compute_backend`` only sets the process-wide backend, which every
#: example of a test runs under.
BACKEND_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def level_cases(draw):
    """Supports of one to four events over a horizon short enough for
    the pure-Python builder or long enough for the numpy one, with
    single-position supports and positions on byte boundaries, plus a
    coarsening factor: 2 to 5, 1, or the whole horizon."""
    n_granules = draw(
        st.one_of(
            st.integers(20, 70),
            st.integers(_NUMPY_MIN_SYMBOLS, _NUMPY_MIN_SYMBOLS + 80),
        )
    )
    position = st.one_of(
        st.sampled_from([p for p in BYTE_EDGES if p <= n_granules]),
        st.integers(1, n_granules),
    )
    supports = {
        f"S{index}": sorted(
            draw(
                st.one_of(
                    st.lists(position, min_size=1, max_size=1),
                    st.lists(position, min_size=1, max_size=40, unique=True),
                )
            )
        )
        for index in range(draw(st.integers(1, 4)))
    }
    factor = draw(st.one_of(st.integers(2, 5), st.sampled_from([1, n_granules])))
    return supports, n_granules, factor


def _plain_supports(supports, n_granules):
    """Every event of ``support_dsyb(supports, n_granules)`` at ratio 1
    and its positions, by plain loops."""
    expected = {}
    for name, positions in supports.items():
        expected[f"{name}:1"] = list(positions)
        others = [p for p in range(1, n_granules + 1) if p not in positions]
        if others:
            expected[f"{name}:0"] = others
    return expected


def _assert_packed(packed, expected):
    assert set(packed) == set(expected)
    for event, positions in expected.items():
        support = packed[event]
        assert support.bits == sum(1 << p for p in positions)
        assert support.positions() == tuple(positions)
        assert {type(p) for p in support.positions()} == {int}


class TestLevelArrays:
    """``event_support`` packs a whole level and ``coarsen`` folds it:
    the numpy twins on numpy-built databases, the pure-Python twins on
    short, pure-built ones; both against plain loops."""

    @BACKEND_SETTINGS
    @given(case=level_cases())
    def test_packing_matches_plain_loop(self, compute_backend, case):
        supports, n_granules, _ = case
        fine = build_sequence_database(support_dsyb(supports, n_granules), 1)
        _assert_packed(fine.event_support(), _plain_supports(supports, n_granules))

    @BACKEND_SETTINGS
    @given(case=level_cases())
    def test_fold_matches_plain_loop(self, compute_backend, case):
        supports, n_granules, factor = case
        fine = build_sequence_database(support_dsyb(supports, n_granules), 1)
        plain = _plain_supports(supports, n_granules)

        def folded(total):
            n_coarse = n_granules // total
            expected = {
                event: [
                    q for q in sorted({(p - 1) // total + 1 for p in positions})
                    if q <= n_coarse
                ]
                for event, positions in plain.items()
            }
            return {event: positions for event, positions in expected.items() if positions}

        coarse = fine.coarsen(factor)
        _assert_packed(coarse.event_support(), folded(factor))
        # A coarse database folds again from what it holds itself.
        if len(coarse) >= 2:
            _assert_packed(coarse.coarsen(2).event_support(), folded(2 * factor))

    @pytest.mark.parametrize("n_granules", [20, _NUMPY_MIN_SYMBOLS + 8])
    def test_fold_leaves_out_an_event_only_in_the_trailing_block(
        self, compute_backend, n_granules
    ):
        # 3 * (n // 3) < n - 1: the last two granules form the dropped block.
        fine = build_sequence_database(
            support_dsyb({"x": [n_granules - 1, n_granules], "y": [1]}, n_granules), 1
        )
        assert "x:1" in fine.event_support()
        coarse = fine.coarsen(3)
        assert sorted(coarse.event_support()) == ["x:0", "y:0", "y:1"]
        assert coarse.event_support()["y:1"] == [1]
        assert list(coarse.event_support()["x:0"]) == list(range(1, n_granules // 3 + 1))
