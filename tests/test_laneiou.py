import math

import numpy as np
import pytest

from polar_kit import (
    CandidateSet,
    InvalidInput,
    InvalidLane,
    LaneGrid,
    ShapeError,
    f1_suite,
    giou_loss,
    iou_distance,
    iou_matrix,
    match_lanes,
)
from polar_kit.harness import oracle_o2o_scores
from polar_kit.laneiou import stack_boundaries
from oracles import interval_iou_oracle


def random_lane(rng, frame, partial=True):
    xs = rng.uniform(60, 740) + np.cumsum(rng.normal(0, 5, size=frame.n_rows))
    if partial and rng.random() < 0.5:
        lo = int(rng.integers(0, frame.n_rows - 2))
        hi = int(rng.integers(lo + 1, frame.n_rows))
    else:
        lo, hi = 0, frame.n_rows - 1
    return LaneGrid(xs=xs, valid=(lo, hi), frame=frame)


def boundaries(lane, w_base):
    """(left, right, semi_widths) rows of one lane from ``stack_boundaries``."""
    left, right, _ = stack_boundaries(
        lane.xs[None, :], np.array([lane.valid]), lane.frame.rows_y, w_base
    )
    return left[0], right[0], (right[0] - left[0]) / 2.0


def iou(p, q, g=0.0):
    """IoU of one lane pair at the 15 px base semi-width."""
    return iou_matrix([p], [q], 15.0, g)[0, 0]


class TestBoundaries:
    def test_vertical_lane_constant_width(self, vertical_lane):
        lane = vertical_lane(100.0)
        left, right, semi_widths = boundaries(lane, 15.0)
        lo, hi = lane.valid
        assert np.allclose(semi_widths[lo : hi + 1], 15.0)
        assert np.allclose(left[lo : hi + 1], 85.0)
        assert np.allclose(right[lo : hi + 1], 115.0)

    def test_45_degree_lane(self, frame):
        xs = 100 + np.arange(frame.n_rows) * frame.row_step  # |dx| = dy per row
        lane = LaneGrid(xs=xs, valid=(0, frame.n_rows - 1), frame=frame)
        _, _, semi_widths = boundaries(lane, 15.0)
        assert np.allclose(semi_widths[0 : frame.n_rows], math.sqrt(2) * 15.0)

    def test_width_never_below_base(self, frame):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lane = random_lane(rng, frame)
            _, _, semi_widths = boundaries(lane, 15.0)
            lo, hi = lane.valid
            assert np.all(semi_widths[lo : hi + 1] >= 15.0 - 1e-12)

    def test_single_valid_row_rejected(self, frame):
        lane = LaneGrid(xs=np.full(frame.n_rows, 5.0), valid=(7, 7), frame=frame)
        with pytest.raises(InvalidLane):
            boundaries(lane, 15.0)

    def test_matches_stencil_oracle(self, frame):
        from oracles import boundaries_oracle

        rng = np.random.default_rng(1)
        for _ in range(20):
            lane = random_lane(rng, frame)
            got_left, got_right, _ = boundaries(lane, 15.0)
            left, right = boundaries_oracle(lane, 15.0)
            for i in range(lane.lo, lane.hi + 1):
                assert got_left[i] == pytest.approx(left[i], abs=1e-12)
                assert got_right[i] == pytest.approx(right[i], abs=1e-12)


class TestGlaneIou:
    def test_identical_lanes(self, vertical_lane):
        lane = vertical_lane(250.0)
        assert iou(lane, lane) == 1.0

    def test_disjoint_verticals(self, vertical_lane):
        assert iou(vertical_lane(100.0), vertical_lane(400.0)) == 0.0

    def test_half_overlap_interval_arithmetic(self, vertical_lane):
        # per row: O = min(115, 125) - max(85, 95) = 20, U = 125 - 85 = 40
        got = iou(vertical_lane(100.0), vertical_lane(110.0))
        assert got == pytest.approx(0.5)

    def test_gap_term_far_lanes(self, vertical_lane):
        # per row: gap = 385 - 115 = 270, U = 415 - 85 = 330
        got = iou(vertical_lane(100.0), vertical_lane(400.0), 1.0)
        assert got == pytest.approx(-270.0 / 330.0)

    def test_disjoint_valid_ranges_zero(self, vertical_lane):
        a = vertical_lane(100.0, lo=0, hi=10)
        b = vertical_lane(100.0, lo=20, hi=35)
        assert iou(a, b) == 0.0
        assert iou(a, b, 1.0) == 0.0

    def test_length_mismatch_penalized(self, vertical_lane):
        full = vertical_lane(100.0)
        half = vertical_lane(100.0, lo=0, hi=17)
        got = iou(full, half)
        assert got == pytest.approx(18.0 / 36.0)

    def test_symmetry_and_bounds_random(self, frame):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, q = random_lane(rng, frame), random_lane(rng, frame)
            for g in (0.0, 1.0):
                a = iou(p, q, g)
                b = iou(q, p, g)
                assert a == pytest.approx(b, abs=1e-12)
            v = iou(p, q)
            assert 0.0 <= v <= 1.0

    def test_matches_interval_oracle(self, frame):
        rng = np.random.default_rng(6)
        for _ in range(300):
            p, q = random_lane(rng, frame), random_lane(rng, frame)
            got = iou(p, q)
            want = interval_iou_oracle(p, q, 15.0, g=0.0)
            assert got == pytest.approx(want, abs=1e-6)
            got1 = iou(p, q, 1.0)
            want1 = interval_iou_oracle(p, q, 15.0, g=1.0)
            assert got1 == pytest.approx(want1, abs=1e-6)

    def test_monotone_in_lateral_offset(self, frame, vertical_lane):
        base = vertical_lane(300.0)
        previous = 1.0
        for dx in np.linspace(0, 80, 41):
            v = iou(base, vertical_lane(300.0 + dx))
            assert v <= previous + 1e-12
            previous = v

    def test_box_consistency_for_verticals(self, vertical_lane):
        # two vertical lanes degenerate to 1-D interval IoU
        for dx in (0.0, 5.0, 12.0, 29.0, 30.0, 80.0):
            got = iou(vertical_lane(200.0), vertical_lane(200.0 + dx))
            expect = max(30.0 - dx, 0.0) / (30.0 + dx)
            assert got == pytest.approx(expect)


class TestIouMatrix:
    def test_self_diagonal_ones(self, frame):
        rng = np.random.default_rng(9)
        lanes = [random_lane(rng, frame) for _ in range(6)]
        m = iou_matrix(lanes, lanes, 15.0)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)

    def test_empty_set_b(self, vertical_lane):
        m = iou_matrix([vertical_lane(100.0)], [], 15.0)
        assert m.shape == (0, 1)

    def test_two_by_two_composition(self, vertical_lane):
        lanes = [vertical_lane(100.0), vertical_lane(110.0)]
        m = iou_matrix(lanes, lanes, 15.0)
        assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_entry_matches_pairwise_call(self, frame):
        rng = np.random.default_rng(10)
        set_a = [random_lane(rng, frame) for _ in range(4)]
        set_b = [random_lane(rng, frame) for _ in range(3)]
        m = iou_matrix(set_a, set_b, 15.0)
        for q in range(3):
            for p in range(4):
                assert m[q, p] == pytest.approx(iou(set_a[p], set_b[q]), abs=1e-12)

    def test_frame_mismatch_rejected(self, frame, vertical_lane):
        from polar_kit import ImageFrame

        other = ImageFrame(640, 320, 36)
        lane_other = LaneGrid(np.full(36, 5.0), (0, 35), other)
        with pytest.raises(ShapeError):
            iou_matrix([vertical_lane(10.0)], [lane_other], 15.0)

    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_chunked_assembly_matches_single_block(self, frame, monkeypatch, g):
        import polar_kit.laneiou as li

        rng = np.random.default_rng(11)
        lanes = [random_lane(rng, frame) for _ in range(9)]
        whole = iou_matrix(lanes, lanes, 15.0, g)
        monkeypatch.setattr(li, "_CHUNK_ELEMS", 100)  # force many tiny chunks
        chunked = iou_matrix(lanes, lanes, 15.0, g)
        assert np.array_equal(whole, chunked)


class TestWidthCheck:
    """Every IoU goes through ``pairwise_iou``, so its one check covers every caller."""

    @staticmethod
    def _calls(lanes):
        xs = np.stack([lane.xs for lane in lanes])
        cands = CandidateSet(
            frame=lanes[0].frame, thetas=np.zeros(2), radii=np.zeros(2), anchor_xs=xs,
            lane_xs=xs, valid=np.array([lane.valid for lane in lanes]),
            scores_o2m=np.array([0.9, 0.8]),
        )
        return {
            "iou_distance": lambda w: iou_distance(w)(cands),
            "iou_matrix": lambda w: iou_matrix(lanes, lanes, w),
            "oracle_o2o_scores": lambda w: oracle_o2o_scores(cands, lanes, w),
            "giou_loss": lambda w: giou_loss(lanes[0], lanes[1], w),
            "match_lanes_empty": lambda w: match_lanes([], lanes, 0.5, w),
            "f1_suite_empty": lambda w: f1_suite([[]], [[]], w_base=w),
        }

    @pytest.mark.parametrize("w_base", [0.0, -15.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        ["iou_distance", "iou_matrix", "oracle_o2o_scores", "giou_loss", "match_lanes_empty",
         "f1_suite_empty"],
    )
    def test_bad_w_base_rejected(self, vertical_lane, call, w_base):
        lanes = [vertical_lane(100.0), vertical_lane(110.0)]
        with pytest.raises(InvalidInput, match="w_base"):
            self._calls(lanes)[call](w_base)

    @pytest.mark.parametrize("g", [-1.0, math.nan, math.inf])
    def test_bad_gap_coefficient_rejected(self, vertical_lane, g):
        lanes = [vertical_lane(100.0), vertical_lane(110.0)]
        with pytest.raises(InvalidInput, match="g must"):
            iou_matrix(lanes, lanes, 15.0, g)
        with pytest.raises(InvalidInput, match="g must"):
            iou_matrix(lanes, [], 15.0, g)
