import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar_kit import ImageFrame, LaneGrid, MetricsReport, f1_suite, match_lanes, tusimple_metrics
from polar_kit.evaluation import MF1_THRESHOLDS, ThresholdMetrics
from oracles import brute_force_matching, interval_iou_oracle


def lanes_at(frame, positions, lo=0, hi=None):
    hi = frame.n_rows - 1 if hi is None else hi
    return [
        LaneGrid(xs=np.full(frame.n_rows, float(x)), valid=(lo, hi), frame=frame)
        for x in positions
    ]


class TestMatchLanes:
    def test_exact_predictions_all_tp(self, frame):
        gts = lanes_at(frame, [100, 300, 500])
        pairs, fp, fn = match_lanes(gts, gts, 0.5, w_base=15.0)
        assert len(pairs) == 3 and not fp and not fn

    def test_no_predictions_all_fn(self, frame):
        gts = lanes_at(frame, [100, 300])
        pairs, fp, fn = match_lanes([], gts, 0.5, w_base=15.0)
        assert pairs == [] and fp == [] and fn == [0, 1]

    def test_straddling_preds_one_tp_one_fp(self, frame):
        gts = lanes_at(frame, [300])
        preds = lanes_at(frame, [298, 302])
        pairs, fp, fn = match_lanes(preds, gts, 0.5, w_base=15.0)
        assert len(pairs) == 1 and len(fp) == 1 and not fn

    def test_counts_partition(self, frame):
        rng = np.random.default_rng(0)
        for _ in range(30):
            preds = lanes_at(frame, rng.uniform(50, 750, size=rng.integers(0, 6)))
            gts = lanes_at(frame, rng.uniform(50, 750, size=rng.integers(0, 6)))
            pairs, fp, fn = match_lanes(preds, gts, 0.5, w_base=15.0)
            assert len(pairs) + len(fp) == len(preds)
            assert len(pairs) + len(fn) == len(gts)

    def test_matches_brute_force_lexicographic(self, frame):
        from polar_kit import iou_matrix

        rng = np.random.default_rng(1)
        for _ in range(40):
            preds = lanes_at(frame, rng.uniform(100, 700, size=rng.integers(1, 5)))
            gts = lanes_at(frame, rng.uniform(100, 700, size=rng.integers(1, 5)))
            threshold = 0.3
            pairs, _, _ = match_lanes(preds, gts, threshold, w_base=40.0)
            iou = iou_matrix(preds, gts, 40.0)
            best_count, best_total = brute_force_matching(iou, threshold)
            total = sum(iou[q, p] for p, q in pairs)
            assert len(pairs) == best_count
            assert total == pytest.approx(best_total, abs=1e-9)


    @pytest.mark.parametrize("threshold", [float("nan"), 1.5, -1.0, 0.0])
    def test_threshold_outside_unit_interval_rejected(self, frame, threshold):
        # NaN and 1.5 used to match nothing, and -1 matched disjoint lanes.
        preds, gts = lanes_at(frame, [100]), lanes_at(frame, [600])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            match_lanes(preds, gts, threshold, w_base=15.0)


class TestF1Suite:
    def test_arithmetic_8_2_2(self, frame):
        # 8 matched lanes, 2 spurious preds, 2 missed gts in one scene
        gt_pos = [60, 140, 220, 300, 380, 460, 540, 620, 700, 780]
        pred_pos = gt_pos[:8] + [60 + 35, 140 + 35]  # last two preds miss
        gts = lanes_at(frame, gt_pos)
        preds = lanes_at(frame, pred_pos)
        report = f1_suite([preds], [gts], thresholds=(0.5,), w_base=15.0)
        row = report.rows[0]
        assert (row.tp, row.fp, row.fn) == (8, 2, 2)
        assert row.precision == pytest.approx(0.8)
        assert row.recall == pytest.approx(0.8)
        assert row.f1 == pytest.approx(0.8)

    def test_perfect_detector_mf1_one(self, frame):
        gts = lanes_at(frame, [100, 400, 700])
        report = f1_suite([gts], [gts], w_base=15.0)
        assert report.mf1 == 1.0
        assert all(row.f1 == 1.0 for row in report.rows)

    def test_perfect_only_at_050_gives_mf1_point_one(self, frame):
        # offset 10 px: IoU = (30-10)/(30+10) = 0.5 exactly -> counted at 0.50 only
        gts = lanes_at(frame, [300, 600])
        preds = lanes_at(frame, [310, 610])
        report = f1_suite([preds], [gts], w_base=15.0)
        assert report.f1_at(0.50) == 1.0
        assert all(report.f1_at(t) == 0.0 for t in MF1_THRESHOLDS[1:])
        assert report.mf1 == pytest.approx(0.1)

    def test_f1_nonincreasing_in_threshold(self, frame):
        rng = np.random.default_rng(2)
        gts = lanes_at(frame, [150, 400, 650])
        preds = lanes_at(frame, [150 + rng.uniform(0, 20), 400 + rng.uniform(0, 20), 660])
        report = f1_suite([preds], [gts], w_base=15.0)
        f1s = [row.f1 for row in report.rows]
        assert all(b <= a + 1e-12 for a, b in zip(f1s, f1s[1:]))

    def test_pooled_across_scenes(self, frame):
        gts1 = lanes_at(frame, [100, 400])
        gts2 = lanes_at(frame, [200, 500])
        report = f1_suite([gts1, []], [gts1, gts2], thresholds=(0.5,), w_base=15.0)
        row = report.rows[0]
        assert (row.tp, row.fp, row.fn) == (2, 0, 2)

    def test_unsorted_thresholds_rejected(self, frame):
        with pytest.raises(ValueError):
            f1_suite([[]], [[]], thresholds=(0.75, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            f1_suite([[]], [[]], thresholds=(0.5, bad))


_FRAME = ImageFrame(width=800, height=320, n_rows=36)


@st.composite
def _vertical_lanes(draw, max_count):
    # Vertical lanes at integer x have integer interval sums, so every IoU is
    # the same float in the oracle and in the kernel.  A 5 px position step
    # makes exact hits common: 10 px apart over full rows gives IoU 0.5.
    full = (0, _FRAME.n_rows - 1)
    ranges = st.one_of(
        st.just(full),
        st.integers(0, _FRAME.n_rows - 2).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, _FRAME.n_rows - 1))
        ),
    )
    lanes = []
    for _ in range(draw(st.integers(0, max_count))):
        xs = np.full(_FRAME.n_rows, 100.0 + 5 * draw(st.integers(0, 10)))
        lanes.append(LaneGrid(xs=xs, valid=draw(ranges), frame=_FRAME))
    return lanes


_SCENES = st.lists(st.tuples(_vertical_lanes(4), _vertical_lanes(3)), min_size=1, max_size=3)


def _oracle_iou(preds, gts, w_base):
    iou = [[interval_iou_oracle(p, q, w_base) for p in preds] for q in gts]
    return np.array(iou).reshape(len(gts), len(preds))


class TestF1SuiteOracle:
    @settings(max_examples=200, deadline=None)
    @given(scenes=_SCENES, order=st.randoms(use_true_random=False))
    def test_counts_equal_oracle_and_ignore_scene_order(self, scenes, order):
        report = f1_suite([p for p, _ in scenes], [g for _, g in scenes], w_base=15.0)
        ious = [_oracle_iou(preds, gts, 15.0) for preds, gts in scenes]
        for row in report.rows:
            # Pooled reference counts from the row-loop oracle and permutation search.
            tp = fp = fn = 0
            for iou in ious:
                count = brute_force_matching(iou, row.threshold)[0]
                g, k = iou.shape
                tp, fp, fn = tp + count, fp + k - count, fn + g - count
            assert (row.tp, row.fp, row.fn) == (tp, fp, fn)
        shuffled = list(scenes)
        order.shuffle(shuffled)
        again = f1_suite([p for p, _ in shuffled], [g for _, g in shuffled], w_base=15.0)
        assert again == report


class TestTusimple:
    def test_exact_predictions(self, frame):
        gts = lanes_at(frame, [100, 500])
        acc, fpr, fnr = tusimple_metrics([gts], [gts])
        assert acc == 1.0 and fpr == 0.0 and fnr == 0.0

    def test_21px_offset_counts_nothing(self, frame):
        gts = lanes_at(frame, [100])
        preds = lanes_at(frame, [121])
        acc, fpr, fnr = tusimple_metrics([preds], [gts])
        assert acc == 0.0 and fpr == 1.0 and fnr == 1.0

    def test_20px_offset_counts(self, frame):
        gts = lanes_at(frame, [100])
        preds = lanes_at(frame, [120])
        acc, fpr, fnr = tusimple_metrics([preds], [gts])
        assert acc == 1.0 and fpr == 0.0 and fnr == 0.0

    def test_86_percent_lane_counts_correct(self, frame):
        gts = lanes_at(frame, [100])
        xs = np.full(frame.n_rows, 100.0)
        xs[:5] = 200.0  # 31/36 = 86.1% of points inside the window
        preds = [LaneGrid(xs=xs, valid=(0, frame.n_rows - 1), frame=frame)]
        acc, fpr, fnr = tusimple_metrics([preds], [gts])
        assert acc == pytest.approx(31 / 36)
        assert fpr == 0.0 and fnr == 0.0

    def test_85_percent_exactly_excluded(self, frame):
        # 85% exactly must not count ("exceeds" is strict); use a 20-row lane
        gts = lanes_at(frame, [100], lo=0, hi=19)
        xs = np.full(frame.n_rows, 100.0)
        xs[:3] = 300.0  # 17/20 = 85% exactly
        preds = [LaneGrid(xs=xs, valid=(0, 19), frame=frame)]
        acc, fpr, fnr = tusimple_metrics([preds], [gts])
        assert acc == pytest.approx(17 / 20)
        assert fnr == 1.0


class TestReportSerialization:
    def test_csv_layout(self):
        report = MetricsReport(
            rows=(ThresholdMetrics(0.5, 8, 2, 2), ThresholdMetrics(0.75, 4, 6, 6)),
            mf1=0.42,
        )
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "threshold,tp,fp,fn,precision,recall,f1"
        assert lines[1].startswith("0.5,8,2,2,0.8,0.8,0.8")
        assert lines[-1].startswith("mf1,,,,,,")

    def test_json_fields(self):
        report = MetricsReport(rows=(ThresholdMetrics(0.5, 1, 0, 0),), mf1=0.1)
        blob = report.to_json_dict()
        assert blob["rows"][0]["precision"] == 1.0
        assert blob["mf1"] == 0.1
