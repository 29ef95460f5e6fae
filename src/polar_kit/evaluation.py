"""Detection metrics: thresholded-F1 via bipartite matching, mF1, TuSimple.

Counts pool over the whole dataset (global tp/fp/fn, then one F1 per
threshold), matching how the benchmarks report.  mF1 always averages the ten
canonical thresholds 0.50, 0.55, ..., 0.95 regardless of the requested
breakdown.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT_W_BASE
from .errors import ShapeError
from .geometry import LaneGrid
from .laneiou import check_width, iou_matrix

MF1_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        # harmonic mean of precision and recall in count form, which is exact
        # for integer counts: 2PR/(P+R) = 2tp/(2tp + fp + fn)
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


@dataclass(frozen=True)
class MetricsReport:
    """Per-threshold breakdown plus mF1; scalar accessors read the first row."""

    rows: tuple[ThresholdMetrics, ...]
    mf1: float

    @property
    def primary(self) -> ThresholdMetrics:
        return self.rows[0]

    @property
    def tp(self) -> int:
        return self.primary.tp

    @property
    def fp(self) -> int:
        return self.primary.fp

    @property
    def fn(self) -> int:
        return self.primary.fn

    @property
    def precision(self) -> float:
        return self.primary.precision

    @property
    def recall(self) -> float:
        return self.primary.recall

    @property
    def f1(self) -> float:
        return self.primary.f1

    def f1_at(self, threshold: float) -> float:
        for row in self.rows:
            if abs(row.threshold - threshold) < 1e-9:
                return row.f1
        raise KeyError(f"no F1 row at threshold {threshold}")

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "rows": [
                {
                    "threshold": row.threshold,
                    "tp": row.tp,
                    "fp": row.fp,
                    "fn": row.fn,
                    "precision": row.precision,
                    "recall": row.recall,
                    "f1": row.f1,
                }
                for row in self.rows
            ],
            "mf1": self.mf1,
        }

    def to_csv(self) -> str:
        """CSV with one row per threshold and a trailing mf1 row."""
        out = io.StringIO()
        out.write("threshold,tp,fp,fn,precision,recall,f1\n")
        for row in self.rows:
            out.write(
                f"{_fmt(row.threshold)},{row.tp},{row.fp},{row.fn},"
                f"{_fmt(row.precision)},{_fmt(row.recall)},{_fmt(row.f1)}\n"
            )
        out.write(f"mf1,,,,,,{_fmt(self.mf1)}\n")
        return out.getvalue()


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def match_lanes(
    preds: list[LaneGrid],
    gts: list[LaneGrid],
    iou_threshold: float,
    w_base: float,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimal bipartite matching restricted to pairs with IoU >= threshold.

    Maximizes matched-pair count first and total IoU second.  Returns
    (tp pairs as (pred, gt), fp prediction indices, fn ground-truth indices).
    A threshold outside (0, 1] raises ValueError, as in ``f1_suite``.
    """
    (iou_threshold,) = checked_thresholds([iou_threshold])
    iou = iou_matrix(preds, gts, w_base)  # checks w_base even when a side is empty
    if iou.size == 0:
        return [], list(range(len(preds))), list(range(len(gts)))
    return _match(iou, iou_threshold)


def _match(iou: np.ndarray, iou_threshold: float):
    """``match_lanes`` on a prebuilt, non-empty (G, K) IoU matrix."""
    g, k = iou.shape
    eligible = iou >= iou_threshold
    # A bonus larger than any achievable IoU total makes pair count dominate.
    bonus = float(min(k, g)) + 1.0
    weights = np.where(eligible, iou + bonus, 0.0)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    pairs = [(int(p), int(q)) for q, p in zip(rows, cols) if eligible[q, p]]
    matched_p = {p for p, _ in pairs}
    matched_q = {q for _, q in pairs}
    fp = [p for p in range(k) if p not in matched_p]
    fn = [q for q in range(g) if q not in matched_q]
    return pairs, fp, fn


def checked_thresholds(thresholds) -> tuple[float, ...]:
    """IoU thresholds as floats; ValueError unless each lies in (0, 1] and they ascend."""
    thresholds = tuple(float(t) for t in thresholds)
    for t in thresholds:
        if not 0.0 < t <= 1.0:  # false for NaN too
            raise ValueError(f"IoU thresholds must be numbers in (0, 1], got {t}")
    if any(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    return thresholds


def f1_suite(
    preds_per_scene: list[list[LaneGrid]],
    gts_per_scene: list[list[LaneGrid]],
    thresholds=MF1_THRESHOLDS,
    w_base: float = DEFAULT_W_BASE,
) -> MetricsReport:
    """Pooled F1 per threshold over all scenes, plus mF1.

    ``preds_per_scene`` and ``gts_per_scene`` are parallel lists of per-scene
    lane lists.  Each scene's IoU matrix is built once and matched at every
    threshold.
    """
    if len(preds_per_scene) != len(gts_per_scene):
        raise ShapeError("need one prediction list per ground-truth list")
    thresholds = checked_thresholds(thresholds)
    check_width(w_base)

    all_t = sorted(set(thresholds) | set(MF1_THRESHOLDS))
    counts = {t: [0, 0, 0] for t in all_t}
    for preds, gts in zip(preds_per_scene, gts_per_scene):
        if not preds or not gts:
            for t in all_t:
                counts[t][1] += len(preds)
                counts[t][2] += len(gts)
            continue
        iou = iou_matrix(preds, gts, w_base)  # (G, K)
        for t in all_t:
            pairs, fp, fn = _match(iou, t)
            counts[t][0] += len(pairs)
            counts[t][1] += len(fp)
            counts[t][2] += len(fn)

    def row(t: float) -> ThresholdMetrics:
        tp, fp, fn = counts[t]
        return ThresholdMetrics(threshold=t, tp=tp, fp=fp, fn=fn)

    mf1 = float(np.mean([row(t).f1 for t in MF1_THRESHOLDS]))
    return MetricsReport(rows=tuple(row(t) for t in thresholds), mf1=mf1)


def tusimple_metrics(
    preds_per_scene: list[list[LaneGrid]],
    gts_per_scene: list[list[LaneGrid]],
    pixel_tol: float = 20.0,
    accuracy_threshold: float = 0.85,
) -> tuple[float, float, float]:
    """Point-level accuracy plus FPR/FNR.

    A point counts as correct when the prediction exists at the row and
    |dx| <= pixel_tol; each ground truth greedily claims the unclaimed
    prediction with the most correct points, and the claim counts as a true
    positive when its point accuracy strictly exceeds the threshold.
    Accuracy = sum(correct points) / sum(ground-truth points);
    FPR = 1 - precision, FNR = 1 - recall.
    """
    if len(preds_per_scene) != len(gts_per_scene):
        raise ShapeError("need one prediction list per ground-truth list")
    total_correct = 0
    total_points = 0
    tp = 0
    n_preds = 0
    n_gts = 0
    for preds, gts in zip(preds_per_scene, gts_per_scene):
        n_preds += len(preds)
        n_gts += len(gts)
        claimed: set[int] = set()
        for gt in gts:
            gt_mask = gt.valid_mask()
            n_gt_points = int(gt_mask.sum())
            total_points += n_gt_points
            best_p, best_correct = -1, 0
            for p, pred in enumerate(preds):
                if p in claimed:
                    continue
                both = gt_mask & pred.valid_mask()
                correct = int(
                    np.count_nonzero(np.abs(pred.xs[both] - gt.xs[both]) <= pixel_tol)
                )
                if correct > best_correct:
                    best_p, best_correct = p, correct
            if best_p < 0:  # nothing overlaps at all; claim no prediction
                continue
            claimed.add(best_p)
            total_correct += best_correct
            if n_gt_points and best_correct / n_gt_points > accuracy_threshold:
                tp += 1
    accuracy = total_correct / total_points if total_points else 0.0
    precision = tp / n_preds if n_preds else 0.0
    recall = tp / n_gts if n_gts else 0.0
    return accuracy, 1.0 - precision, 1.0 - recall
