"""Forward (value-only) loss evaluators.

Everything here returns plain floats or arrays: there is no autograd, no
backward pass, and no optimizer.  Elementwise pieces (smooth_l1, bce, focal)
broadcast over arrays; aggregate losses reduce to scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, TooFewRows
from .geometry import LaneGrid, Pole, PolarAnchor, PoleGridLabels
from .laneiou import iou_matrix

_PROB_EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Weights of the stage-two aggregation; unspecified ones default to 1."""

    w_cls_o2m: float = 1.0
    w_cls_o2o: float = 1.0
    w_rank: float = 0.7
    w_giou_o2m: float = 1.0
    w_end_o2m: float = 1.0
    w_aux: float = 0.2

    def __post_init__(self):
        for name in ("w_cls_o2m", "w_cls_o2o", "w_rank", "w_giou_o2m", "w_end_o2m", "w_aux"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class LossComponents:
    """Scalar loss values feeding the weighted aggregation."""

    l_cls_o2m: float = 0.0
    l_cls_o2o: float = 0.0
    l_rank: float = 0.0
    l_giou: float = 0.0
    l_end: float = 0.0
    l_aux: float = 0.0
    l_cls_lpm: float = 0.0
    l_reg_lpm: float = 0.0


@dataclass(frozen=True, eq=False)
class SegmentParams:
    """Per-segment chord parameters (ground truth) plus optional offsets."""

    theta_seg: np.ndarray
    r_seg: np.ndarray
    d_theta: np.ndarray | None = None
    d_r: np.ndarray | None = None

    def __post_init__(self):
        if self.theta_seg.shape != self.r_seg.shape or self.theta_seg.ndim != 1:
            raise ShapeError("theta_seg and r_seg must be matching 1-D arrays")
        for name in ("d_theta", "d_r"):
            arr = getattr(self, name)
            if arr is not None and np.asarray(arr).shape != self.theta_seg.shape:
                raise ShapeError(f"{name} must match the segment count")

    def __len__(self) -> int:
        return self.theta_seg.shape[0]

    def with_offsets(self, d_theta, d_r) -> "SegmentParams":
        return replace(
            self,
            d_theta=np.asarray(d_theta, dtype=float),
            d_r=np.asarray(d_r, dtype=float),
        )


def smooth_l1(x):
    """Quadratic below |x| = 1, linear above."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) < 1.0, 0.5 * x * x, np.abs(x) - 0.5)
    return float(out) if out.ndim == 0 else out


def bce(p, y):
    """Binary cross-entropy; probabilities clamped to [eps, 1 - eps]."""
    p = np.clip(np.asarray(p, dtype=float), _PROB_EPS, 1.0 - _PROB_EPS)
    y = np.asarray(y, dtype=float)
    out = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(out) if out.ndim == 0 else out


def focal(p, y, alpha: float = 0.25, gamma: float = 2.0):
    """Focal loss value: well-classified examples contribute vanishingly."""
    p = np.clip(np.asarray(p, dtype=float), _PROB_EPS, 1.0 - _PROB_EPS)
    y = np.asarray(y, dtype=float)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log1p(-p)
    out = np.where(y > 0.5, pos, neg)
    return float(out) if out.ndim == 0 else out


def lpm_loss(
    pred_theta,
    pred_r,
    pred_s,
    labels: PoleGridLabels,
    lambda_l: float,
    cls_reduction: str = "mean",
) -> tuple[float, float]:
    """Stage-one losses: (classification, regression).

    Classification is BCE over every pole (mean by default, "sum" optional);
    regression averages smooth-L1 residuals of theta and r over the poles
    with r_hat < lambda_l and is 0 when there are none.
    """
    pred_theta = np.asarray(pred_theta, dtype=float)
    pred_r = np.asarray(pred_r, dtype=float)
    pred_s = np.asarray(pred_s, dtype=float)
    if not (pred_theta.shape == pred_r.shape == pred_s.shape == labels.shape):
        raise ShapeError("predictions must match the label grid shape")
    if cls_reduction not in ("mean", "sum"):
        raise ValueError("cls_reduction must be 'mean' or 'sum'")

    cls_terms = bce(pred_s, labels.s_hat.astype(float))
    l_cls = float(cls_terms.mean() if cls_reduction == "mean" else cls_terms.sum())

    positive = labels.r_hat < lambda_l
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        return l_cls, 0.0
    theta_res = smooth_l1(pred_theta[positive] - labels.theta_hat[positive])
    r_res = smooth_l1(pred_r[positive] - labels.r_hat[positive])
    return l_cls, float((theta_res + r_res).sum() / n_pos)


def rank_loss(pos_scores, neg_scores, margin: float = 0.1) -> float:
    """Mean pairwise hinge max(0, margin - (s_pos - s_neg)); 0 if a side is empty."""
    pos = np.asarray(pos_scores, dtype=float).ravel()
    neg = np.asarray(neg_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        return 0.0
    hinge = np.clip(margin - (pos[:, None] - neg[None, :]), 0.0, None)
    return float(hinge.mean())


def giou_loss(pred: LaneGrid, gt: LaneGrid, w_base: float) -> float:
    """1 - gap-penalized IoU (g = 1); 0 for identical lanes, up to 2 exclusive."""
    return float(1.0 - iou_matrix([pred], [gt], w_base, g=1.0)[0, 0])


def endpoint_loss(pred_ends, gt_ends, height: float) -> float:
    """Smooth-L1 on height-normalized start/end y-coordinates, summed."""
    p = np.asarray(pred_ends, dtype=float)
    g = np.asarray(gt_ends, dtype=float)
    if p.shape != (2,) or g.shape != (2,):
        raise ShapeError("endpoints must be (y_start, y_end) pairs")
    return float(np.sum(smooth_l1((p - g) / height)))


def segment_params(lane: LaneGrid, m_segments: int, pole: Pole) -> SegmentParams:
    """Chord parameters of M equal row blocks of the lane, in global polar form.

    Each block's chord runs through the block's endpoint samples; theta is
    the chord normal's angle in (-pi/2, pi/2) and r the signed distance from
    the pole.  A straight lane yields M identical parameter pairs.
    """
    if m_segments < 1:
        raise ValueError("m_segments must be >= 1")
    if lane.n_valid < m_segments + 1:
        raise TooFewRows(
            f"valid range spans {lane.n_valid} rows; need >= {m_segments + 1}"
        )
    bounds = lane.lo + np.round(
        np.linspace(0.0, lane.hi - lane.lo, m_segments + 1)
    ).astype(int)
    ys_cart = lane.frame.rows_y_cart
    thetas = np.empty(m_segments)
    radii = np.empty(m_segments)
    for m in range(m_segments):
        i, j = bounds[m], bounds[m + 1]
        p1 = np.array([lane.xs[i], ys_cart[i]])
        p2 = np.array([lane.xs[j], ys_cart[j]])
        u = p2 - p1
        normal = np.array([u[1], -u[0]])  # rotate -90 degrees
        if normal[0] < 0:
            normal = -normal
        normal /= np.hypot(normal[0], normal[1])
        thetas[m] = math.atan2(normal[1], normal[0])
        radii[m] = normal @ (p1 - pole.position)
    return SegmentParams(theta_seg=thetas, r_seg=radii)


def aux_loss(anchor: PolarAnchor, segments: SegmentParams, height: float) -> float:
    """Mean per-segment smooth-L1 of the offset anchor against the chords.

    theta residuals stay in radians; r residuals are normalized by the image
    height so the two terms are commensurate.
    """
    if segments.d_theta is None or segments.d_r is None:
        raise ShapeError("segments must carry predicted offsets (use with_offsets)")
    theta_res = smooth_l1(anchor.theta + segments.d_theta - segments.theta_seg)
    r_res = smooth_l1((anchor.radius + segments.d_r - segments.r_seg) / height)
    return float((theta_res + r_res).mean())


def gpm_losses(
    components: LossComponents, weights: LossWeights
) -> tuple[float, float, float]:
    """Weighted stage-two sums plus the overall total (stage-one included).

    Returns (l_cls_g, l_reg_g, total); exactly linear in every component and
    every weight.
    """
    l_cls_g = (
        weights.w_cls_o2m * components.l_cls_o2m
        + weights.w_cls_o2o * components.l_cls_o2o
        + weights.w_rank * components.l_rank
    )
    l_reg_g = (
        weights.w_giou_o2m * components.l_giou
        + weights.w_end_o2m * components.l_end
        + weights.w_aux * components.l_aux
    )
    total = components.l_cls_lpm + components.l_reg_lpm + l_cls_g + l_reg_g
    return l_cls_g, l_reg_g, total
