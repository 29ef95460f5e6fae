"""Interval IoU between lane grids with slope-adaptive widths.

Each lane row expands into an interval [x - w, x + w] whose semi-width w grows
with the local slope, so steep lanes keep a constant on-screen thickness.  The
score sums per-row overlap, gap, and union lengths over the union of the two
valid ranges; rows where only one lane exists contribute that lane's full
width to the union and nothing to overlap or gap.

``pairwise_iou`` is the one kernel: it turns two stacks of lane rows into the
IoU matrix (sum(overlap) - g * sum(gap)) / sum(union).  ``iou_matrix`` and
``glane_iou`` wrap it for ``LaneGrid`` inputs; suppression distances,
candidate-to-ground-truth scores and the F1 matcher all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLane, ShapeError
from .geometry import LaneGrid

# Element cap per broadcast block when assembling big pairwise matrices.
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class GIoUParams:
    """Gap coefficient g (0 = plain IoU, 1 = gap-penalized) and base semi-width."""

    g: float = 0.0
    w_base: float = 15.0

    def __post_init__(self):
        if self.w_base <= 0:
            raise ValueError("w_base must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")


@dataclass(frozen=True, eq=False)
class LaneBoundaries:
    """Left/right interval edges and semi-widths per row; NaN outside valid."""

    left: np.ndarray
    right: np.ndarray
    semi_widths: np.ndarray
    valid: tuple[int, int]


def stack_boundaries(xs: np.ndarray, valid: np.ndarray, rows_y: np.ndarray, w_base: float):
    """Boundary arrays for K lanes at once.

    Args:
        xs: (K, N) lane x-coordinates (values outside valid ranges ignored).
        valid: (K, 2) inclusive row ranges.
        rows_y: (N,) grid row y-coordinates (monotonically increasing).
        w_base: base semi-width in pixels.

    Returns:
        (left, right, mask): two (K, N) float arrays, zero outside the mask,
        and the (K, N) bool validity mask.
    """
    xs = np.asarray(xs, dtype=float)
    valid = np.asarray(valid, dtype=int)
    K, N = xs.shape
    if valid.shape != (K, 2):
        raise ShapeError(f"valid must have shape ({K}, 2)")
    if np.any(valid[:, 1] - valid[:, 0] < 1):
        raise InvalidLane("every valid range must span at least 2 rows")

    rows_idx = np.arange(N)[None, :]
    lo = valid[:, :1]
    hi = valid[:, 1:]
    mask = (rows_idx >= lo) & (rows_idx <= hi)
    x = np.where(mask, xs, 0.0)

    x_prev = np.empty_like(x)
    x_next = np.empty_like(x)
    x_prev[:, 1:] = x[:, :-1]
    x_prev[:, :1] = 0.0
    x_next[:, :-1] = x[:, 1:]
    x_next[:, -1:] = 0.0

    y = np.asarray(rows_y, dtype=float)
    y_prev = np.empty_like(y)
    y_next = np.empty_like(y)
    y_prev[1:] = y[:-1]
    y_prev[0] = 0.0
    y_next[:-1] = y[1:]
    y_next[-1] = 0.0

    is_lo = rows_idx == lo
    is_hi = rows_idx == hi
    # Central differences on interior rows, one-sided at the range endpoints.
    dx = np.where(is_lo, x_next - x, np.where(is_hi, x - x_prev, x_next - x_prev))
    dy = np.where(is_lo, y_next - y, np.where(is_hi, y - y_prev, y_next - y_prev))
    dy = np.where(mask, dy, 1.0)  # keep the division defined on ignored rows

    w = np.hypot(dx, dy) / dy * w_base
    w = np.where(mask, w, 0.0)
    return x - w, x + w, mask


def lane_boundaries(lane: LaneGrid, w_base: float) -> LaneBoundaries:
    """Per-row interval boundaries for one lane (NaN outside its valid range)."""
    if lane.n_valid < 2:
        raise InvalidLane("lane needs at least 2 valid rows for slope estimates")
    left, right, mask = stack_boundaries(
        lane.xs[None, :], np.array([lane.valid]), lane.frame.rows_y, w_base
    )
    left = np.where(mask[0], left[0], np.nan)
    right = np.where(mask[0], right[0], np.nan)
    return LaneBoundaries(
        left=left,
        right=right,
        semi_widths=(right - left) / 2.0,
        valid=lane.valid,
    )


def pairwise_iou(xs_a, valid_a, xs_b, valid_b, rows_y, w_base: float, g: float = 0.0) -> np.ndarray:
    """(Kb, Ka) interval IoU between every lane of set b and every lane of set a.

    Entry (q, p) is (sum(overlap) - g * sum(gap)) / sum(union) for lanes a_p
    and b_q; the gap sums are formed only when g != 0.  Work is chunked over
    b so the (chunk, Ka, N) broadcast temporaries stay near _CHUNK_ELEMS.
    """
    la, ra, ma = stack_boundaries(xs_a, valid_a, rows_y, w_base)
    lb, rb, mb = stack_boundaries(xs_b, valid_b, rows_y, w_base)
    Ka, N = la.shape
    Kb = lb.shape[0]
    iou = np.empty((Kb, Ka))
    la_, ra_, ma_ = la[None, :, :], ra[None, :, :], ma[None, :, :]
    step = max(1, _CHUNK_ELEMS // max(1, Ka * N))
    for s in range(0, Kb, step):
        e = min(Kb, s + step)
        lb_, rb_, mb_ = lb[s:e, None, :], rb[s:e, None, :], mb[s:e, None, :]
        both = ma_ & mb_
        only_a = ma_ & ~mb_
        only_b = mb_ & ~ma_
        o = np.clip(np.minimum(ra_, rb_) - np.maximum(la_, lb_), 0.0, None)
        u = np.maximum(ra_, rb_) - np.minimum(la_, lb_)
        score = np.sum(o * both, axis=-1)
        if g:
            x = np.clip(np.maximum(la_, lb_) - np.minimum(ra_, rb_), 0.0, None)
            score = score - g * np.sum(x * both, axis=-1)
        union = (
            np.sum(u * both, axis=-1)
            + np.sum((ra_ - la_) * only_a, axis=-1)
            + np.sum((rb_ - lb_) * only_b, axis=-1)
        )
        iou[s:e] = score / union
    return iou


def glane_iou(p: LaneGrid, q: LaneGrid, params: GIoUParams) -> float:
    """IoU between two lanes: sum(overlap)/sum(union) - g * sum(gap)/sum(union).

    With g = 0 the value lies in [0, 1]; disjoint y-ranges give 0.
    """
    return float(iou_matrix([p], [q], params)[0, 0])


def iou_matrix(set_a: list[LaneGrid], set_b: list[LaneGrid], params: GIoUParams) -> np.ndarray:
    """(len(set_b), len(set_a)) matrix with entry (q, p) = glane_iou(a_p, b_q)."""
    if not set_a or not set_b:
        return np.zeros((len(set_b), len(set_a)))
    frame = set_a[0].frame
    for lane in (*set_a, *set_b):
        if lane.frame != frame:
            raise ShapeError("all lanes must share one frame")
    xs_a = np.stack([lane.xs for lane in set_a])
    xs_b = np.stack([lane.xs for lane in set_b])
    va = np.array([lane.valid for lane in set_a])
    vb = np.array([lane.valid for lane in set_b])
    return pairwise_iou(xs_a, va, xs_b, vb, frame.rows_y, params.w_base, params.g)
