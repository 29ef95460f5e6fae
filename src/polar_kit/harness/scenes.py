"""Synthetic scene generation.

Lanes are quadratic-in-y curves sampled straight onto the frame's grid:
sparse scenes keep every lane pair far apart (pairwise IoU below 0.1), dense
scenes add a fork whose two branches share identical x-coordinates below the
branch row and separate linearly above it.  Everything is deterministic in
the SceneSpec seed, and generated coordinates are pre-quantized to 9 significant
digits so serialization round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_W_BASE
from ..errors import InvalidSpec
from ..geometry import ImageFrame, LaneGrid
from ..laneiou import iou_matrix
from .fileio import quantize

_EDGE_MARGIN = 70.0
_MIN_SPACING = 90.0
_SPARSE_IOU_CAP = 0.1
_DENSE_GAP_CAP = 30.0  # 2 * default base semi-width


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene; ``kind`` is "sparse" or "dense"."""

    frame: ImageFrame
    kind: str
    lane_count: int
    curvature: tuple[float, float] = (-25.0, 25.0)
    branch_frac: float = 0.45       # fraction of height (from the bottom) where the fork splits
    fork_separation: float = 60.0   # branch separation at the image top, px
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sparse", "dense"):
            raise InvalidSpec(f"kind must be 'sparse' or 'dense', got {self.kind!r}")
        if self.lane_count < 1:
            raise InvalidSpec("lane_count must be >= 1")
        if self.curvature[0] > self.curvature[1]:
            raise InvalidSpec("curvature range must be (low, high)")
        if not (0.05 <= self.branch_frac <= 0.95):
            raise InvalidSpec("branch_frac must lie in [0.05, 0.95]")
        if self.kind == "dense" and not (0 < self.fork_separation <= self.frame.width / 4):
            raise InvalidSpec("fork_separation must be in (0, width/4]")
        span = self.frame.width - 2 * _EDGE_MARGIN
        if self.lane_count > 1 and span / (self.lane_count - 1) < _MIN_SPACING:
            raise InvalidSpec(
                f"{self.lane_count} lanes cannot keep {_MIN_SPACING:.0f} px spacing "
                f"in a {self.frame.width} px frame"
            )


def child_seed(seed: int, index: int) -> int:
    """Seed of the index-th scene (or its candidates) drawn from a base seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _quadratic_xs(frame: ImageFrame, x_bottom: float, x_top: float, curve: float) -> np.ndarray:
    """x over the grid rows for x(t) = x_b + (x_t - x_b - a) t + a t^2, t from bottom."""
    t = (frame.height - frame.rows_y) / frame.height
    return x_bottom + (x_top - x_bottom - curve) * t + curve * t * t


def gen_scene(spec: SceneSpec) -> list[LaneGrid]:
    """Deterministic lane set for one SceneSpec; dense kind appends the fork twin last."""
    rng = np.random.default_rng(spec.seed)
    frame = spec.frame
    n = spec.lane_count
    span = frame.width - 2 * _EDGE_MARGIN
    if n == 1:
        bottoms = np.array([frame.width / 2.0])
    else:
        bottoms = _EDGE_MARGIN + np.arange(n) * span / (n - 1)
    bottoms = bottoms + rng.uniform(-15.0, 15.0, size=n)
    # Tops contract toward the center the way converging lanes do, with jitter
    # small enough that neighboring lanes stay clear of each other.
    tops = frame.width / 2.0 + (bottoms - frame.width / 2.0) * 0.45
    tops = tops + rng.uniform(-8.0, 8.0, size=n)
    curves = rng.uniform(spec.curvature[0], spec.curvature[1], size=n)

    lanes = []
    full = (0, frame.n_rows - 1)
    for i in range(n):
        xs = quantize(_quadratic_xs(frame, bottoms[i], tops[i], curves[i]))
        lanes.append(LaneGrid(xs=xs, valid=full, frame=frame))

    if spec.kind == "dense":
        base_idx = int(rng.integers(0, n))
        base = lanes[base_idx]
        t = (frame.height - frame.rows_y) / frame.height
        ramp = np.clip((t - spec.branch_frac) / (1.0 - spec.branch_frac), 0.0, None)
        direction = -1.0 if bottoms[base_idx] > frame.width / 2.0 else 1.0
        twin_xs = base.xs.copy()
        above = ramp > 0
        twin_xs[above] = quantize(base.xs[above] + direction * spec.fork_separation * ramp[above])
        lanes.append(LaneGrid(xs=twin_xs, valid=full, frame=frame))

    _assert_invariants(spec, lanes)
    return lanes


def _assert_invariants(spec: SceneSpec, lanes: list[LaneGrid]) -> None:
    if spec.kind == "sparse" and len(lanes) > 1:
        iou = iou_matrix(lanes, lanes, DEFAULT_W_BASE)
        off = iou[~np.eye(len(lanes), dtype=bool)]
        if np.any(off >= _SPARSE_IOU_CAP):
            raise InvalidSpec(
                f"sparse scene violates the pairwise IoU < {_SPARSE_IOU_CAP} invariant; "
                "reduce lane_count or curvature"
            )
    if spec.kind == "dense":
        gaps = [
            np.min(np.abs(a.xs - b.xs))
            for i, a in enumerate(lanes)
            for b in lanes[i + 1 :]
        ]
        if min(gaps) >= _DENSE_GAP_CAP:
            raise InvalidSpec("dense scene lacks a close lane pair")
