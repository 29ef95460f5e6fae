"""Noisy candidate generation standing in for a trained detector's output.

Each ground truth spawns ``n_per_gt`` candidates: the anchor is the lane's
chord perturbed in (theta, r), and the regressed lane is the ground truth
plus a per-candidate lateral shift and small per-row jitter (the shift keeps
duplicates lane-shaped instead of scattering rows independently).  Confidence
follows s = exp(-rms^2 / sigma_score^2) + uniform noise, clipped to [0, 1],
so closer candidates score higher.  Background candidates are random anchors
with capped scores.

The draw order is part of the byte contract (``candidates_sha256``): each
ground-truth candidate draws ``standard_normal(3 + n_rows)`` (theta, r, shift,
row jitter; ``0.0 + sigma * z`` is ``rng.normal(0, sigma)`` bit for bit), then
one ``uniform(0, score_noise)``; the background then draws (theta, r, score)
uniforms per candidate.  All other arithmetic runs on whole-scene arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_W_BASE, default_global_pole
from ..errors import InvalidSpec
from ..geometry import ImageFrame, LaneGrid, Pole, sample_anchor_xs_batch
from ..laneiou import pairwise_iou
from ..losses import segment_params
from ..suppression import CandidateSet
from .fileio import quantize

_THETA_LIMIT = 1.2  # keep perturbed anchors comfortably away from +-pi/2


@dataclass(frozen=True)
class CandidateGenSpec:
    """Noise model for synthetic candidates."""

    n_per_gt: int = 4
    sigma_theta: float = 0.02       # radians, anchor angle noise
    sigma_r: float = 8.0            # px, anchor radius noise
    sigma_x: float = 12.0           # px, lateral offset noise (shift + jitter)
    sigma_score: float = 25.0       # px, confidence decay scale
    score_noise: float = 0.05       # uniform additive score noise
    n_background: int = 6
    background_score_cap: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_per_gt < 1:
            raise InvalidSpec("n_per_gt must be >= 1")
        for name in ("sigma_theta", "sigma_r", "sigma_x", "sigma_score", "score_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidSpec(f"{name} must be finite and >= 0, got {value}")
        if self.sigma_score == 0:
            raise InvalidSpec("sigma_score must be > 0")
        if self.n_background < 0:
            raise InvalidSpec("n_background must be >= 0")
        if not (0.0 <= self.background_score_cap <= 1.0):
            raise InvalidSpec("background_score_cap must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")


def gen_candidates(
    gts: list[LaneGrid],
    spec: CandidateGenSpec,
    frame: ImageFrame | None = None,
    pole: Pole | None = None,
) -> CandidateSet:
    """Deterministic candidate set for the ground truths (seeded)."""
    if frame is None:
        if not gts:
            raise InvalidSpec("need ground truths or an explicit frame")
        frame = gts[0].frame
    if pole is None:
        pole = default_global_pole(frame)
    rng = np.random.default_rng(spec.seed)
    n, rows = spec.n_per_gt, frame.n_rows
    z = np.empty((len(gts) * n, 3 + rows))
    noise = np.empty(len(z))
    for i in range(len(z)):
        rng.standard_normal(out=z[i])
        noise[i] = rng.uniform(0, spec.score_noise)
    background = rng.uniform([-0.5, -0.45, 0.0], [0.5, 0.45, spec.background_score_cap],
                             size=(spec.n_background, 3))

    chords = [segment_params(gt, 1, pole) for gt in gts]
    theta0 = np.repeat([c.theta_seg[0] for c in chords], n)
    r0 = np.repeat([c.r_seg[0] for c in chords], n)
    gt_thetas = np.clip(theta0 + (0.0 + spec.sigma_theta * z[:, 0]), -_THETA_LIMIT, _THETA_LIMIT)
    thetas = quantize(np.concatenate([gt_thetas, background[:, 0]]))
    radii = quantize(np.concatenate([r0 + (0.0 + spec.sigma_r * z[:, 1]),
                                     background[:, 1] * frame.width]))
    anchor_xs = quantize(sample_anchor_xs_batch(thetas, radii, pole, frame))

    gt_xs = np.repeat(np.array([gt.xs for gt in gts]).reshape(-1, rows), n, axis=0)
    shifted = gt_xs + (0.0 + spec.sigma_x * z[:, 2:3]) + (0.0 + spec.sigma_x / 10.0 * z[:, 3:])
    lane_xs = quantize(np.where(np.isnan(gt_xs), 0.0, shifted))  # NaN off the valid rows
    fit = np.empty(len(z))
    for g, gt in enumerate(gts):
        block = slice(g * n, (g + 1) * n)
        err = lane_xs[block, gt.lo:gt.hi + 1] - gt.xs[gt.lo:gt.hi + 1]
        rms = np.sqrt(np.mean(err**2, axis=1))
        fit[block] = [math.exp(-(r**2) / spec.sigma_score**2) for r in rms.tolist()]
    scores = quantize(np.concatenate([np.clip(fit + noise, 0.0, 1.0), background[:, 2]]))

    valid = [gt.valid for gt in gts for _ in range(n)] + [(0, rows - 1)] * spec.n_background
    return CandidateSet(
        frame=frame,
        thetas=thetas,
        radii=radii,
        anchor_xs=anchor_xs,
        lane_xs=np.concatenate([lane_xs, anchor_xs[len(z):]]),
        valid=np.array(valid, dtype=int).reshape(-1, 2),
        scores_o2m=scores,
        scores_o2o=None,
        pole=pole,
    )


def oracle_o2o_scores(
    cands: CandidateSet, gts: list[LaneGrid], w_base: float = DEFAULT_W_BASE
) -> np.ndarray:
    """Idealized one-to-one scores: 1.0 on each ground truth's best candidate.

    "Best" is the highest IoU (ties to the lower candidate index); everything
    else scores 0.  Stands in for a converged one-to-one head.
    """
    gt_xs = np.array([g.xs for g in gts], dtype=float).reshape(len(gts), cands.frame.n_rows)
    gt_valid = np.array([g.valid for g in gts], dtype=int).reshape(len(gts), 2)
    iou = pairwise_iou(cands.lane_xs, cands.valid, gt_xs, gt_valid, cands.frame.rows_y, w_base)
    scores = np.zeros(len(cands))
    scores[np.argmax(iou, axis=1)] = 1.0  # (G, K): one best candidate per ground truth
    return scores
