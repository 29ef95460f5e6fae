"""Noisy candidate generation standing in for a trained detector's output.

Each ground truth spawns ``n_per_gt`` candidates: the anchor is the lane's
chord perturbed in (theta, r), and the regressed lane is the ground truth
plus a per-candidate lateral shift and small per-row jitter (the shift keeps
duplicates lane-shaped instead of scattering rows independently).  Confidence
follows s = exp(-rms^2 / sigma_score^2) + uniform noise, clipped to [0, 1],
so closer candidates score higher.  Background candidates are random anchors
with capped scores.
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
        if min(self.sigma_theta, self.sigma_r, self.sigma_x, self.sigma_score) < 0:
            raise InvalidSpec("noise scales must be non-negative")
        if self.n_background < 0:
            raise InvalidSpec("n_background must be >= 0")
        if not (0.0 <= self.background_score_cap <= 1.0):
            raise InvalidSpec("background_score_cap must lie in [0, 1]")
        if self.score_noise < 0:
            raise InvalidSpec("score_noise must be >= 0")
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

    thetas, radii, anchor_rows, lane_rows, valid, scores = [], [], [], [], [], []
    for gt in gts:
        chord = segment_params(gt, 1, pole)
        for _ in range(spec.n_per_gt):
            theta = float(
                np.clip(chord.theta_seg[0] + rng.normal(0.0, spec.sigma_theta),
                        -_THETA_LIMIT, _THETA_LIMIT)
            )
            radius = float(chord.r_seg[0] + rng.normal(0.0, spec.sigma_r))
            theta, radius = float(quantize(theta)), float(quantize(radius))
            a_xs = quantize(sample_anchor_xs_batch(theta, radius, pole, frame))
            shift = rng.normal(0.0, spec.sigma_x)
            jitter = rng.normal(0.0, spec.sigma_x / 10.0, size=frame.n_rows)
            l_xs = np.where(gt.valid_mask(), gt.xs + shift + jitter, 0.0)
            l_xs = quantize(l_xs)
            lo, hi = gt.valid
            rms = math.sqrt(float(np.mean((l_xs[lo : hi + 1] - gt.xs[lo : hi + 1]) ** 2)))
            score = math.exp(-(rms**2) / spec.sigma_score**2) + rng.uniform(0, spec.score_noise)
            thetas.append(theta)
            radii.append(radius)
            anchor_rows.append(a_xs)
            lane_rows.append(l_xs)
            valid.append([lo, hi])
            scores.append(float(quantize(min(max(score, 0.0), 1.0))))

    for _ in range(spec.n_background):
        theta = float(quantize(rng.uniform(-0.5, 0.5)))
        radius = float(quantize(rng.uniform(-0.45, 0.45) * frame.width))
        a_xs = quantize(sample_anchor_xs_batch(theta, radius, pole, frame))
        thetas.append(theta)
        radii.append(radius)
        anchor_rows.append(a_xs)
        lane_rows.append(a_xs.copy())
        valid.append([0, frame.n_rows - 1])
        scores.append(float(quantize(rng.uniform(0.0, spec.background_score_cap))))

    k = len(thetas)
    return CandidateSet(
        frame=frame,
        thetas=np.array(thetas),
        radii=np.array(radii),
        anchor_xs=np.array(anchor_rows).reshape(k, frame.n_rows),
        lane_xs=np.array(lane_rows).reshape(k, frame.n_rows),
        valid=np.array(valid, dtype=int).reshape(k, 2),
        scores_o2m=np.array(scores),
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
