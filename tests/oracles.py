"""Independent reference implementations used as test oracles.

These stay deliberately naive (row loops, permutation search, explicit
geometry, dense K x K pooling, per-element printing, per-candidate
generation) and never call the code paths they check.
The dense references reuse only the building blocks outside the path under
test (adjacencies, RoI projection, MLPs).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from polar_kit.geometry import sample_anchor_xs_batch
from polar_kit.losses import segment_params
from polar_kit.o2o_head import _mlp, _relu, aggregate_levels, node_scores, roi_project
from polar_kit.suppression import CandidateSet, confidence_adjacency, geometric_adjacency


def boundaries_oracle(lane, w_base):
    """Per-row (left, right) intervals via explicit difference stencils."""
    lo, hi = lane.valid
    ys = lane.frame.rows_y
    left = {}
    right = {}
    for i in range(lo, hi + 1):
        if i == lo:
            dx, dy = lane.xs[i + 1] - lane.xs[i], ys[i + 1] - ys[i]
        elif i == hi:
            dx, dy = lane.xs[i] - lane.xs[i - 1], ys[i] - ys[i - 1]
        else:
            dx, dy = lane.xs[i + 1] - lane.xs[i - 1], ys[i + 1] - ys[i - 1]
        w = math.hypot(dx, dy) / dy * w_base
        left[i], right[i] = lane.xs[i] - w, lane.xs[i] + w
    return left, right


def interval_iou_oracle(p, q, w_base, g=0.0):
    """Row-by-row interval IoU between two lanes."""
    lp, rp = boundaries_oracle(p, w_base)
    lq, rq = boundaries_oracle(q, w_base)
    overlap = gap = union = 0.0
    for i in range(p.frame.n_rows):
        in_p, in_q = i in lp, i in lq
        if in_p and in_q:
            overlap += max(min(rp[i], rq[i]) - max(lp[i], lq[i]), 0.0)
            gap += max(max(lp[i], lq[i]) - min(rp[i], rq[i]), 0.0)
            union += max(rp[i], rq[i]) - min(lp[i], lq[i])
        elif in_p:
            union += rp[i] - lp[i]
        elif in_q:
            union += rq[i] - lq[i]
    return overlap / union - g * gap / union


def line_points(theta, radius, pole_xy, y_values):
    """Explicit points of the line {p : n . (p - pole) = r} at given Cartesian ys."""
    n = np.array([math.cos(theta), math.sin(theta)])
    p0 = np.asarray(pole_xy, dtype=float) + radius * n
    direction = np.array([-math.sin(theta), math.cos(theta)])
    # direction[1] = cos(theta) > 0 for theta in (-pi/2, pi/2)
    ts = (np.asarray(y_values, dtype=float) - p0[1]) / direction[1]
    return p0[None, :] + ts[:, None] * direction[None, :]


def signed_point_line_distance(theta, radius, pole_xy, point_xy):
    """Signed distance from a point to the (theta, r, pole) line along the normal.

    Built from two explicit on-line points, not from the radius formula.
    """
    pts = line_points(theta, radius, pole_xy, np.array([0.0, 100.0]))
    a, b = pts[0], pts[1]
    u = b - a
    w = np.asarray(point_xy, dtype=float) - a
    # With u along (-sin t, cos t), cross(u, w)/|u| equals n . (a - point),
    # the anchor-normal distance from the point to the line.
    cross = u[0] * w[1] - u[1] * w[0]
    return cross / math.hypot(u[0], u[1])


def reference_fast_nms(scores, dist, tau_d, tau_o2m):
    """Sort-based Fast NMS: triangular suppression after ordering by score.

    Ties order by higher original index first, matching the confidence
    adjacency convention.  Returns a sorted index array.
    """
    scores = np.asarray(scores, dtype=float)
    k = scores.size
    order = sorted(range(k), key=lambda i: (-scores[i], -i))
    keep = []
    for pos, j in enumerate(order):
        suppressed = False
        for i in order[:pos]:
            d = dist[i, j]
            inv = math.inf if d == 0 else 1.0 / d
            if inv >= 1.0 / tau_d:
                suppressed = True
                break
        if not suppressed and scores[j] > tau_o2m:
            keep.append(j)
    return np.array(sorted(keep), dtype=int)


def dense_fast_nms(scores, adjacency, dist, tau_d, tau_o2m):
    """Fast NMS pooled over dense (K, K) arrays: a non-edge reads 0, an edge 1/d."""
    with np.errstate(divide="ignore"):
        inverse = np.where(dist > 0, 1.0 / dist, np.inf)
    pooled = np.where(adjacency, inverse, 0.0).max(axis=0, initial=0.0)
    return np.flatnonzero((pooled < 1.0 / tau_d) & (np.asarray(scores) > tau_o2m))


def dense_head_forward(level_feats, scores_o2m, thetas, radii, anchor_xs, thresholds, weights):
    """The head over a dense (K, K, d_n) edge tensor, max-pooled under a -inf mask.

    Entry (i, j) of the tensor reads "i vs j"; columns without an in-edge pool zeros.
    """
    feats = np.asarray(level_feats, dtype=float)
    rois = roi_project(aggregate_levels(feats, weights.level_weights), weights.pool_matrix)
    f_hat = _relu(rois @ weights.roi_matrix.T + weights.roi_bias)
    f_in = f_hat @ weights.in_matrix.T
    f_out = f_hat @ weights.out_matrix.T
    sx = np.asarray(anchor_xs, dtype=float) @ weights.sample_matrix.T
    pre = f_in[None, :, :] - f_out[:, None, :] + sx[None, :, :] - sx[:, None, :] \
        + weights.sample_bias
    edge = _mlp(pre, weights.edge_mlp, sigmoid_out=False)
    a = confidence_adjacency(scores_o2m) & geometric_adjacency(thetas, radii, thresholds)
    pooled = np.where(a[:, :, None], edge, -np.inf).max(axis=0, initial=-np.inf)
    pooled[~a.any(axis=0)] = 0.0
    return node_scores(pooled, weights.node_mlp)


def brute_force_o2o(cost):
    """Exhaustive max-affinity injective assignment; returns (pi, best_total)."""
    g, k = cost.shape
    best_total = -math.inf
    best_pi = None
    for perm in itertools.permutations(range(k), g):
        total = sum(cost[q, perm[q]] for q in range(g))
        if total > best_total:
            best_total = total
            best_pi = perm
    return np.array(best_pi, dtype=int), best_total


def brute_force_matching(iou, threshold):
    """Lexicographic-optimal bipartite matching: max pair count, then max IoU.

    iou is (G, K); returns (count, total_iou) of the optimum.
    """
    g, k = iou.shape
    best = (0, 0.0)
    gts = list(range(g))
    for size in range(min(g, k), -1, -1):
        found = False
        for q_subset in itertools.combinations(gts, size):
            for p_perm in itertools.permutations(range(k), size):
                if all(iou[q, p] >= threshold for q, p in zip(q_subset, p_perm)):
                    found = True
                    total = sum(iou[q, p] for q, p in zip(q_subset, p_perm))
                    if (size, total) > best:
                        best = (size, total)
        if found:
            break  # larger counts already explored; count dominates
    return best


def quantize_oracle(x):
    """9 significant digits by printing every element with format(v, ".9g")."""
    if np.isscalar(x):
        return float(format(float(x), ".9g"))
    arr = np.asarray(x, dtype=float)
    out = np.array([float(format(v, ".9g")) for v in arr.ravel()])
    return out.reshape(arr.shape)


def scene_lanes_oracle(lanes):
    """The ``lanes`` entry of a scene file, quantizing one coordinate at a time."""
    return [{"points": [[quantize_oracle(x), quantize_oracle(y)] for x, y in lane.points_image()]}
            for lane in lanes]


def label_grids_oracle(labels):
    """A labels file's ``r_hat`` (None where non-finite) and ``theta_hat``, cell by cell."""
    r_hat = [None if not np.isfinite(v) else quantize_oracle(v) for v in labels.r_hat.ravel()]
    return r_hat, [quantize_oracle(v) for v in labels.theta_hat.ravel()]


def gen_candidates_oracle(gts, spec, frame, pole):
    """Candidate generation one candidate at a time, each draw taken where it is used."""
    rng = np.random.default_rng(spec.seed)
    thetas, radii, anchor_rows, lane_rows, valid, scores = [], [], [], [], [], []
    for gt in gts:
        chord = segment_params(gt, 1, pole)
        for _ in range(spec.n_per_gt):
            theta = float(np.clip(chord.theta_seg[0] + rng.normal(0.0, spec.sigma_theta),
                                  -1.2, 1.2))
            radius = float(chord.r_seg[0] + rng.normal(0.0, spec.sigma_r))
            theta, radius = quantize_oracle(theta), quantize_oracle(radius)
            a_xs = quantize_oracle(sample_anchor_xs_batch(theta, radius, pole, frame))
            shift = rng.normal(0.0, spec.sigma_x)
            jitter = rng.normal(0.0, spec.sigma_x / 10.0, size=frame.n_rows)
            l_xs = quantize_oracle(np.where(gt.valid_mask(), gt.xs + shift + jitter, 0.0))
            lo, hi = gt.valid
            rms = math.sqrt(float(np.mean((l_xs[lo : hi + 1] - gt.xs[lo : hi + 1]) ** 2)))
            score = math.exp(-(rms**2) / spec.sigma_score**2) + rng.uniform(0, spec.score_noise)
            thetas.append(theta)
            radii.append(radius)
            anchor_rows.append(a_xs)
            lane_rows.append(l_xs)
            valid.append([lo, hi])
            scores.append(quantize_oracle(min(max(score, 0.0), 1.0)))
    for _ in range(spec.n_background):
        theta = quantize_oracle(rng.uniform(-0.5, 0.5))
        radius = quantize_oracle(rng.uniform(-0.45, 0.45) * frame.width)
        a_xs = quantize_oracle(sample_anchor_xs_batch(theta, radius, pole, frame))
        thetas.append(theta)
        radii.append(radius)
        anchor_rows.append(a_xs)
        lane_rows.append(a_xs.copy())
        valid.append([0, frame.n_rows - 1])
        scores.append(quantize_oracle(rng.uniform(0.0, spec.background_score_cap)))
    k = len(thetas)
    return CandidateSet(
        frame=frame,
        thetas=np.array(thetas),
        radii=np.array(radii),
        anchor_xs=np.array(anchor_rows).reshape(k, frame.n_rows),
        lane_xs=np.array(lane_rows).reshape(k, frame.n_rows),
        valid=np.array(valid, dtype=int).reshape(k, 2),
        scores_o2m=np.array(scores),
        pole=pole,
    )
