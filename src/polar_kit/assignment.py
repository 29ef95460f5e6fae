"""Label assignment between predictions and ground truths.

The affinity between prediction p and ground truth q is score_p * iou_qp^beta
(the "cost" both solvers maximize).  One-to-one assignment is the exact
Hungarian optimum; one-to-many follows the SimOTA recipe with a dynamic
per-ground-truth cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InfeasibleAssignment, InvalidInput, ShapeError


@dataclass(frozen=True)
class CostConfig:
    """Affinity exponent and SimOTA dynamic-k parameters."""

    beta: float = 6.0
    k_dynamic: int = 4
    topk_for_dynamic: int = 10

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.k_dynamic < 1 or self.topk_for_dynamic < 1:
            raise ValueError("k_dynamic and topk_for_dynamic must be >= 1")


@dataclass(eq=False)
class AssignmentResult:
    """One-to-one map, one-to-many pairs, and the complementary negatives."""

    o2o_map: np.ndarray                 # (G,) prediction index per ground truth
    o2m_pairs: tuple[tuple[int, int], ...]  # (prediction, ground truth) pairs
    n_predictions: int
    n_gts: int

    def __post_init__(self):
        self.o2o_map = np.asarray(self.o2o_map, dtype=int)
        if self.o2o_map.shape != (self.n_gts,):
            raise ShapeError("o2o_map must assign exactly one prediction per ground truth")
        if len(set(self.o2o_map.tolist())) != self.n_gts:
            raise InvalidInput("o2o_map must be injective")
        preds = [p for p, _ in self.o2m_pairs]
        if len(set(preds)) != len(preds):
            raise InvalidInput("a prediction may appear in at most one o2m pair")

    @property
    def o2o_negatives(self) -> np.ndarray:
        mask = np.ones(self.n_predictions, dtype=bool)
        mask[self.o2o_map] = False
        return np.flatnonzero(mask)

    @property
    def o2m_negatives(self) -> np.ndarray:
        mask = np.ones(self.n_predictions, dtype=bool)
        for p, _ in self.o2m_pairs:
            mask[p] = False
        return np.flatnonzero(mask)


def cost_matrix(scores, ious, beta: float) -> np.ndarray:
    """(G, K) affinity matrix: entry (q, p) = scores[p] * ious[q, p] ** beta."""
    s = np.asarray(scores, dtype=float)
    m = np.asarray(ious, dtype=float)
    if s.ndim != 1 or m.ndim != 2 or m.shape[1] != s.size:
        raise ShapeError("scores must be (K,) and ious (G, K)")
    if np.any(s < 0) or np.any(s > 1) or np.any(m < 0) or np.any(m > 1):
        raise InvalidInput("scores and ious must lie in [0, 1]")
    return s[None, :] * m**beta


def hungarian_assign(cost) -> np.ndarray:
    """Injective map pi with pi[q] = prediction index, maximizing total affinity.

    Requires at least as many predictions (columns) as ground truths (rows).
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ShapeError("cost must be a (G, K) matrix")
    g, k = c.shape
    if k < g:
        raise InfeasibleAssignment(f"need K >= G, got K={k}, G={g}")
    rows, cols = linear_sum_assignment(c, maximize=True)
    pi = np.empty(g, dtype=int)
    pi[rows] = cols
    return pi


def simota_assign(affinity, ious, cfg: CostConfig) -> tuple[tuple[int, int], ...]:
    """One-to-many positives as (prediction, ground truth) pairs.

    Per ground truth q the budget is
    clamp(round(sum of its topk_for_dynamic IoUs), 1, k_dynamic) and the
    budget's worth of highest-affinity predictions are claimed.  A prediction
    claimed by several ground truths keeps only its highest-affinity pairing
    (ties to the lower ground-truth index); freed slots are not refilled.
    """
    aff = np.asarray(affinity, dtype=float)
    iou = np.asarray(ious, dtype=float)
    if aff.shape != iou.shape or aff.ndim != 2:
        raise ShapeError("affinity and ious must share one (G, K) shape")
    g, k = aff.shape
    if g == 0 or k == 0:
        return ()

    q_top = min(cfg.topk_for_dynamic, k)
    top_sums = np.sort(iou, axis=1)[:, -q_top:].sum(axis=1)
    dynamic_k = np.clip(np.round(top_sums).astype(int), 1, cfg.k_dynamic)

    claims: dict[int, tuple[float, int]] = {}
    for q in range(g):
        order = np.argsort(-aff[q], kind="stable")[: dynamic_k[q]]
        for p in order:
            p = int(p)
            value = (float(aff[q, p]), -q)  # prefer higher affinity, then lower q
            if p not in claims or value > claims[p]:
                claims[p] = value
    pairs = ((p, -neg_q) for p, (_, neg_q) in claims.items())
    return tuple(sorted(pairs, key=lambda pq: (pq[1], pq[0])))


def assign_labels(scores_o2o, scores_o2m, ious, cfg: CostConfig) -> AssignmentResult:
    """Run both assignments on one scene and bundle the outcome."""
    iou = np.asarray(ious, dtype=float)
    g, k = iou.shape
    o2o = hungarian_assign(cost_matrix(scores_o2o, iou, cfg.beta))
    o2m = simota_assign(cost_matrix(scores_o2m, iou, cfg.beta), iou, cfg)
    return AssignmentResult(o2o_map=o2o, o2m_pairs=o2m, n_predictions=k, n_gts=g)
