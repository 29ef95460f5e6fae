"""Redundancy removal over lane candidates.

Three interchangeable selectors operate on a ``CandidateSet``:

* ``sequential_nms`` - classic greedy NMS (sort, keep, discard within tau_d);
* ``fast_nms_geometric`` - sort-free single-pass suppression driven by the
  confidence adjacency A_C, masked by the geometric adjacency A_G;
* ``dual_confidence_select`` - NMS-free thresholding on both score heads.

Fast NMS and the one-to-one head share one pooling rule over one
``CandidateGraph``: the gated pair list of A = A_C * A_G, grouped by target,
whose ``in_edge_max`` max-pools one value row per pair over each target's
in-neighbors.  Fast NMS pools 1/d(lane_i, lane_j): candidate j survives iff
that max stays below 1/tau_d; an empty in-neighborhood pools 0 and survives.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInput, MissingO2OScores, ShapeError
from .geometry import ImageFrame, LaneGrid, Pole
from .laneiou import check_width, pairwise_iou

DistanceFn = Callable[["CandidateSet"], np.ndarray]


@dataclass(frozen=True)
class SuppressionThresholds:
    """Geometric gates (tau_theta, lambda_g), distance cut tau_d, score cuts."""

    tau_theta: float
    lambda_g: float
    tau_d: float
    tau_o2m: float = 0.48
    tau_o2o: float = 0.46

    def __post_init__(self):
        # Written so that NaN fails too; an infinite gate means no gate.
        if not all(v > 0 for v in (self.tau_theta, self.lambda_g, self.tau_d)):
            raise ValueError("tau_theta, lambda_g, and tau_d must be positive")
        for name in ("tau_o2m", "tau_o2o"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")


def _frozen(values, dtype) -> np.ndarray:
    """Read-only view of ``values`` as ``dtype``; the caller's array stays writable."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


def _check_scores(name: str, scores: np.ndarray) -> None:
    # Written so that NaN fails too.
    if not np.all((scores >= 0) & (scores <= 1)):
        raise InvalidInput(f"{name} must lie in [0, 1]")


@dataclass(eq=False)
class CandidateSet:
    """K candidates stored as parallel arrays.

    ``anchor_xs`` holds the raw anchor-line samples, ``lane_xs`` the regressed
    lane (anchor plus offsets).  ``scores_o2o`` stays None until a one-to-one
    scorer runs.  Construction validates shapes, finiteness and ranges, and
    stores read-only views, so a set is immutable once built.
    """

    frame: ImageFrame
    thetas: np.ndarray
    radii: np.ndarray
    anchor_xs: np.ndarray
    lane_xs: np.ndarray
    valid: np.ndarray
    scores_o2m: np.ndarray
    scores_o2o: np.ndarray | None = None
    pole: Pole | None = None

    def __post_init__(self):
        self.thetas = _frozen(self.thetas, float)
        self.radii = _frozen(self.radii, float)
        self.anchor_xs = _frozen(self.anchor_xs, float)
        self.lane_xs = _frozen(self.lane_xs, float)
        self.valid = _frozen(self.valid, int)
        self.scores_o2m = _frozen(self.scores_o2m, float)
        if self.thetas.ndim != 1:
            raise ShapeError("thetas must be one-dimensional")
        k = self.thetas.shape[0]
        n = self.frame.n_rows
        if self.radii.shape != (k,) or self.scores_o2m.shape != (k,):
            raise ShapeError("radii and scores_o2m must match the candidate count")
        if self.anchor_xs.shape != (k, n) or self.lane_xs.shape != (k, n):
            raise ShapeError(f"per-candidate xs arrays must have shape ({k}, {n})")
        if self.valid.shape != (k, 2):
            raise ShapeError(f"valid must have shape ({k}, 2)")
        if not all(np.all(np.isfinite(a)) for a in (self.thetas, self.radii, self.anchor_xs)):
            raise InvalidInput("thetas, radii and anchor_xs must be finite")
        lo, hi = self.valid[:, 0], self.valid[:, 1]
        if np.any(lo < 0) or np.any(hi >= n) or np.any(hi - lo < 1):
            raise InvalidInput(f"valid ranges must lie in [0, {n}) and span at least 2 rows")
        rows = np.arange(n)
        inside = (rows >= lo[:, None]) & (rows <= hi[:, None])
        if not np.all(np.isfinite(self.lane_xs[inside])):
            raise InvalidInput("lane_xs must be finite on the valid rows")
        _check_scores("scores_o2m", self.scores_o2m)
        if self.scores_o2o is not None:
            self.scores_o2o = _frozen(self.scores_o2o, float)
            if self.scores_o2o.shape != (k,):
                raise ShapeError("scores_o2o must match the candidate count")
            _check_scores("scores_o2o", self.scores_o2o)

    def __len__(self) -> int:
        return self.thetas.shape[0]

    def lane(self, i: int) -> LaneGrid:
        return LaneGrid(xs=self.lane_xs[i], valid=tuple(self.valid[i]), frame=self.frame)

    def with_o2o(self, scores) -> "CandidateSet":
        return replace(self, scores_o2o=np.asarray(scores, dtype=float))

    def sha256(self) -> str:
        """Content hash used to assert compared modes saw identical inputs."""
        h = hashlib.sha256()
        h.update(f"{self.frame.width},{self.frame.height},{self.frame.n_rows};".encode())
        for arr in (self.thetas, self.radii, self.anchor_xs, self.lane_xs,
                    self.valid, self.scores_o2m):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def confidence_adjacency(scores) -> np.ndarray:
    """A_C[i, j] = 1 iff s_i > s_j, or s_i = s_j and i > j (positional order).

    Strict total order: zero diagonal and exactly one of (i, j), (j, i) set
    for i != j.
    """
    s = np.asarray(scores, dtype=float)
    idx = np.arange(s.size)
    return np.greater.outer(s, s) | (np.equal.outer(s, s) & np.greater.outer(idx, idx))


def geometric_adjacency(thetas, radii, thresholds: SuppressionThresholds) -> np.ndarray:
    """A_G[i, j] = 1 iff |theta_i - theta_j| < tau_theta and |r_i - r_j| < lambda_g."""
    t = np.asarray(thetas, dtype=float)
    r = np.asarray(radii, dtype=float)
    return (np.abs(t[:, None] - t[None, :]) < thresholds.tau_theta) & (
        np.abs(r[:, None] - r[None, :]) < thresholds.lambda_g
    )


class CandidateGraph:
    """The pair list of a square boolean adjacency A over k candidates, grouped by target.

    Pair p is the edge ``src[p] -> dst[p]`` with ``A[src[p], dst[p]]`` set, in
    ``np.nonzero(A.T)`` order, so ``dst`` ascends and each target's in-edges
    form one contiguous run.  The index arrays are read-only.
    """

    def __init__(self, adjacency):
        adjacency = np.asarray(adjacency)
        if adjacency.dtype != bool or adjacency.ndim != 2 or len(set(adjacency.shape)) != 1:
            raise ShapeError("adjacency must be a square boolean (K, K) matrix")
        self.k = adjacency.shape[0]
        dst, src = np.nonzero(adjacency.T)
        self.src, self.dst = _frozen(src, np.intp), _frozen(dst, np.intp)
        self._targets, self._starts = np.unique(dst, return_index=True)

    def in_edge_max(self, values) -> np.ndarray:
        """(k, ...) element-wise max of the rows of ``values`` (row p for pair p)
        over each target's in-edges; a target with no in-edge pools zeros."""
        values = np.asarray(values, dtype=float)
        if values.shape[:1] != self.dst.shape:
            raise ShapeError("values must hold one row per pair")
        pooled = np.zeros((self.k, *values.shape[1:]))
        pooled[self._targets] = np.maximum.reduceat(values, self._starts, axis=0)
        return pooled


def iou_distance(w_base: float) -> DistanceFn:
    """Distance d = 1 - IoU(g=0) between regressed lanes, at semi-width w_base.

    Passing the classic pixel presets (50 / 15) as w_base reproduces the
    conservative and aggressive suppression regimes with one knob.  A bad
    ``w_base`` raises InvalidInput here, even for frames that never reach
    the distance.
    """
    check_width(w_base)

    def matrix(cands: "CandidateSet") -> np.ndarray:
        return 1.0 - pairwise_iou(
            cands.lane_xs, cands.valid, cands.lane_xs, cands.valid, cands.frame.rows_y, w_base
        )

    return matrix


def _distance_matrix(cands: CandidateSet, distance: DistanceFn) -> np.ndarray:
    """``distance(cands)`` as floats; ShapeError unless it is (K, K)."""
    k = len(cands)
    dist = np.asarray(distance(cands), dtype=float)
    if dist.shape != (k, k):
        raise ShapeError(f"distance matrix must have shape ({k}, {k})")
    return dist


def fast_nms_geometric(
    cands: CandidateSet, thresholds: SuppressionThresholds, distance: DistanceFn
) -> np.ndarray:
    """Sort-free suppression gated by the geometric prior.

    A = A_C * A_G; candidate j survives the pooled test iff every in-neighbor
    sits further than tau_d away (empty in-neighborhood survives).  The final
    set intersects survivors with {s_o2m > tau_o2m}.  Single pass, no
    rescue: a suppressed candidate still suppresses others.
    """
    if len(cands) == 0:
        return np.empty(0, dtype=int)
    dist = _distance_matrix(cands, distance)
    graph = CandidateGraph(confidence_adjacency(cands.scores_o2m)
                           & geometric_adjacency(cands.thetas, cands.radii, thresholds))
    d = dist[graph.src, graph.dst]
    with np.errstate(divide="ignore"):
        inverse = np.where(d > 0, 1.0 / d, np.inf)
    survive = graph.in_edge_max(inverse) < 1.0 / thresholds.tau_d
    return np.flatnonzero(survive & (cands.scores_o2m > thresholds.tau_o2m))


def sequential_nms(
    cands: CandidateSet, distance: DistanceFn, tau_d: float, tau_o2m: float
) -> np.ndarray:
    """Classic greedy NMS baseline.

    Candidates below tau_o2m are dropped first; then repeatedly keep the
    highest-scoring remaining candidate and discard the rest within tau_d of
    it.  Score ties resolve toward the higher index, matching the
    confidence-adjacency order.
    """
    alive = np.flatnonzero(cands.scores_o2m > tau_o2m)
    if alive.size == 0:
        return alive
    dist = _distance_matrix(cands, distance)
    remaining = alive[np.lexsort((-alive, -cands.scores_o2m[alive]))]
    kept = []
    while remaining.size:
        top = int(remaining[0])
        kept.append(top)
        rest = remaining[1:]
        remaining = rest[dist[top, rest] >= tau_d]
    return np.array(sorted(kept), dtype=int)


def dual_confidence_select(cands: CandidateSet, tau_o2o: float, tau_o2m: float) -> np.ndarray:
    """NMS-free selection: {i : s_o2o_i > tau_o2o} intersect {i : s_o2m_i > tau_o2m}."""
    if cands.scores_o2o is None:
        raise MissingO2OScores("candidate set has no one-to-one scores")
    return np.flatnonzero((cands.scores_o2o > tau_o2o) & (cands.scores_o2m > tau_o2m))
