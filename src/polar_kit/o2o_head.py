"""Deterministic forward pass of the one-to-one scoring head.

The head refines per-candidate RoI features over the ``CandidateGraph`` that
fast NMS uses (the pairs of A = A_C * A_G, grouped by target): each pair gets
a semantic-distance edge vector, the graph's ``in_edge_max`` keeps each
candidate's strongest potential suppressor component-wise, as fast NMS pools
1/d, and a small MLP with a terminal sigmoid emits the one-to-one score.
Weights are supplied externally (seeded or loaded); nothing here trains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import ParseError, ShapeError, VersionError
from .suppression import (CandidateGraph, SuppressionThresholds, confidence_adjacency,
                          geometric_adjacency)

MlpLayers = tuple[tuple[np.ndarray, np.ndarray], ...]

_WEIGHTS_VERSION = 1
_MLP_FIELDS = ("edge_mlp", "node_mlp")  # stored as lists of {"w", "b"} layers


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x ~ -709, giving the exact limit 0.0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True, eq=False)
class HeadWeights:
    """All trainable tensors of the head, wired as:

    level aggregation (3, N) -> pooling (d_r, N*C_f) -> shared RoI transform
    (d_r, d_r) -> in/out edge maps (d_n, d_r) + x-difference map (d_n, N) ->
    2-layer edge MLP (d_n -> d_n) -> 3-layer node MLP (d_n -> 1, sigmoid).
    """

    level_weights: np.ndarray
    pool_matrix: np.ndarray
    roi_matrix: np.ndarray
    roi_bias: np.ndarray
    in_matrix: np.ndarray
    out_matrix: np.ndarray
    sample_matrix: np.ndarray
    sample_bias: np.ndarray
    edge_mlp: MlpLayers
    node_mlp: MlpLayers

    def __post_init__(self):
        lw = self.level_weights
        if lw.ndim != 2 or lw.shape[0] != 3 or lw.shape[1] < 1:
            raise ShapeError("level_weights must have shape (3, N) with N >= 1")
        n = lw.shape[1]
        if self.pool_matrix.ndim != 2 or self.pool_matrix.shape[1] % n != 0:
            raise ShapeError("pool_matrix must have shape (d_r, N * C_f)")
        d_r = self.pool_matrix.shape[0]
        if self.roi_matrix.shape != (d_r, d_r) or self.roi_bias.shape != (d_r,):
            raise ShapeError("roi transform must map d_r -> d_r")
        d_n = self.in_matrix.shape[0] if self.in_matrix.ndim == 2 else -1
        if self.in_matrix.shape != (d_n, d_r) or self.out_matrix.shape != (d_n, d_r):
            raise ShapeError("in/out matrices must have shape (d_n, d_r)")
        if self.sample_matrix.shape != (d_n, n) or self.sample_bias.shape != (d_n,):
            raise ShapeError("sample map must have shape (d_n, N) with bias (d_n,)")
        if len(self.edge_mlp) != 2:
            raise ShapeError("edge MLP must have exactly 2 layers")
        if len(self.node_mlp) != 3:
            raise ShapeError("node MLP must have exactly 3 layers")
        dim = d_n
        for w, b in self.edge_mlp:
            if w.ndim != 2 or w.shape[1] != dim or b.shape != (w.shape[0],):
                raise ShapeError("edge MLP layer shapes are inconsistent")
            dim = w.shape[0]
        if dim != d_n:
            raise ShapeError("edge MLP must end in dimension d_n")
        for w, b in self.node_mlp:
            if w.ndim != 2 or w.shape[1] != dim or b.shape != (w.shape[0],):
                raise ShapeError("node MLP layer shapes are inconsistent")
            dim = w.shape[0]
        if dim != 1:
            raise ShapeError("node MLP must end in a single score unit")

    @property
    def n_rows(self) -> int:
        return self.level_weights.shape[1]

    @property
    def c_f(self) -> int:
        return self.pool_matrix.shape[1] // self.n_rows

    @property
    def d_r(self) -> int:
        return self.pool_matrix.shape[0]

    @property
    def d_n(self) -> int:
        return self.in_matrix.shape[0]

    @classmethod
    def seeded(cls, n_rows: int, c_f: int, d_r: int, d_n: int, seed: int) -> "HeadWeights":
        """Reproducible uniform [-0.1, 0.1] init for structure-level runs."""
        rng = np.random.default_rng(seed)

        def u(*shape):
            return rng.uniform(-0.1, 0.1, size=shape)

        return cls(
            level_weights=u(3, n_rows),
            pool_matrix=u(d_r, n_rows * c_f),
            roi_matrix=u(d_r, d_r),
            roi_bias=u(d_r),
            in_matrix=u(d_n, d_r),
            out_matrix=u(d_n, d_r),
            sample_matrix=u(d_n, n_rows),
            sample_bias=u(d_n),
            edge_mlp=((u(d_n, d_n), u(d_n)), (u(d_n, d_n), u(d_n))),
            node_mlp=((u(d_n, d_n), u(d_n)), (u(d_n, d_n), u(d_n)), (u(1, d_n), u(1))),
        )

    def to_json_dict(self) -> dict:
        def tag(a: np.ndarray) -> dict:
            return {"shape": list(a.shape), "data": np.asarray(a, dtype=float).ravel().tolist()}

        blob = {"version": _WEIGHTS_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _MLP_FIELDS:
                blob[f.name] = [{"w": tag(w), "b": tag(b)} for w, b in value]
            else:
                blob[f.name] = tag(value)
        return blob

    @classmethod
    def from_json_dict(cls, blob, path: str | None = None) -> "HeadWeights":
        """Weights from ``to_json_dict``'s layout; any other input raises ParseError."""
        tag = {"shape": [0], "data": [0.0]}
        like = {f.name: [{"w": tag, "b": tag}] if f.name in _MLP_FIELDS else tag
                for f in fields(cls)}
        blob = jsonio.typed("", blob, {"version": 0, **like}, partial(ParseError, path=path))
        if blob["version"] != _WEIGHTS_VERSION:
            raise VersionError(f"unsupported weights version {blob['version']}", path=path)

        def untag(entry, field: str) -> np.ndarray:
            shape, data = entry["shape"], entry["data"]
            if min(shape, default=0) < 0 or math.prod(shape) != len(data):
                raise ParseError(f"{field}: {len(data)} values do not fill shape {shape}", path)
            return np.array(data, dtype=float).reshape(shape)

        def untag_mlp(entries, field: str) -> MlpLayers:
            return tuple((untag(e["w"], f"{field}[{i}].w"), untag(e["b"], f"{field}[{i}].b"))
                         for i, e in enumerate(entries))

        arrays = {f.name: (untag_mlp if f.name in _MLP_FIELDS else untag)(blob[f.name], f.name)
                  for f in fields(cls)}
        try:
            return cls(**arrays)
        except ShapeError as exc:
            raise ParseError(str(exc), path=path)


def save_weights(weights: HeadWeights, path) -> None:
    Path(path).write_text(json.dumps(weights.to_json_dict(), sort_keys=True))


def load_weights(path) -> HeadWeights:
    blob = jsonio.load(path, partial(ParseError, path=str(path)))
    return HeadWeights.from_json_dict(blob, path=str(path))


def aggregate_levels(level_feats, level_weights) -> np.ndarray:
    """Convex per-row combination of three feature levels.

    ``level_feats`` is (..., 3, N, C_f); the softmax over the level axis of
    ``level_weights`` (3, N) makes each sample row a convex combination.
    """
    feats = np.asarray(level_feats, dtype=float)
    w = np.asarray(level_weights, dtype=float)
    if feats.shape[-3] != 3 or w.shape != (3, feats.shape[-2]):
        raise ShapeError("level_feats must be (..., 3, N, C_f) with weights (3, N)")
    e = np.exp(w - w.max(axis=0, keepdims=True))
    soft = e / e.sum(axis=0, keepdims=True)
    return np.sum(feats * soft[..., :, :, None], axis=-3)


def roi_project(aggregated, pool_matrix) -> np.ndarray:
    """Flatten (..., N, C_f) and apply the pooling projection (linear)."""
    agg = np.asarray(aggregated, dtype=float)
    pool = np.asarray(pool_matrix, dtype=float)
    flat = agg.reshape(*agg.shape[:-2], agg.shape[-2] * agg.shape[-1])
    if flat.shape[-1] != pool.shape[1]:
        raise ShapeError(
            f"pool_matrix expects {pool.shape[1]} inputs, got {flat.shape[-1]}"
        )
    return flat @ pool.T


def _mlp(x: np.ndarray, layers: MlpLayers, sigmoid_out: bool) -> np.ndarray:
    for i, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if i < len(layers) - 1:
            x = _relu(x)
    return _sigmoid(x) if sigmoid_out else x


def edge_tensor(rois, anchor_xs, weights: HeadWeights, graph: CandidateGraph) -> np.ndarray:
    """(P, d_n) semantic distances of the graph's P pairs; row p reads "src[p] vs dst[p]".

    D_edge[i, j] = MLP_edge(W_in F_j - W_out F_i + W_s (x_j - x_i) + b_s)
    with F the ReLU-transformed RoI features.  Row p depends only on
    candidates src[p] and dst[p]; a graph of another K raises ShapeError.
    """
    rois = np.asarray(rois, dtype=float)
    xs = np.asarray(anchor_xs, dtype=float)
    k = rois.shape[0]
    if rois.ndim != 2 or rois.shape[1] != weights.d_r:
        raise ShapeError(f"rois must have shape (K, {weights.d_r})")
    if xs.shape != (k, weights.n_rows):
        raise ShapeError(f"anchor_xs must have shape ({k}, {weights.n_rows})")
    if graph.k != k:
        raise ShapeError(f"graph must be over the {k} candidates, not {graph.k}")
    f_hat = _relu(rois @ weights.roi_matrix.T + weights.roi_bias)
    f_in = f_hat @ weights.in_matrix.T
    f_out = f_hat @ weights.out_matrix.T
    sx = xs @ weights.sample_matrix.T
    src, dst = graph.src, graph.dst
    pre = f_in[dst] - f_out[src] + sx[dst] - sx[src] + weights.sample_bias
    return _mlp(pre, weights.edge_mlp, sigmoid_out=False)


def node_scores(pooled, node_mlp: MlpLayers) -> np.ndarray:
    """(K,) scores in [0, 1] from the 3-layer node MLP with sigmoid output."""
    p = np.asarray(pooled, dtype=float)
    if p.ndim != 2 or p.shape[1] != node_mlp[0][0].shape[1]:
        raise ShapeError("pooled features do not match the node MLP input size")
    return _mlp(p, node_mlp, sigmoid_out=True)[:, 0]


def head_forward(
    level_feats,
    scores_o2m,
    thetas,
    radii,
    anchor_xs,
    thresholds: SuppressionThresholds,
    weights: HeadWeights,
) -> np.ndarray:
    """Full head pass: features -> RoI -> gated pairs -> edges -> pool -> scores.

    Args:
        level_feats: (K, 3, N, C_f) per-candidate, per-level point features.
        scores_o2m: (K,) confidence scores driving the adjacency direction.
        thetas, radii: (K,) global-polar anchor parameters.
        anchor_xs: (K, N) raw anchor x-samples (pre-regression).

    Returns:
        scores_o2o of shape (K,).
    """
    feats = np.asarray(level_feats, dtype=float)
    k = feats.shape[0]
    if feats.ndim != 4 or feats.shape[1] != 3 or feats.shape[2] != weights.n_rows \
            or feats.shape[3] != weights.c_f:
        raise ShapeError(
            f"level_feats must have shape (K, 3, {weights.n_rows}, {weights.c_f})"
        )
    scores_o2m = np.asarray(scores_o2m, dtype=float)
    if not scores_o2m.shape == np.shape(thetas) == np.shape(radii) == (k,):
        raise ShapeError("scores_o2m, thetas and radii must have shape (K,)")
    rois = roi_project(aggregate_levels(feats, weights.level_weights), weights.pool_matrix)
    graph = CandidateGraph(
        confidence_adjacency(scores_o2m) & geometric_adjacency(thetas, radii, thresholds))
    edges = edge_tensor(rois, anchor_xs, weights, graph)
    return node_scores(graph.in_edge_max(edges), weights.node_mlp)
