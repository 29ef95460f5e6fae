"""Spans and counters around the calls into polar-kit's layers.

``Tracer.installed()`` replaces each traced function with a wrapper under the
name its caller looks it up by, and puts the originals back on exit.  Nothing
in ``src/`` knows about tracing.  A span records its name, start, end, parent
span, request id (the scene index) and thread id; spans stay in memory until
the caller writes them out.  Counters are computed after the wrapped call has
returned, inside a ``trace.count`` span, so their cost stays out of the
layers' self times; only the Hungarian-call counter, a single increment,
runs inside ``f1_suite``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

import polar_kit.evaluation as evaluation
import polar_kit.harness.pipeline as pipeline
import polar_kit.harness.scenes as scenes
import polar_kit.o2o_head as o2o_head
import polar_kit.suppression as suppression

# Captured before any wrapper is installed, so counting never opens spans.
_confidence_adjacency = suppression.confidence_adjacency
_geometric_adjacency = suppression.geometric_adjacency

COUNT_SPAN = "trace.count"


def gated_pairs(scores, thetas, radii, thresholds) -> int:
    """nnz(A_C & A_G): the ordered pairs the geometric prior leaves to evaluate."""
    gate = _confidence_adjacency(scores) & _geometric_adjacency(thetas, radii, thresholds)
    return int(np.count_nonzero(gate))


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int


class Tracer:
    """Collects spans and counters for the pipeline calls made while installed."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._scene_index: dict[int, int] = {}

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        # Pool threads start with an empty stack; their spans belong to the
        # run_pipeline call that owns the pool.
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, name, start, end, parent,
                getattr(self._local, "request", None), threading.get_ident(),
            ))

    def _add(self, deltas: dict) -> None:
        with self._lock:
            self.counters.update(deltas)

    def _wrap(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT_SPAN):
                    self._add(count(out, *args, **kwargs))
            return out

        return wrapper

    def run_pipeline(self, run):
        """``run_pipeline(run)`` inside a root span that its pool threads attach to."""
        self._scene_index = {id(spec): i for i, spec in enumerate(run.scenes)}
        self._local.request = None
        with self.span("pipeline.run_pipeline") as span_id:
            self._root = span_id
            try:
                return pipeline.run_pipeline(run)
            finally:
                self._root = None

    # ------------------------------------------------------- installing

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patches = self._patches()
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, make in patches:
                setattr(module, attr, make(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _patches(self):
        def spanned(name, count=None):
            return lambda fn: self._wrap(name, fn, count)

        adjacency = spanned("suppression.adjacency")
        return [
            (pipeline, "gen_scene", self._gen_scene),
            (pipeline, "gen_candidates", spanned(
                "candidates.gen_candidates",
                lambda out, *a, **k: {"candidates.k_total": len(out)})),
            (pipeline, "sequential_nms", spanned(
                "suppression.sequential_nms", self._count_sequential)),
            (pipeline, "fast_nms_geometric", spanned(
                "suppression.fast_nms_geometric", self._count_fast)),
            (pipeline, "dual_confidence_select", spanned(
                "suppression.dual_confidence_select", self._count_dual)),
            (pipeline, "iou_distance", self._iou_distance),
            (pipeline, "head_forward", spanned("o2o_head.head_forward", self._count_head)),
            (pipeline, "f1_suite", spanned(
                "evaluation.f1_suite",
                lambda out, preds, *a, **k: {"evaluation.scenes": len(preds)})),
            (suppression, "confidence_adjacency", adjacency),
            (suppression, "geometric_adjacency", adjacency),
            (o2o_head, "confidence_adjacency", adjacency),
            (o2o_head, "geometric_adjacency", adjacency),
            (evaluation, "iou_matrix", spanned(
                "laneiou.iou_matrix", lambda *a, **k: {"evaluation.iou_builds": 1})),
            (evaluation, "linear_sum_assignment", self._count_calls("evaluation.assignments")),
            (scenes, "iou_matrix", spanned("laneiou.iou_matrix")),
        ]

    # --------------------------------------------------------- wrappers

    def _gen_scene(self, fn):
        wrapped = self._wrap("scenes.gen_scene", fn)

        def gen_scene(spec):
            # Each pool task starts with gen_scene, so the scene index tags
            # every later span of that task on this thread.
            self._local.request = self._scene_index.get(id(spec))
            return wrapped(spec)

        return gen_scene

    def _iou_distance(self, factory):
        def iou_distance(w_base):
            return self._wrap("laneiou.iou_distance", factory(w_base), self._count_distance)

        return iou_distance

    def _count_calls(self, counter: str):
        def wrap(fn):
            def counted(*args, **kwargs):
                self._add({counter: 1})
                return fn(*args, **kwargs)

            return counted

        return wrap

    # --------------------------------------------------------- counters

    @staticmethod
    def _selection(mode: str, cands, kept, tau_o2m: float) -> dict:
        k = len(cands)
        score_gate = int(np.count_nonzero(~(cands.scores_o2m > tau_o2m)))
        return {
            f"suppression.{mode}.kept": len(kept),
            f"suppression.{mode}.dropped_score_gate": score_gate,
            f"suppression.{mode}.dropped_suppressed": k - len(kept) - score_gate,
        }

    def _count_sequential(self, kept, cands, distance, tau_d, tau_o2m):
        return self._selection("sequential", cands, kept, tau_o2m)

    def _count_fast(self, kept, cands, thresholds, distance):
        out = self._selection("fast_geometric", cands, kept, thresholds.tau_o2m)
        out["suppression.pairs_total"] = len(cands) ** 2
        out["suppression.pairs_gated"] = gated_pairs(
            cands.scores_o2m, cands.thetas, cands.radii, thresholds)
        return out

    def _count_dual(self, kept, cands, tau_o2o, tau_o2m):
        # NMS-free: the one-to-one score gate takes the place of suppression.
        return self._selection("dual_confidence", cands, kept, tau_o2m)

    def _count_head(self, out, level_feats, scores_o2m, thetas, radii, anchor_xs,
                    thresholds, weights):
        k = len(scores_o2m)
        gated = gated_pairs(scores_o2m, thetas, radii, thresholds)
        return {
            "o2o_head.edges_computed": k * k,
            "o2o_head.edges_pooled": gated,
            "suppression.pairs_total": k * k,
            "suppression.pairs_gated": gated,
        }

    def _count_distance(self, dist, cands):
        return {
            "laneiou.pairs_evaluated": len(cands) ** 2,
            "laneiou.pairs_useful": gated_pairs(
                cands.scores_o2m, cands.thetas, cands.radii, self.thresholds),
        }

    # ---------------------------------------------------------- results

    def counts(self) -> dict:
        """Every deterministic count: counters plus calls per span name."""
        calls = Counter(s.name for s in self.spans if s.name != COUNT_SPAN)
        return {**self.counters, **{f"{name}.calls": n for name, n in calls.items()}}

    def self_times(self) -> dict:
        """Seconds per span name: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        totals = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for start, end in sorted(children[s.id]):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            totals[s.name] += (s.end - s.start) - covered
        return dict(totals)

    def workers(self) -> int:
        """Most pool threads seen under one run_pipeline span."""
        roots = {s.id: s.thread for s in self.spans if s.name == "pipeline.run_pipeline"}
        threads = defaultdict(set)
        for s in self.spans:
            if s.parent in roots and s.thread != roots[s.parent]:
                threads[s.parent].add(s.thread)
        return max((len(t) for t in threads.values()), default=0)

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    st = tracer.self_times()
    c = tracer.counts()

    def ratio(a: str, b: str) -> float:
        return c.get(a, 0) / c[b] if c.get(b) else 0.0

    m = {
        "scenes.gen_scene.self_s": (st.get("scenes.gen_scene", 0.0), "s"),
        "candidates.gen_candidates.self_s": (st.get("candidates.gen_candidates", 0.0), "s"),
        "candidates.us_per_candidate": (
            1e6 * st.get("candidates.gen_candidates", 0.0) / c["candidates.k_total"], "us"),
        "candidates.k_total": (c["candidates.k_total"], "count"),
        "suppression.adjacency.self_s": (st.get("suppression.adjacency", 0.0), "s"),
        "suppression.pairs_total": (c["suppression.pairs_total"], "count"),
        "suppression.pairs_gated": (c["suppression.pairs_gated"], "count"),
        "suppression.gate_density": (
            ratio("suppression.pairs_gated", "suppression.pairs_total"), "ratio"),
    }
    for fn in ("fast_nms_geometric", "sequential_nms", "dual_confidence_select"):
        m[f"suppression.{fn}.self_s"] = (st.get(f"suppression.{fn}", 0.0), "s")
    for mode in pipeline.MODES:
        for what in ("kept", "dropped_score_gate", "dropped_suppressed"):
            key = f"suppression.{mode}.{what}"
            m[key] = (c.get(key, 0), "count")
    m.update({
        "laneiou.iou_distance.calls": (c.get("laneiou.iou_distance.calls", 0), "count"),
        "laneiou.iou_distance.self_s": (st.get("laneiou.iou_distance", 0.0), "s"),
        "laneiou.pairs_evaluated": (c.get("laneiou.pairs_evaluated", 0), "count"),
        "laneiou.useful_pair_ratio": (
            ratio("laneiou.pairs_useful", "laneiou.pairs_evaluated"), "ratio"),
        "laneiou.iou_matrix.calls": (c.get("laneiou.iou_matrix.calls", 0), "count"),
        "laneiou.iou_matrix.self_s": (st.get("laneiou.iou_matrix", 0.0), "s"),
        "o2o_head.head_forward.self_s": (st.get("o2o_head.head_forward", 0.0), "s"),
        "o2o_head.edges_computed": (c.get("o2o_head.edges_computed", 0), "count"),
        "o2o_head.edges_pooled": (c.get("o2o_head.edges_pooled", 0), "count"),
        "o2o_head.useful_edge_ratio": (
            ratio("o2o_head.edges_pooled", "o2o_head.edges_computed"), "ratio"),
        "evaluation.f1_suite.self_s": (st.get("evaluation.f1_suite", 0.0), "s"),
        "evaluation.iou_builds_per_scene": (
            ratio("evaluation.iou_builds", "evaluation.scenes"), "count"),
        "evaluation.assignments": (c.get("evaluation.assignments", 0), "count"),
        "pipeline.run_pipeline.self_s": (st.get("pipeline.run_pipeline", 0.0), "s"),
        "pipeline.workers": (tracer.workers(), "count"),
    })
    return m
