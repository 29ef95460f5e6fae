"""End-to-end synthetic runs comparing suppression modes, plus timing.

One ``PipelineRun`` fixes the scene recipes, the candidate noise model, and a
suppression mode; running it yields pooled detection metrics and the
per-scene selections.  Candidate generation depends only on the seeds, never
on the mode, so runs differing only in ``mode`` consume identical candidate
sets (asserted via content hashes).  Scenes are processed by a thread pool
capped by the POLAR_KIT_THREADS environment variable; outputs are gathered in
scene order, and only the timing fields vary between repeated runs.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .. import config as defaults
from ..errors import ConfigError
from ..evaluation import MF1_THRESHOLDS, MetricsReport, f1_suite
from ..geometry import ImageFrame, LaneGrid
from ..o2o_head import HeadWeights, head_forward
from ..suppression import (
    CandidateSet,
    SuppressionThresholds,
    dual_confidence_select,
    fast_nms_geometric,
    iou_distance,
    sequential_nms,
)
from .candidates import CandidateGenSpec, gen_candidates, oracle_o2o_scores
from .scenes import SceneSpec, child_seed, gen_scene

MODES = ("sequential", "fast_geometric", "dual_confidence")


@dataclass(frozen=True)
class PipelineRun:
    """Immutable description of one comparison arm."""

    scenes: tuple[SceneSpec, ...]
    candidates: CandidateGenSpec
    mode: str
    thresholds: SuppressionThresholds
    nms_width: float = defaults.NMS_WIDTH_OPTIMAL_PX  # w_base of the NMS distance function
    eval_w_base: float = defaults.DEFAULT_W_BASE
    eval_thresholds: tuple = MF1_THRESHOLDS
    oracle_o2o: bool = False       # idealized one-to-one scorer instead of the head
    head_seed: int = 0
    feat_c_f: int = 8
    feat_d_r: int = 16
    feat_d_n: int = 5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("nms_width", "eval_w_base"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value}")
        if self.head_seed < 0:
            raise ConfigError("head_seed must be >= 0")
        if min(self.feat_c_f, self.feat_d_r, self.feat_d_n) < 1:
            raise ConfigError("feat_c_f, feat_d_r and feat_d_n must be >= 1")


@dataclass(frozen=True)
class SceneOutcome:
    scene_id: int
    selected: tuple[int, ...]
    candidates_sha256: str


@dataclass(frozen=True)
class PipelineResult:
    report: MetricsReport
    outcomes: tuple[SceneOutcome, ...]
    gts_per_scene: tuple[tuple[LaneGrid, ...], ...]
    preds_per_scene: tuple[tuple[LaneGrid, ...], ...]
    wall_time_s: float
    per_scene_seconds: tuple[float, ...]


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("POLAR_KIT_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"POLAR_KIT_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise ConfigError("POLAR_KIT_THREADS must be >= 1")
    return max(1, min(cap, n_tasks))


def _head_scores(cands: CandidateSet, run: PipelineRun, weights: HeadWeights, scene_idx: int):
    rng = np.random.default_rng(np.random.SeedSequence((run.head_seed, scene_idx)))
    feats = rng.standard_normal((len(cands), 3, cands.frame.n_rows, run.feat_c_f))
    return head_forward(
        feats, cands.scores_o2m, cands.thetas, cands.radii, cands.anchor_xs,
        run.thresholds, weights,
    )


def select_candidates(
    cands: CandidateSet,
    run: PipelineRun,
    gts: list[LaneGrid],
    weights: HeadWeights | None,
    scene_idx: int,
) -> np.ndarray:
    """Apply the run's suppression mode to one candidate set."""
    if run.mode == "sequential":
        return sequential_nms(
            cands, iou_distance(run.nms_width), run.thresholds.tau_d, run.thresholds.tau_o2m
        )
    if run.mode == "fast_geometric":
        return fast_nms_geometric(cands, run.thresholds, iou_distance(run.nms_width))
    if run.oracle_o2o:
        scored = cands.with_o2o(oracle_o2o_scores(cands, gts, run.eval_w_base))
    else:
        scored = cands.with_o2o(_head_scores(cands, run, weights, scene_idx))
    return dual_confidence_select(scored, run.thresholds.tau_o2o, run.thresholds.tau_o2m)


def run_pipeline(run: PipelineRun) -> PipelineResult:
    """Generate, select, and score every scene; pool the metrics."""
    weights = None
    if run.mode == "dual_confidence" and not run.oracle_o2o:
        weights = HeadWeights.seeded(
            run.scenes[0].frame.n_rows if run.scenes else 36,
            run.feat_c_f, run.feat_d_r, run.feat_d_n, run.head_seed,
        )

    def process(idx: int):
        t0 = time.perf_counter()
        spec = run.scenes[idx]
        gts = gen_scene(spec)
        cand_spec = replace(run.candidates, seed=child_seed(run.candidates.seed, idx))
        cands = gen_candidates(
            gts, cand_spec, frame=spec.frame, pole=defaults.default_global_pole(spec.frame)
        )
        selected = select_candidates(cands, run, gts, weights, idx)
        preds = [cands.lane(int(i)) for i in selected]
        outcome = SceneOutcome(
            scene_id=idx,
            selected=tuple(int(i) for i in selected),
            candidates_sha256=cands.sha256(),
        )
        return outcome, tuple(gts), tuple(preds), time.perf_counter() - t0

    t_start = time.perf_counter()
    n = len(run.scenes)
    if n == 0:
        empty = f1_suite([], [], run.eval_thresholds, run.eval_w_base)
        return PipelineResult(empty, (), (), (), 0.0, ())
    with ThreadPoolExecutor(max_workers=_worker_count(n)) as pool:
        results = list(pool.map(process, range(n)))

    outcomes = tuple(r[0] for r in results)
    gts_per_scene = tuple(r[1] for r in results)
    preds_per_scene = tuple(r[2] for r in results)
    report = f1_suite(
        [list(p) for p in preds_per_scene],
        [list(g) for g in gts_per_scene],
        run.eval_thresholds,
        run.eval_w_base,
    )
    return PipelineResult(
        report=report,
        outcomes=outcomes,
        gts_per_scene=gts_per_scene,
        preds_per_scene=preds_per_scene,
        wall_time_s=time.perf_counter() - t_start,
        per_scene_seconds=tuple(r[3] for r in results),
    )


def assert_shared_candidates(a: PipelineResult, b: PipelineResult) -> None:
    """Fairness check: two compared runs must have consumed identical candidates."""
    hashes_a = [o.candidates_sha256 for o in a.outcomes]
    hashes_b = [o.candidates_sha256 for o in b.outcomes]
    if hashes_a != hashes_b:
        raise AssertionError("compared runs consumed different candidate sets")


# ------------------------------------------------------------------ timing

@dataclass(frozen=True)
class BenchRow:
    mode: str
    k: int
    repetitions: int
    median_seconds: float


def _random_candidate_set(k: int, frame: ImageFrame, rng: np.random.Generator) -> CandidateSet:
    pole = defaults.default_global_pole(frame)
    thetas = rng.uniform(-0.3, 0.3, size=k)
    radii = rng.uniform(-0.45, 0.45, size=k) * frame.width
    t = (frame.height - frame.rows_y) / frame.height
    intercepts = rng.uniform(20.0, frame.width - 20.0, size=k)
    slopes = rng.uniform(-100.0, 100.0, size=k)
    xs = intercepts[:, None] + slopes[:, None] * t[None, :]
    return CandidateSet(
        frame=frame,
        thetas=thetas,
        radii=radii,
        anchor_xs=xs,
        lane_xs=xs,
        valid=np.tile([0, frame.n_rows - 1], (k, 1)),
        scores_o2m=rng.uniform(0.3, 1.0, size=k),
        pole=pole,
    )


def bench_suppression(
    k_values,
    repetitions: int = 3,
    seed: int = 0,
    frame: ImageFrame | None = None,
    thresholds: SuppressionThresholds | None = None,
    nms_width: float = defaults.NMS_WIDTH_OPTIMAL_PX,
    modes: tuple[str, ...] = ("fast_geometric", "sequential"),
) -> list[BenchRow]:
    """Median wall time of each suppression mode at each candidate count.

    Only the suppression call (including its distance-matrix build) is timed;
    candidate generation happens outside the clock.
    """
    if repetitions < 1:
        raise ConfigError("bench repetitions must be >= 1")
    frame = frame or defaults.default_frame()
    thresholds = thresholds or defaults.default_thresholds()
    rng = np.random.default_rng(seed)
    rows = []
    for k in k_values:
        if k < 1:
            raise ConfigError("bench candidate counts must be >= 1")
        cands = _random_candidate_set(int(k), frame, rng)
        distance = iou_distance(nms_width)
        for mode in modes:
            if mode not in ("fast_geometric", "sequential"):
                raise ConfigError(f"unknown bench mode {mode!r}")
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                if mode == "fast_geometric":
                    fast_nms_geometric(cands, thresholds, distance)
                else:
                    sequential_nms(cands, distance, thresholds.tau_d, thresholds.tau_o2m)
                times.append(time.perf_counter() - t0)
            rows.append(
                BenchRow(
                    mode=mode, k=int(k), repetitions=repetitions,
                    median_seconds=float(np.median(times)),
                )
            )
    return rows


def quadratic_fit_r2(ks, seconds) -> float:
    """R^2 of a quadratic least-squares fit of runtime against K."""
    ks = np.asarray(ks, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    coeffs = np.polyfit(ks, seconds, deg=2)
    fitted = np.polyval(coeffs, ks)
    ss_res = float(np.sum((seconds - fitted) ** 2))
    ss_tot = float(np.sum((seconds - seconds.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
