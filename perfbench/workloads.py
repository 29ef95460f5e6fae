"""Workload definitions for the polar-kit benchmark.

A workload is a fixed recipe (scene count, lanes per scene, candidate noise
model); the seed given on the command line picks its inputs.  Scene and
candidate seeds are derived per scene exactly as ``polar-kit run-pipeline``
and ``run_pipeline`` derive them, so seed 7 on ``dense_k26`` is the ROADMAP
canonical run (200 dense 4-lane scenes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from polar_kit import config as defaults
from polar_kit.harness import (
    MODES,
    CandidateGenSpec,
    PipelineRun,
    SceneSpec,
    gen_candidates,
    gen_scene,
    write_metrics_csv,
    write_selections,
)
from polar_kit.o2o_head import HeadWeights


@dataclass(frozen=True)
class Workload:
    """Dense scenes plus candidate noise.

    Dense scenes append a fork twin, so K = (lane_count + 1) * n_per_gt + n_background.
    """

    n_scenes: int
    lane_count: int
    n_per_gt: int
    n_background: int
    # Seconds of select_candidates calls per mode after each run_pipeline
    # call: ~20 frames at K = 26; at K = 1024 one NMS frame or ~4 head frames,
    # enough for a steady dual-confidence tail.
    frame_seconds_per_step: float


_DEFAULT_CANDS = CandidateGenSpec()

WORKLOADS = {
    # Canonical run, K = 26: fixed per-scene cost (generation, evaluation) dominates.
    "dense_k26": Workload(
        n_scenes=200, lane_count=4,
        n_per_gt=_DEFAULT_CANDS.n_per_gt, n_background=_DEFAULT_CANDS.n_background,
        frame_seconds_per_step=0.025,
    ),
    # K = 1024 at ~10 % gate density: the dense pairwise kernels (iou_distance,
    # the head's edge tensor) dominate.  Two scenes keep both pool workers busy.
    "dense_k1024": Workload(
        n_scenes=2, lane_count=4, n_per_gt=200, n_background=24, frame_seconds_per_step=1.0),
    # Same K on a base lane and its fork twin: ~26 % gate density, so a gated
    # or sparse path prunes 2.6x fewer pairs than on dense_k1024.
    "crowded_k1024": Workload(
        n_scenes=2, lane_count=1, n_per_gt=500, n_background=24, frame_seconds_per_step=1.0),
}


def child_seed(seed: int, index: int) -> int:
    """Per-scene seed, the same derivation the CLI and ``run_pipeline`` use."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def build_runs(name: str, seed: int, n_scenes: int | None = None) -> dict:
    """One ``PipelineRun`` per mode; ``n_scenes`` shortens the workload (tests only)."""
    w = WORKLOADS[name]
    frame = defaults.default_frame()
    count = w.n_scenes if n_scenes is None else n_scenes
    scenes = tuple(
        SceneSpec(frame=frame, kind="dense", lane_count=w.lane_count, seed=child_seed(seed, i))
        for i in range(count)
    )
    cands = CandidateGenSpec(n_per_gt=w.n_per_gt, n_background=w.n_background, seed=seed)
    return {
        mode: PipelineRun(
            scenes=scenes,
            candidates=cands,
            mode=mode,
            thresholds=defaults.default_thresholds(),
            nms_width=defaults.NMS_WIDTH_OPTIMAL_PX,
            eval_w_base=defaults.DEFAULT_W_BASE,
            head_seed=seed,
        )
        for mode in MODES
    }


def head_weights(run: PipelineRun) -> HeadWeights:
    """The weights ``run_pipeline`` builds for the dual-confidence mode."""
    return HeadWeights.seeded(
        run.scenes[0].frame.n_rows, run.feat_c_f, run.feat_d_r, run.feat_d_n, run.head_seed
    )


def frame_inputs(run: PipelineRun) -> list:
    """(gts, candidates) per scene, generated as ``run_pipeline`` generates them."""
    out = []
    for idx, spec in enumerate(run.scenes):
        gts = gen_scene(spec)
        spec_i = replace(run.candidates, seed=child_seed(run.candidates.seed, idx))
        cands = gen_candidates(
            gts, spec_i, frame=spec.frame, pole=defaults.default_global_pole(spec.frame)
        )
        out.append((gts, cands))
    return out


def output_digests(run: PipelineRun, result) -> dict:
    """SHA-256 of the selections file and the metrics CSV the CLI would write."""
    sel = out_dir() / "selections.json"
    csv = out_dir() / "metrics.csv"
    write_selections(sel, run.mode, result.outcomes)
    write_metrics_csv(csv, result.report)
    return {
        "selections_sha256": hashlib.sha256(sel.read_bytes()).hexdigest(),
        "metrics_csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
    }


def out_dir() -> Path:
    """Benchmark output directory at the checkout root (ignored by git)."""
    path = Path(__file__).resolve().parent.parent / ".bench_out"
    path.mkdir(exist_ok=True)
    return path
