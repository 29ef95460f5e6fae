"""Command-line entry point.

Subcommands:
  gen-scenes    write synthetic scene files
  labels        dump pole-grid ground-truth labels for scenes
  run-pipeline  run one suppression mode end to end and write metrics
  eval          score prediction files against ground-truth files
  bench         time the suppression paths over a range of candidate counts

Exit codes: 0 success; 1 internal error (uncaught, with a traceback);
2 validation/config error; 3 I/O or data-file error.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import config as defaults
from . import jsonio
from .errors import ConfigError, ParseError, PolarKitError
from .evaluation import MF1_THRESHOLDS, checked_thresholds, f1_suite
from .geometry import ImageFrame, LpmConfig, local_pole_lattice, lpm_labels
from .harness import (
    CandidateGenSpec,
    PipelineRun,
    SceneSpec,
    bench_suppression,
    child_seed,
    gen_scene,
    run_pipeline,
    write_bench_csv,
    write_labels,
    write_metrics_csv,
    write_metrics_json,
    write_scene,
    write_selections,
)
from .harness.fileio import read_scene_dir

_CONFIG_SECTIONS = ("scenes", "candidates", "suppression", "pipeline", "labels")


@contextmanager
def _user_values():
    """Turn type and value errors raised while parsing user input into ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    blob = jsonio.load(path, lambda message: ConfigError(f"{path}: config {message}"))
    unknown = blob.keys() - set(_CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config section(s) {sorted(unknown)}")
    return blob


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    blob = cfg.get(name, {})
    if not isinstance(blob, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = blob.keys() - allowed
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown key(s) {sorted(unknown)}")
    return dict(blob)


def _fields(cls, *omit: str) -> set[str]:
    return {f.name for f in fields(cls)} - set(omit)


def _get(name: str, blob: dict, key: str, default):
    if key not in blob:
        return default
    return jsonio.typed(f"{name}.{key}", blob[key], default, ConfigError)


def _apply(name: str, blob: dict, base, **fixed):
    """``base`` with ``fixed`` and the keys of section ``name`` that are its fields.

    A value the dataclass rejects raises ConfigError naming the section keys
    its message mentions.
    """
    values = {
        f.name: jsonio.typed(f"{name}.{f.name}", blob[f.name], getattr(base, f.name), ConfigError)
        for f in fields(base) if f.name in blob
    }
    try:
        return replace(base, **values, **fixed)
    except (PolarKitError, ValueError) as exc:
        keys = [f"{name}.{k}" for k in values if re.search(rf"\b{k}\b", str(exc))]
        raise ConfigError(f"{', '.join(keys) or name}: {exc}") from exc


def _read(cfg: dict, name: str, base, *omit: str):
    """``base`` with config section ``name`` applied; its keys are the fields not omitted."""
    return _apply(name, _section(cfg, name, _fields(type(base), *omit)), base)


def _scene_specs(cfg: dict, seed: int) -> list[SceneSpec]:
    blob = _section(
        cfg, "scenes", {"count"} | _fields(ImageFrame) | _fields(SceneSpec, "frame", "seed")
    )
    count = _get("scenes", blob, "count", 8)
    if count < 1:
        raise ConfigError("scenes.count must be >= 1")
    frame = defaults.default_frame()
    base = SceneSpec(frame=frame, kind="sparse", lane_count=4)
    # The frame goes in with the other keys, so lane_count is checked against its width.
    spec = _apply("scenes", blob, base, frame=_apply("scenes", blob, frame))
    return [replace(spec, seed=child_seed(seed, i)) for i in range(count)]


def _pipeline_run(cfg: dict, seed: int) -> PipelineRun:
    base = PipelineRun(
        scenes=tuple(_scene_specs(cfg, seed)),
        candidates=_read(cfg, "candidates", CandidateGenSpec(seed=seed)),
        mode="sequential",
        thresholds=_read(cfg, "suppression", defaults.default_thresholds()),
        nms_width=defaults.NMS_WIDTH_OPTIMAL_PX,
        eval_w_base=defaults.DEFAULT_W_BASE,
        head_seed=seed,
    )
    return _read(cfg, "pipeline", base, "scenes", "candidates", "thresholds")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_scenes(args) -> int:
    specs = _scene_specs(_load_config(args.config), args.seed)
    out = _out_dir(args)
    for i, spec in enumerate(specs):
        lanes = gen_scene(spec)
        meta = {"scene_id": i, "kind": spec.kind, "seed": spec.seed}
        write_scene(out / f"scene_{i:04d}.json", lanes, meta)
    print(f"wrote {len(specs)} scene(s) to {out}")
    return 0


def _cmd_labels(args) -> int:
    cfg = _load_config(args.config)
    blob = _section(cfg, "labels", {"grid", "lambda_l", "top_k"})
    if args.lambda_l is not None:
        blob["lambda_l"] = args.lambda_l
    if "lambda_l" not in blob:
        raise ConfigError("labels.lambda_l is required (config key or --lambda-l)")
    grid = _get("labels", blob, "grid", defaults.SPARSE_GRID)
    with _user_values():
        lpm = LpmConfig(
            grid_rows=grid[0], grid_cols=grid[1],
            lambda_l=jsonio.typed("labels.lambda_l", blob["lambda_l"], 0.0, ConfigError),
            top_k=_get("labels", blob, "top_k", min(defaults.SPARSE_TOP_K, grid[0] * grid[1])),
        )
    scenes = read_scene_dir(args.scenes)
    per_scene = []
    for lanes, _meta in scenes:
        frame = lanes[0].frame if lanes else None
        if frame is None:
            raise ConfigError("label dumps need scenes with at least one lane")
        poles = local_pole_lattice(frame, lpm.grid_rows, lpm.grid_cols)
        per_scene.append(lpm_labels(lanes, poles, lpm))
    out = _out_dir(args)
    write_labels(out / "labels.json", per_scene, grid, lpm.lambda_l)
    print(f"wrote labels for {len(per_scene)} scene(s) to {out / 'labels.json'}")
    return 0


def _cmd_run_pipeline(args) -> int:
    run = _pipeline_run(_load_config(args.config), args.seed)
    result = run_pipeline(run)
    out = _out_dir(args)

    scenes_dir = out / "scenes"
    preds_dir = out / "preds"
    scenes_dir.mkdir(exist_ok=True)
    preds_dir.mkdir(exist_ok=True)
    for i, (gts, preds) in enumerate(zip(result.gts_per_scene, result.preds_per_scene)):
        frame = run.scenes[i].frame
        write_scene(scenes_dir / f"scene_{i:04d}.json", list(gts),
                    {"scene_id": i, "kind": run.scenes[i].kind}, frame=frame)
        write_scene(preds_dir / f"pred_{i:04d}.json", list(preds),
                    {"scene_id": i, "mode": run.mode}, frame=frame)
    write_metrics_json(out / "metrics.json", result.report)
    write_metrics_csv(out / "metrics.csv", result.report)
    write_selections(out / "selections.json", run.mode, result.outcomes,
                     {"seed": args.seed, "nms_width": run.nms_width})
    timing_lines = ["scene_id,seconds"]
    timing_lines += [f"{i},{s:.6f}" for i, s in enumerate(result.per_scene_seconds)]
    timing_lines.append(f"total,{result.wall_time_s:.6f}")
    (out / "timings.csv").write_text("\n".join(timing_lines) + "\n")
    print(
        f"mode={run.mode} scenes={len(run.scenes)} "
        f"F1@50={result.report.f1:.4f} mF1={result.report.mf1:.4f} -> {out}"
    )
    return 0


def _cmd_eval(args) -> int:
    preds = read_scene_dir(args.preds)
    gts = read_scene_dir(args.gts)
    if len(preds) != len(gts):
        raise ConfigError(
            f"prediction and ground-truth counts differ ({len(preds)} vs {len(gts)})"
        )
    thresholds = MF1_THRESHOLDS
    if args.thresholds:
        with _user_values():
            thresholds = checked_thresholds(args.thresholds.split(","))
    report = f1_suite(
        [lanes for lanes, _ in preds],
        [lanes for lanes, _ in gts],
        thresholds,
        w_base=args.w_base,
    )
    out = _out_dir(args)
    write_metrics_json(out / "metrics.json", report)
    write_metrics_csv(out / "metrics.csv", report)
    print(f"F1@{thresholds[0]:.2f}={report.f1:.4f} mF1={report.mf1:.4f} -> {out}")
    return 0


def _cmd_bench(args) -> int:
    with _user_values():
        k_values = [int(k) for k in args.k.split(",")]
    rows = bench_suppression(k_values, repetitions=args.reps, seed=args.seed)
    out = _out_dir(args)
    write_bench_csv(out / "bench.csv", rows)
    print(f"wrote {len(rows)} timing row(s) to {out / 'bench.csv'}")
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polar-kit",
        description="Synthetic lane-detection post-processing toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0, help="base RNG seed (>= 0)")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("gen-scenes", help="generate synthetic scene files")
    common(p)
    p.set_defaults(func=_cmd_gen_scenes)

    p = sub.add_parser("labels", help="dump pole-grid labels for scene files")
    common(p)
    p.add_argument("--scenes", type=str, required=True, help="scene file directory")
    p.add_argument("--lambda-l", dest="lambda_l", type=float, default=None,
                   help="positive-pole radius threshold (px)")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("run-pipeline", help="run one suppression mode end to end")
    common(p)
    p.set_defaults(func=_cmd_run_pipeline)

    p = sub.add_parser("eval", help="score prediction files against ground truth")
    common(p)
    p.add_argument("--preds", type=str, required=True)
    p.add_argument("--gts", type=str, required=True)
    p.add_argument("--w-base", dest="w_base", type=float, default=defaults.DEFAULT_W_BASE)
    p.add_argument("--thresholds", type=str, default=None,
                   help="comma-separated IoU thresholds (default 0.50..0.95)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="time suppression over candidate counts")
    common(p)
    p.add_argument("--k", type=str, default="32,64,128,256,512,1024")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:  # data-file problems, including version mismatches
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PolarKitError as exc:  # validation problems
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
