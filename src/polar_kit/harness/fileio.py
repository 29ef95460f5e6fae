"""Strict JSON/CSV serialization for scenes, candidates, selections, metrics.

All floats cross the file boundary quantized to 9 significant digits;
generators quantize at creation so write -> read is an exact identity.
Unknown top-level fields are rejected, and every reader raises ParseError
(with path/field context) or VersionError rather than guessing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ParseError, PolarKitError, VersionError
from ..evaluation import MetricsReport, ThresholdMetrics
from ..geometry import ImageFrame, LaneGrid, Pole, PoleGridLabels, polyline_to_grid
from ..suppression import CandidateSet

FORMAT_VERSION = 1


def quantize(x):
    """Round float(s) to 9 significant digits (idempotent)."""
    if np.isscalar(x):
        return float(format(float(x), ".9g"))
    arr = np.asarray(x, dtype=float)
    out = np.array([float(format(v, ".9g")) for v in arr.ravel()])
    return out.reshape(arr.shape)


def _dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path))
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}",
            path=str(path),
        )
    if not isinstance(blob, dict):
        raise ParseError("top level must be a JSON object", path=str(path))
    return blob


def _check_keys(blob: dict, required: set[str], path: str, where: str = "top level") -> None:
    missing = required - blob.keys()
    if missing:
        raise ParseError(f"missing {where} field(s) {sorted(missing)}", path=path)
    unknown = blob.keys() - required
    if unknown:
        raise ParseError(f"unknown {where} field(s) {sorted(unknown)}", path=path)


def _check_version(blob: dict, path: str) -> None:
    if blob.get("version") != FORMAT_VERSION:
        raise VersionError(
            f"unsupported version {blob.get('version')!r}, expected {FORMAT_VERSION}",
            path=path,
        )


def _frame_to_dict(frame: ImageFrame) -> dict:
    return {"w": frame.width, "h": frame.height, "n_rows": frame.n_rows}


def _frame_from_dict(blob, path: str) -> ImageFrame:
    if not isinstance(blob, dict):
        raise ParseError("frame must be an object", path=path, field="frame")
    _check_keys(blob, {"w", "h", "n_rows"}, path, where="frame")
    try:
        return ImageFrame(width=int(blob["w"]), height=int(blob["h"]), n_rows=int(blob["n_rows"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad frame: {exc}", path=path, field="frame")


# ---------------------------------------------------------------- scenes

def scene_to_dict(
    lanes: list[LaneGrid], meta: dict | None = None, frame: ImageFrame | None = None
) -> dict:
    if frame is None:
        if not lanes:
            raise ValueError("empty scenes need an explicit frame")
        frame = lanes[0].frame
    if any(lane.frame != frame for lane in lanes):
        raise ValueError("all lanes must share the declared frame")
    return {
        "version": FORMAT_VERSION,
        "frame": _frame_to_dict(frame),
        "lanes": [
            {"points": [[float(quantize(x)), float(quantize(y))] for x, y in lane.points_image()]}
            for lane in lanes
        ],
        "meta": dict(meta or {}),
    }


def write_scene(
    path, lanes: list[LaneGrid], meta: dict | None = None, frame: ImageFrame | None = None
) -> None:
    _dump(scene_to_dict(lanes, meta, frame), path)


def read_scene(path) -> tuple[list[LaneGrid], dict]:
    blob = _load(path)
    spath = str(path)
    _check_keys(blob, {"version", "frame", "lanes", "meta"}, spath)
    _check_version(blob, spath)
    frame = _frame_from_dict(blob["frame"], spath)
    if not isinstance(blob["lanes"], list):
        raise ParseError("lanes must be a list", path=spath, field="lanes")
    lanes = []
    for i, entry in enumerate(blob["lanes"]):
        if not isinstance(entry, dict):
            raise ParseError("lane entry must be an object", path=spath, field=f"lanes[{i}]")
        _check_keys(entry, {"points"}, spath, where=f"lanes[{i}]")
        try:
            lanes.append(polyline_to_grid(entry["points"], frame))
        except Exception as exc:
            raise ParseError(f"bad lane: {exc}", path=spath, field=f"lanes[{i}]")
    if not isinstance(blob["meta"], dict):
        raise ParseError("meta must be an object", path=spath, field="meta")
    return lanes, blob["meta"]


def read_scene_dir(in_dir) -> list[tuple[list[LaneGrid], dict]]:
    files = sorted(Path(in_dir).glob("*.json"))
    if not files:
        raise ParseError("no scene files found", path=str(in_dir))
    return [read_scene(p) for p in files]


# ------------------------------------------------------------ candidates

def candidates_to_dict(cands: CandidateSet, meta: dict | None = None) -> dict:
    if cands.pole is None:
        raise ValueError("candidate sets must carry their global pole to serialize")
    entries = []
    for i in range(len(cands)):
        entries.append(
            {
                "theta": float(cands.thetas[i]),
                "radius": float(cands.radii[i]),
                "anchor_xs": [float(v) for v in cands.anchor_xs[i]],
                "lane_xs": [float(v) for v in cands.lane_xs[i]],
                "valid": [int(cands.valid[i, 0]), int(cands.valid[i, 1])],
                "score_o2m": float(cands.scores_o2m[i]),
                "score_o2o": None if cands.scores_o2o is None else float(cands.scores_o2o[i]),
            }
        )
    return {
        "version": FORMAT_VERSION,
        "frame": _frame_to_dict(cands.frame),
        "pole": {"x": float(cands.pole.x), "y": float(cands.pole.y)},
        "candidates": entries,
        "meta": dict(meta or {}),
    }


def write_candidates(path, cands: CandidateSet, meta: dict | None = None) -> None:
    _dump(candidates_to_dict(cands, meta), path)


def read_candidates(path) -> tuple[CandidateSet, dict]:
    blob = _load(path)
    spath = str(path)
    _check_keys(blob, {"version", "frame", "pole", "candidates", "meta"}, spath)
    _check_version(blob, spath)
    frame = _frame_from_dict(blob["frame"], spath)
    pole_blob = blob["pole"]
    if not isinstance(pole_blob, dict):
        raise ParseError("pole must be an object", path=spath, field="pole")
    _check_keys(pole_blob, {"x", "y"}, spath, where="pole")
    try:
        pole = Pole(x=float(pole_blob["x"]), y=float(pole_blob["y"]), kind="global")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad pole: {exc}", path=spath, field="pole")

    keys = {"theta", "radius", "anchor_xs", "lane_xs", "valid", "score_o2m", "score_o2o"}
    thetas, radii, axs, lxs, valid, s_o2m, s_o2o = [], [], [], [], [], [], []
    any_o2o = False
    for i, e in enumerate(blob["candidates"]):
        if not isinstance(e, dict):
            raise ParseError("candidate must be an object", path=spath, field=f"candidates[{i}]")
        _check_keys(e, keys, spath, where=f"candidates[{i}]")
        try:
            thetas.append(float(e["theta"]))
            radii.append(float(e["radius"]))
            axs.append([float(v) for v in e["anchor_xs"]])
            lxs.append([float(v) for v in e["lane_xs"]])
            valid.append([int(e["valid"][0]), int(e["valid"][1])])
            s_o2m.append(float(e["score_o2m"]))
            if e["score_o2o"] is None:
                s_o2o.append(np.nan)
            else:
                any_o2o = True
                s_o2o.append(float(e["score_o2o"]))
        except (TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"bad candidate: {exc}", path=spath, field=f"candidates[{i}]")
    n = len(thetas)
    if any_o2o and np.any(np.isnan(s_o2o)):
        raise ParseError("score_o2o must be set for all candidates or none", path=spath)
    try:
        cands = CandidateSet(
            frame=frame,
            thetas=np.array(thetas),
            radii=np.array(radii),
            anchor_xs=np.array(axs).reshape(n, frame.n_rows),
            lane_xs=np.array(lxs).reshape(n, frame.n_rows),
            valid=np.array(valid, dtype=int).reshape(n, 2),
            scores_o2m=np.array(s_o2m),
            scores_o2o=np.array(s_o2o) if any_o2o else None,
            pole=pole,
        )
    except (ValueError, PolarKitError) as exc:
        raise ParseError(f"bad candidates: {exc}", path=spath)
    return cands, blob["meta"]


# ------------------------------------------------------------ selections

def selections_to_dict(mode: str, outcomes, meta: dict | None = None) -> dict:
    return {
        "version": FORMAT_VERSION,
        "mode": mode,
        "scenes": [
            {
                "scene_id": int(o.scene_id),
                "selected": [int(i) for i in o.selected],
                "candidates_sha256": o.candidates_sha256,
            }
            for o in outcomes
        ],
        "meta": dict(meta or {}),
    }


def write_selections(path, mode: str, outcomes, meta: dict | None = None) -> None:
    _dump(selections_to_dict(mode, outcomes, meta), path)


def read_selections(path) -> dict:
    blob = _load(path)
    spath = str(path)
    _check_keys(blob, {"version", "mode", "scenes", "meta"}, spath)
    _check_version(blob, spath)
    for i, e in enumerate(blob["scenes"]):
        _check_keys(e, {"scene_id", "selected", "candidates_sha256"}, spath, where=f"scenes[{i}]")
    return blob


# --------------------------------------------------------------- metrics

def write_metrics_json(path, report: MetricsReport) -> None:
    blob = report.to_json_dict()
    blob["mf1"] = quantize(blob["mf1"])
    for row in blob["rows"]:
        for key in ("threshold", "precision", "recall", "f1"):
            row[key] = quantize(row[key])
    _dump(blob, path)


def read_metrics_json(path) -> MetricsReport:
    blob = _load(path)
    spath = str(path)
    _check_keys(blob, {"version", "rows", "mf1"}, spath)
    _check_version(blob, spath)
    rows = []
    for i, e in enumerate(blob["rows"]):
        _check_keys(
            e, {"threshold", "tp", "fp", "fn", "precision", "recall", "f1"},
            spath, where=f"rows[{i}]",
        )
        try:
            rows.append(
                ThresholdMetrics(
                    threshold=float(e["threshold"]), tp=int(e["tp"]),
                    fp=int(e["fp"]), fn=int(e["fn"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad metrics row: {exc}", path=spath, field=f"rows[{i}]")
    return MetricsReport(rows=tuple(rows), mf1=float(blob["mf1"]))


def write_metrics_csv(path, report: MetricsReport) -> None:
    Path(path).write_text(report.to_csv())


# ---------------------------------------------------------------- labels

def labels_to_dict(per_scene: list[PoleGridLabels], grid: tuple[int, int], lambda_l: float) -> dict:
    scenes = []
    for i, labels in enumerate(per_scene):
        r = labels.r_hat.ravel()
        scenes.append(
            {
                "scene_id": i,
                "r_hat": [None if not np.isfinite(v) else float(quantize(v)) for v in r],
                "theta_hat": [float(quantize(v)) for v in labels.theta_hat.ravel()],
                "s_hat": [int(v) for v in labels.s_hat.ravel()],
            }
        )
    return {
        "version": FORMAT_VERSION,
        "grid": [int(grid[0]), int(grid[1])],
        "lambda_l": float(quantize(lambda_l)),
        "scenes": scenes,
    }


def write_labels(path, per_scene: list[PoleGridLabels], grid: tuple[int, int], lambda_l: float) -> None:
    _dump(labels_to_dict(per_scene, grid, lambda_l), path)


# ------------------------------------------------------------------ bench

def write_bench_csv(path, rows) -> None:
    """Timing table; the header records that only post-processing is timed."""
    lines = ["# scope: post-processing only (candidate scoring and network inference excluded)"]
    lines.append("mode,k,repetitions,median_seconds")
    for r in rows:
        lines.append(f"{r.mode},{r.k},{r.repetitions},{format(r.median_seconds, '.9g')}")
    Path(path).write_text("\n".join(lines) + "\n")
