"""Strict JSON/CSV serialization for scenes, candidates, selections, metrics.

All floats cross the file boundary quantized to 9 significant digits;
generators quantize at creation so write -> read is an exact identity.
``quantize`` equals ``float(format(x, ".9g"))`` bit for bit.  Arrays take
Clinger's fast path (PLDI 1990) in one pass: with k = 8 - floor(log10|x|)
clamped to |k| <= 22, x * 10^k (or x / 10^-k) is one rounding (< 6e-8) from
exact, so it rounds to the right 9-digit mantissa m unless it lies within
1e-6 of a tie, and m / 10^k (or m * 10^-k) is one correctly rounded operation
on exact operands.  Elements near a tie or whose scaled value leaves
[1e8, 1e9] (zeros, subnormals, |x| outside about [1e-14, 1e31], non-finite
values) go through ``format``, as does a scalar.

Each reader describes its file as one example record (above the reader) and
checks it with ``jsonio.typed``: a missing or unknown field or a value of the
wrong JSON type raises ParseError naming the path and the field path, and a
version other than the integer 1 raises VersionError.  Selection and metrics
files are range-checked too: a known mode, indices and counts >= 0, and at
least one metrics row.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from .. import jsonio
from ..config import MODES
from ..errors import InvalidLane, ParseError, PolarKitError, VersionError
from ..evaluation import MetricsReport, ThresholdMetrics
from ..geometry import ImageFrame, LaneGrid, Pole, PoleGridLabels, polyline_to_grid
from ..suppression import CandidateSet

FORMAT_VERSION = 1


# 10^(8 - p) as up / down for p = floor(log10|x|) clamped to [-14, 30]: exact doubles.
_UP = np.array([float(10 ** max(8 - p, 0)) for p in range(-14, 31)])
_DOWN = np.array([float(10 ** max(p - 8, 0)) for p in range(-14, 31)])


def quantize(x):
    """Round float(s) to 9 significant digits (idempotent); see the module docstring."""
    if np.isscalar(x):
        return float(format(float(x), ".9g"))
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.fmax(np.fmin(np.floor(np.log10(np.abs(flat))), 30), -14).astype(np.intp) + 14
        up, down = _UP[p], _DOWN[p]
        scaled = flat * up / down  # one of the two factors is 1
        m = np.rint(scaled)
        out = m / up * down
        digits = np.abs(scaled)
        exact = (np.abs(scaled - m) < 0.5 - 1e-6) & (digits >= 1e8) & (digits <= 1e9)
    if not exact.all():
        out[~exact] = [float(format(v, ".9g")) for v in flat[~exact]]
    return out.reshape(arr.shape)


def _dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read(path, like: dict) -> dict:
    """The file at ``path`` checked against the example record ``like``."""
    error = partial(ParseError, path=str(path))
    blob = jsonio.typed("", jsonio.load(path, error), like, error)
    if blob["version"] != FORMAT_VERSION:
        raise VersionError(f"unsupported version {blob['version']}, expected {FORMAT_VERSION}",
                           path=str(path))
    return blob


_FRAME = {"w": 0, "h": 0, "n_rows": 0}


def _frame_to_dict(frame: ImageFrame) -> dict:
    return {"w": frame.width, "h": frame.height, "n_rows": frame.n_rows}


def _frame_from_dict(blob: dict, path: str) -> ImageFrame:
    try:
        return ImageFrame(width=blob["w"], height=blob["h"], n_rows=blob["n_rows"])
    except ValueError as exc:
        raise ParseError(f"frame: {exc}", path=path)


# ---------------------------------------------------------------- scenes

_SCENE = {"version": 0, "frame": _FRAME, "lanes": [{"points": [(0.0, 0.0)]}], "meta": {}}


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
        "lanes": [{"points": quantize(lane.points_image()).tolist()} for lane in lanes],
        "meta": dict(meta or {}),
    }


def write_scene(
    path, lanes: list[LaneGrid], meta: dict | None = None, frame: ImageFrame | None = None
) -> None:
    _dump(scene_to_dict(lanes, meta, frame), path)


def read_scene(path) -> tuple[list[LaneGrid], dict]:
    blob = _read(path, _SCENE)
    frame = _frame_from_dict(blob["frame"], str(path))
    lanes = []
    for i, entry in enumerate(blob["lanes"]):
        try:
            lanes.append(polyline_to_grid(entry["points"], frame))
        except InvalidLane as exc:
            raise ParseError(f"lanes[{i}]: {exc}", path=str(path))
    return lanes, blob["meta"]


def read_scene_dir(in_dir) -> list[tuple[list[LaneGrid], dict]]:
    files = sorted(Path(in_dir).glob("*.json"))
    if not files:
        raise ParseError("no scene files found", path=str(in_dir))
    return [read_scene(p) for p in files]


# ------------------------------------------------------------ candidates

_CANDIDATE = {
    "theta": 0.0, "radius": 0.0, "anchor_xs": [0.0], "valid": (0, 0), "score_o2m": 0.0,
    "score_o2o": jsonio.NUMBER_OR_NULL,
    "lane_xs": [jsonio.ANY_NUMBER],  # free off the valid rows; CandidateSet checks those
}
_CANDIDATES = {"version": 0, "frame": _FRAME, "pole": {"x": 0.0, "y": 0.0},
               "candidates": [_CANDIDATE], "meta": {}}


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
    blob, spath = _read(path, _CANDIDATES), str(path)
    frame = _frame_from_dict(blob["frame"], spath)
    entries = blob["candidates"]
    n = len(entries)

    def column(key, dtype=float):
        return np.array([e[key] for e in entries], dtype=dtype)

    for i, e in enumerate(entries):
        for key in ("anchor_xs", "lane_xs"):
            if len(e[key]) != frame.n_rows:
                raise ParseError(f"candidates[{i}].{key} must hold {frame.n_rows} values", spath)
    unset_o2o = sum(e["score_o2o"] is None for e in entries)
    if 0 < unset_o2o < n:
        raise ParseError("score_o2o must be set for all candidates or none", path=spath)
    try:
        cands = CandidateSet(
            frame=frame,
            thetas=column("theta"),
            radii=column("radius"),
            anchor_xs=column("anchor_xs").reshape(n, frame.n_rows),
            lane_xs=column("lane_xs").reshape(n, frame.n_rows),
            valid=column("valid", int).reshape(n, 2),
            scores_o2m=column("score_o2m"),
            scores_o2o=column("score_o2o") if unset_o2o < n else None,
            pole=Pole(x=blob["pole"]["x"], y=blob["pole"]["y"], kind="global"),
        )
    except PolarKitError as exc:
        raise ParseError(f"bad candidates: {exc}", path=spath)
    return cands, blob["meta"]


# ------------------------------------------------------------ selections

_SELECTIONS = {"version": 0, "mode": "", "meta": {},
               "scenes": [{"scene_id": 0, "selected": [0], "candidates_sha256": ""}]}


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


def _non_negative(path, field: str, value: int) -> None:
    if value < 0:
        raise ParseError(f"{field} must be >= 0, got {value}", path=str(path))


def read_selections(path) -> dict:
    blob = _read(path, _SELECTIONS)
    if blob["mode"] not in MODES:
        raise ParseError(f"mode must be one of {list(MODES)}, got {blob['mode']!r}", str(path))
    for i, scene in enumerate(blob["scenes"]):
        _non_negative(path, f"scenes[{i}].scene_id", scene["scene_id"])
        for j, index in enumerate(scene["selected"]):
            _non_negative(path, f"scenes[{i}].selected[{j}]", index)
    return blob


# --------------------------------------------------------------- metrics

_METRICS = {"version": 0, "mf1": 0.0, "rows": [{
    "threshold": 0.0, "tp": 0, "fp": 0, "fn": 0, "precision": 0.0, "recall": 0.0, "f1": 0.0}]}


def write_metrics_json(path, report: MetricsReport) -> None:
    blob = report.to_json_dict()
    blob["mf1"] = quantize(blob["mf1"])
    for row in blob["rows"]:
        for key in ("threshold", "precision", "recall", "f1"):
            row[key] = quantize(row[key])
    _dump(blob, path)


def read_metrics_json(path) -> MetricsReport:
    blob = _read(path, _METRICS)
    if not blob["rows"]:
        raise ParseError("rows must hold at least one threshold", path=str(path))
    for i, row in enumerate(blob["rows"]):
        for key in ("tp", "fp", "fn"):
            _non_negative(path, f"rows[{i}].{key}", row[key])
    rows = tuple(ThresholdMetrics(e["threshold"], e["tp"], e["fp"], e["fn"]) for e in blob["rows"])
    return MetricsReport(rows=rows, mf1=blob["mf1"])


def write_metrics_csv(path, report: MetricsReport) -> None:
    Path(path).write_text(report.to_csv())


# ---------------------------------------------------------------- labels

def labels_to_dict(per_scene: list[PoleGridLabels], grid: tuple[int, int], lambda_l: float) -> dict:
    scenes = []
    for i, labels in enumerate(per_scene):
        r = quantize(labels.r_hat.ravel()).tolist()
        scenes.append(
            {
                "scene_id": i,
                "r_hat": [v if math.isfinite(v) else None for v in r],
                "theta_hat": quantize(labels.theta_hat.ravel()).tolist(),
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
