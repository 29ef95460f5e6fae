"""Tests of the benchmark itself.

Run from the checkout root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads
from polar_kit import cli
from polar_kit.harness import MODES, run_pipeline

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def _patched_attrs():
    probe = tracing.Tracer(None)
    return [(module, attr) for module, attr, _ in probe._patches()]


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name, k", [("dense_k26", 26), ("dense_k1024", 1024),
                                     ("crowded_k1024", 1024)])
def test_candidate_count_per_scene(name, k):
    runs = workloads.build_runs(name, run.DEFAULT_SEED, n_scenes=1)
    [(_, cands)] = workloads.frame_inputs(runs["sequential"])
    assert len(cands) == k


@pytest.mark.parametrize("mode", MODES)
def test_default_seed_is_the_canonical_cli_run(mode):
    cfg = {"scenes": {"count": 200, "kind": "dense"}, "pipeline": {"mode": mode}}
    assert workloads.build_runs("dense_k26", run.DEFAULT_SEED)[mode] == cli._pipeline_run(cfg, 7)


def test_other_seed_changes_inputs():
    a = workloads.build_runs("dense_k26", run.DEFAULT_SEED, n_scenes=3)["sequential"]
    b = workloads.build_runs("dense_k26", run.DEFAULT_SEED + 1, n_scenes=3)["sequential"]
    hashes_a = [c.sha256() for _, c in workloads.frame_inputs(a)]
    hashes_b = [c.sha256() for _, c in workloads.frame_inputs(b)]
    assert not set(hashes_a) & set(hashes_b)
    assert hashes_a == [c.sha256() for _, c in workloads.frame_inputs(a)]


def test_default_seed_reproduces_recorded_digests():
    recorded = json.loads(run.DIGESTS.read_text())["dense_k26"]
    for mode, r in workloads.build_runs("dense_k26", run.DEFAULT_SEED).items():
        assert workloads.output_digests(r, run_pipeline(r)) == recorded[mode]


def test_wrappers_restore_originals():
    originals = [(m, a, getattr(m, a)) for m, a in _patched_attrs()]
    t = tracing.Tracer(None)
    with pytest.raises(RuntimeError):
        with t.installed():
            assert all(getattr(m, a) is not f for m, a, f in originals)
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in originals)


def test_counters_repeat_and_tracing_keeps_selections():
    runs = workloads.build_runs("dense_k26", run.DEFAULT_SEED, n_scenes=6)
    plain = {mode: run_pipeline(r).outcomes for mode, r in runs.items()}
    passes = []
    for _ in range(2):
        t = tracing.Tracer(runs["sequential"].thresholds)
        with t.installed():
            for mode, r in runs.items():
                assert t.run_pipeline(r).outcomes == plain[mode]
        passes.append(t)
    assert passes[0].counts() == passes[1].counts()

    m = tracing.layer_metrics(passes[0])
    assert m["candidates.k_total"][0] == 3 * 6 * 26
    assert m["laneiou.iou_distance.calls"][0] == 2 * 6
    assert m["laneiou.pairs_evaluated"][0] == 2 * 6 * 26 * 26
    assert m["o2o_head.edges_computed"][0] == 6 * 26 * 26
    assert m["evaluation.iou_builds_per_scene"][0] == 10
    assert 0 < m["suppression.gate_density"][0] < 1
    for mode in MODES:
        kept = m[f"suppression.{mode}.kept"][0]
        dropped = (m[f"suppression.{mode}.dropped_score_gate"][0]
                   + m[f"suppression.{mode}.dropped_suppressed"][0])
        assert kept + dropped == 6 * 26
        assert kept == sum(len(o.selected) for o in plain[mode])
    spans = passes[0].spans
    scene_spans = [s for s in spans if s.name == "scenes.gen_scene"]
    assert sorted(s.request for s in scene_spans) == sorted(list(range(6)) * 3)
    assert all(s.parent is not None for s in spans if s.name != "pipeline.run_pipeline")

    declared = [e["name"] for e in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert declared == [*m, "trace.overhead_frac"]


def test_self_time_subtracts_the_union_of_children():
    t = tracing.Tracer(None)
    t.spans = [
        tracing.Span(1, "parent", 0.0, 10.0, None, None, 1),
        tracing.Span(2, "child", 1.0, 3.0, 1, None, 1),
        tracing.Span(3, "child", 2.0, 5.0, 1, None, 2),   # overlaps the first child
        tracing.Span(4, "child", 9.0, 12.0, 1, None, 2),  # runs past the parent
    ]
    st = t.self_times()
    assert st["parent"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st["child"] == pytest.approx(2.0 + 3.0 + 3.0)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10
    assert run.tail(range(19)) == (18, 100.0, 19)
    assert run.tail(range(20)) == (9, 50.0, 20)


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_k26", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {e["name"]: e["unit"] for e in json.loads(BENCHMARK.read_text())["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "digests.json"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_k26", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
