import json

import numpy as np
import pytest

from polar_kit import InvalidSpec, ParseError, VersionError, iou_matrix
from polar_kit.config import default_frame, default_thresholds
from polar_kit.harness import (
    CandidateGenSpec,
    PipelineRun,
    SceneSpec,
    assert_shared_candidates,
    bench_suppression,
    gen_candidates,
    gen_scene,
    oracle_o2o_scores,
    quantize,
    read_candidates,
    read_metrics_json,
    read_scene,
    read_selections,
    run_pipeline,
    write_candidates,
    write_metrics_json,
    write_scene,
    write_selections,
)
from polar_kit.harness.pipeline import SceneOutcome

FRAME = default_frame()


def sparse_spec(seed=0, lanes=4):
    return SceneSpec(frame=FRAME, kind="sparse", lane_count=lanes, seed=seed)


def dense_spec(seed=0, lanes=4):
    return SceneSpec(frame=FRAME, kind="dense", lane_count=lanes, seed=seed)


class TestGenScene:
    def test_sparse_pairwise_iou_below_cap(self):
        for seed in range(10):
            lanes = gen_scene(sparse_spec(seed))
            iou = iou_matrix(lanes, lanes, 15.0)
            off = iou[~np.eye(len(lanes), dtype=bool)]
            assert np.all(off < 0.1)

    def test_dense_fork_shares_rows_below_branch(self):
        spec = dense_spec(3)
        lanes = gen_scene(spec)
        assert len(lanes) == spec.lane_count + 1
        twin = lanes[-1]
        shared = [
            np.array_equal(twin.xs, other.xs) for other in lanes[:-1]
        ]
        assert not any(shared)  # twin differs somewhere from every base lane
        # exactly one base lane shares the below-branch rows exactly
        t = (FRAME.height - FRAME.rows_y) / FRAME.height
        below = t <= spec.branch_frac
        matches = [
            np.array_equal(twin.xs[below], other.xs[below]) for other in lanes[:-1]
        ]
        assert sum(matches) == 1
        base = lanes[matches.index(True)]
        assert np.max(np.abs(base.xs - twin.xs)) > 10.0  # separated above

    def test_same_seed_identical(self):
        a = gen_scene(dense_spec(11))
        b = gen_scene(dense_spec(11))
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert la == lb

    def test_different_seeds_differ(self):
        a = gen_scene(sparse_spec(0))
        b = gen_scene(sparse_spec(1))
        assert not np.array_equal(a[0].xs, b[0].xs)

    def test_infeasible_lane_count(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(frame=FRAME, kind="sparse", lane_count=30, seed=0)

    def test_bad_kind_and_fork(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(frame=FRAME, kind="urban", lane_count=3)
        with pytest.raises(InvalidSpec):
            SceneSpec(frame=FRAME, kind="dense", lane_count=3, fork_separation=0.0)

    def test_coordinates_are_quantized(self):
        lanes = gen_scene(sparse_spec(5))
        for lane in lanes:
            xs = lane.xs[lane.lo : lane.hi + 1]
            assert np.array_equal(xs, quantize(xs))


class TestGenCandidates:
    def test_noiseless_limit_equals_gt(self):
        gts = gen_scene(sparse_spec(2))
        spec = CandidateGenSpec(
            n_per_gt=2, sigma_theta=0.0, sigma_r=0.0, sigma_x=0.0,
            score_noise=0.0, n_background=0, seed=9,
        )
        cands = gen_candidates(gts, spec)
        assert len(cands) == 2 * len(gts)
        for i in range(len(cands)):
            gt = gts[i // 2]
            assert np.array_equal(
                cands.lane_xs[i][gt.lo : gt.hi + 1], gt.xs[gt.lo : gt.hi + 1]
            )
            assert cands.scores_o2m[i] == pytest.approx(1.0)

    def test_counts_without_background(self):
        gts = gen_scene(sparse_spec(4))
        cands = gen_candidates(gts, CandidateGenSpec(n_per_gt=1, n_background=0, seed=1))
        assert len(cands) == len(gts)

    def test_background_scores_below_perturbed(self):
        gts = gen_scene(sparse_spec(6))
        spec = CandidateGenSpec(n_per_gt=3, sigma_x=2.0, n_background=5,
                                background_score_cap=0.2, seed=4)
        cands = gen_candidates(gts, spec)
        n_fg = 3 * len(gts)
        assert cands.scores_o2m[:n_fg].min() > cands.scores_o2m[n_fg:].max()

    def test_deterministic(self):
        gts = gen_scene(dense_spec(7))
        a = gen_candidates(gts, CandidateGenSpec(seed=3))
        b = gen_candidates(gts, CandidateGenSpec(seed=3))
        assert a.sha256() == b.sha256()

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="seed"):
            CandidateGenSpec(seed=-3)

    def test_oracle_scores_one_per_gt(self):
        gts = gen_scene(dense_spec(8))
        cands = gen_candidates(gts, CandidateGenSpec(seed=5))
        scores = oracle_o2o_scores(cands, gts)
        assert np.isin(scores, [0.0, 1.0]).all()
        assert scores.sum() <= len(gts)
        assert scores.sum() >= 1


class TestFileRoundTrips:
    def test_scene_round_trip_bit_exact(self, tmp_path):
        lanes = gen_scene(dense_spec(12))
        path = tmp_path / "scene.json"
        meta = {"scene_id": 0, "kind": "dense"}
        write_scene(path, lanes, meta)
        lanes2, meta2 = read_scene(path)
        assert meta2 == meta
        assert len(lanes2) == len(lanes)
        for a, b in zip(lanes, lanes2):
            assert a == b  # bitwise xs equality on the shared frame
        # a second write must produce identical bytes
        path2 = tmp_path / "scene2.json"
        write_scene(path2, lanes2, meta2)
        assert path.read_bytes() == path2.read_bytes()

    def test_partial_lane_round_trip(self, tmp_path, frame):
        from polar_kit import LaneGrid

        xs = quantize(np.linspace(100, 200, frame.n_rows))
        lane = LaneGrid(xs=xs, valid=(5, 20), frame=frame)
        path = tmp_path / "scene.json"
        write_scene(path, [lane])
        (lane2,), _ = read_scene(path)
        assert lane2 == lane

    def test_candidates_round_trip(self, tmp_path):
        gts = gen_scene(sparse_spec(1))
        cands = gen_candidates(gts, CandidateGenSpec(seed=2))
        path = tmp_path / "cands.json"
        write_candidates(path, cands, {"scene_id": 0})
        cands2, meta = read_candidates(path)
        assert cands2.sha256() == cands.sha256()
        assert meta == {"scene_id": 0}
        scored = cands.with_o2o(oracle_o2o_scores(cands, gts))
        write_candidates(path, scored)
        cands3, _ = read_candidates(path)
        assert np.array_equal(cands3.scores_o2o, scored.scores_o2o)

    def test_selections_round_trip(self, tmp_path):
        outcomes = [
            SceneOutcome(scene_id=0, selected=(1, 4), candidates_sha256="ab" * 32),
            SceneOutcome(scene_id=1, selected=(), candidates_sha256="cd" * 32),
        ]
        path = tmp_path / "selections.json"
        write_selections(path, "sequential", outcomes, {"seed": 0})
        blob = read_selections(path)
        assert blob["mode"] == "sequential"
        assert blob["scenes"][0]["selected"] == [1, 4]

    def test_metrics_round_trip(self, tmp_path):
        gts = [gen_scene(sparse_spec(3))]
        from polar_kit import f1_suite

        report = f1_suite(gts, gts, w_base=15.0)
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report)
        report2 = read_metrics_json(path)
        assert [r.tp for r in report2.rows] == [r.tp for r in report.rows]
        assert report2.mf1 == pytest.approx(report.mf1, abs=1e-9)
        path2 = tmp_path / "metrics2.json"
        write_metrics_json(path2, report2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_parse_error(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(path, gen_scene(sparse_spec(0)))
        path.write_text(path.read_text()[:40])
        with pytest.raises(ParseError):
            read_scene(path)

    def test_unknown_top_level_field_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(path, gen_scene(sparse_spec(0)))
        blob = json.loads(path.read_text())
        blob["extra"] = 1
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError):
            read_scene(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(path, gen_scene(sparse_spec(0)))
        blob = json.loads(path.read_text())
        blob["version"] = 2
        path.write_text(json.dumps(blob))
        with pytest.raises(VersionError):
            read_scene(path)

    def test_mixed_null_o2o_scores_rejected(self, tmp_path):
        gts = gen_scene(sparse_spec(1))
        cands = gen_candidates(gts, CandidateGenSpec(seed=2))
        scored = cands.with_o2o(oracle_o2o_scores(cands, gts))
        path = tmp_path / "cands.json"
        write_candidates(path, scored)
        blob = json.loads(path.read_text())
        blob["candidates"][0]["score_o2o"] = None
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError):
            read_candidates(path)

    def test_frame_mismatch_on_write_rejected(self, tmp_path):
        from polar_kit import ImageFrame

        lanes = gen_scene(sparse_spec(0))
        with pytest.raises(ValueError):
            write_scene(tmp_path / "s.json", lanes, frame=ImageFrame(640, 320, 36))


def make_run(kind, mode, width, n=6, oracle=False, cand_seed=21):
    scenes = tuple(
        SceneSpec(frame=FRAME, kind=kind, lane_count=4, seed=500 + i) for i in range(n)
    )
    return PipelineRun(
        scenes=scenes,
        candidates=CandidateGenSpec(seed=cand_seed),
        mode=mode,
        thresholds=default_thresholds(),
        nms_width=width,
        oracle_o2o=oracle,
    )


class TestPipeline:
    def test_noiseless_candidates_perfect_f1(self):
        scenes = tuple(SceneSpec(frame=FRAME, kind="sparse", lane_count=4, seed=i) for i in range(3))
        clean = CandidateGenSpec(n_per_gt=3, sigma_theta=0.0, sigma_r=0.0, sigma_x=0.0,
                                 score_noise=0.0, n_background=0, seed=0)
        for mode, oracle in (("sequential", False), ("fast_geometric", False),
                             ("dual_confidence", True)):
            run = PipelineRun(scenes=scenes, candidates=clean, mode=mode,
                              thresholds=default_thresholds(), nms_width=15.0,
                              oracle_o2o=oracle)
            result = run_pipeline(run)
            assert result.report.f1 == pytest.approx(1.0), mode

    def test_modes_share_candidates(self):
        a = run_pipeline(make_run("dense", "sequential", 15.0))
        b = run_pipeline(make_run("dense", "sequential", 50.0))
        c = run_pipeline(make_run("dense", "fast_geometric", 15.0))
        assert_shared_candidates(a, b)
        assert_shared_candidates(a, c)

    def test_selection_counts_match_predictions(self):
        result = run_pipeline(make_run("sparse", "sequential", 15.0))
        for outcome, preds in zip(result.outcomes, result.preds_per_scene):
            assert len(outcome.selected) == len(preds)

    def test_deterministic_outputs(self):
        a = run_pipeline(make_run("dense", "dual_confidence", 15.0, oracle=True))
        b = run_pipeline(make_run("dense", "dual_confidence", 15.0, oracle=True))
        assert [o.selected for o in a.outcomes] == [o.selected for o in b.outcomes]
        assert a.report.to_json_dict() == b.report.to_json_dict()

    def test_head_scored_mode_runs(self):
        result = run_pipeline(make_run("sparse", "dual_confidence", 15.0, n=2))
        assert len(result.outcomes) == 2  # structure only; no quality claim

    def test_dense_mean_recall_ordering_per_scene(self):
        # per-scene means, not pooled counts: the aggressive width must win
        # recall on dense scenes, and the oracle-scored selector must match
        # or beat the better width preset on F1
        from polar_kit import f1_suite

        runs = {
            15.0: run_pipeline(make_run("dense", "sequential", 15.0, n=20)),
            50.0: run_pipeline(make_run("dense", "sequential", 50.0, n=20)),
        }
        dual = run_pipeline(make_run("dense", "dual_confidence", 15.0, n=20, oracle=True))

        def per_scene(result, field):
            values = []
            for preds, gts in zip(result.preds_per_scene, result.gts_per_scene):
                rep = f1_suite([list(preds)], [list(gts)], thresholds=(0.5,))
                values.append(getattr(rep, field))
            return float(np.mean(values))

        assert per_scene(runs[15.0], "recall") > per_scene(runs[50.0], "recall")
        best_preset_f1 = max(per_scene(runs[15.0], "f1"), per_scene(runs[50.0], "f1"))
        assert per_scene(dual, "f1") >= best_preset_f1

    @pytest.mark.parametrize("bad", [{"head_seed": -1}, {"feat_c_f": 0}, {"feat_d_r": 0},
                                     {"feat_d_n": 0}])
    def test_rejects_seeds_and_head_sizes_that_fail_later(self, bad):
        from polar_kit import ConfigError

        with pytest.raises(ConfigError, match=next(iter(bad))):
            PipelineRun(scenes=(), candidates=CandidateGenSpec(), mode="dual_confidence",
                        thresholds=default_thresholds(), **bad)

    @pytest.mark.parametrize("field", ["nms_width", "eval_w_base"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_rejects_non_finite_widths(self, field, value):
        from polar_kit import ConfigError

        with pytest.raises(ConfigError, match=field):
            PipelineRun(scenes=(), candidates=CandidateGenSpec(), mode="sequential",
                        thresholds=default_thresholds(), **{field: value})

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("POLAR_KIT_THREADS", "1")
        a = run_pipeline(make_run("dense", "sequential", 15.0, n=3))
        monkeypatch.setenv("POLAR_KIT_THREADS", "4")
        b = run_pipeline(make_run("dense", "sequential", 15.0, n=3))
        assert [o.selected for o in a.outcomes] == [o.selected for o in b.outcomes]
        monkeypatch.setenv("POLAR_KIT_THREADS", "zero")
        from polar_kit import ConfigError

        with pytest.raises(ConfigError):
            run_pipeline(make_run("dense", "sequential", 15.0, n=1))


class TestBench:
    def test_rows_and_determinism(self):
        rows = bench_suppression([1, 16], repetitions=2, seed=0)
        assert {r.mode for r in rows} == {"fast_geometric", "sequential"}
        assert {r.k for r in rows} == {1, 16}
        assert all(r.median_seconds >= 0 for r in rows)

    def test_zero_repetitions_rejected(self):
        from polar_kit import ConfigError

        with pytest.raises(ConfigError, match="repetitions"):
            bench_suppression([4], repetitions=0)

    def test_k1_near_zero(self):
        rows = bench_suppression([1], repetitions=2, seed=0)
        assert all(r.median_seconds < 0.05 for r in rows)

    def test_selection_independent_of_timing(self):
        from polar_kit import fast_nms_geometric, iou_distance
        from polar_kit.harness.pipeline import _random_candidate_set

        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        cs1 = _random_candidate_set(64, FRAME, rng1)
        cs2 = _random_candidate_set(64, FRAME, rng2)
        th = default_thresholds()
        s1 = fast_nms_geometric(cs1, th, iou_distance(15.0))
        s2 = fast_nms_geometric(cs2, th, iou_distance(15.0))
        assert s1.tolist() == s2.tolist()
