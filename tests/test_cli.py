import json

import pytest

from polar_kit import cli
from polar_kit.cli import main


def write_config(path, blob):
    path.write_text(json.dumps(blob))
    return str(path)


class TestGenScenes:
    def test_writes_requested_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 3, "kind": "dense"}})
        out = tmp_path / "scenes"
        assert main(["gen-scenes", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        blob = json.loads(files[0].read_text())
        assert set(blob) == {"version", "frame", "lanes", "meta"}

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 2}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-scenes", "--config", cfg, "--seed", "9", "--out", str(out1)])
        main(["gen-scenes", "--config", cfg, "--seed", "9", "--out", str(out2)])
        for f1, f2 in zip(sorted(out1.glob("*.json")), sorted(out2.glob("*.json"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 2, "bogus": 1}})
        assert main(["gen-scenes", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"lane_count": 50}})
        assert main(["gen-scenes", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_lane_count_checked_against_configured_width(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"scenes": {"count": 1, "width": 1600, "lane_count": 9}})
        out = tmp_path / "o"
        assert main(["gen-scenes", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads((out / "scene_0000.json").read_text())
        assert blob["frame"]["w"] == 1600
        assert len(blob["lanes"]) == 9

    def test_negative_seed_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scenes", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["gen-scenes", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestLabels:
    def test_label_dump(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 2}})
        scenes = tmp_path / "scenes"
        main(["gen-scenes", "--config", cfg, "--seed", "1", "--out", str(scenes)])
        out = tmp_path / "labels"
        code = main(["labels", "--scenes", str(scenes), "--lambda-l", "40",
                     "--out", str(out)])
        assert code == 0
        blob = json.loads((out / "labels.json").read_text())
        assert blob["grid"] == [4, 10]
        assert len(blob["scenes"]) == 2
        assert len(blob["scenes"][0]["r_hat"]) == 40

    def test_missing_lambda_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 1}})
        scenes = tmp_path / "scenes"
        main(["gen-scenes", "--config", cfg, "--out", str(scenes)])
        assert main(["labels", "--scenes", str(scenes), "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_scene_exit_3(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "scene_0000.json").write_text('{"version": 1')
        assert main(["labels", "--scenes", str(scenes), "--lambda-l", "40",
                     "--out", str(tmp_path / "o")]) == 3


class TestRunPipelineAndEval:
    CONFIG = {
        "scenes": {"count": 4, "kind": "dense", "lane_count": 4},
        "pipeline": {"mode": "sequential", "nms_width": 15.0},
    }

    def test_end_to_end_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", self.CONFIG)
        out = tmp_path / "run"
        assert main(["run-pipeline", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        for name in ("metrics.json", "metrics.csv", "selections.json", "timings.csv"):
            assert (out / name).exists()
        assert len(list((out / "scenes").glob("*.json"))) == 4
        assert len(list((out / "preds").glob("*.json"))) == 4

    def test_byte_identical_reruns_excluding_timings(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run-pipeline", "--config", cfg, "--seed", "3", "--out", str(out1)])
        main(["run-pipeline", "--config", cfg, "--seed", "3", "--out", str(out2)])
        files1 = sorted(p for p in out1.rglob("*") if p.is_file() and p.name != "timings.csv")
        files2 = sorted(p for p in out2.rglob("*") if p.is_file() and p.name != "timings.csv")
        assert [p.name for p in files1] == [p.name for p in files2]
        for a, b in zip(files1, files2):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_eval_round(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", self.CONFIG)
        out = tmp_path / "run"
        main(["run-pipeline", "--config", cfg, "--seed", "3", "--out", str(out)])
        eval_out = tmp_path / "eval"
        code = main(["eval", "--preds", str(out / "preds"), "--gts", str(out / "scenes"),
                     "--out", str(eval_out)])
        assert code == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        run_metrics = json.loads((out / "metrics.json").read_text())
        assert metrics == run_metrics

    def test_eval_self_is_perfect(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 2}})
        scenes = tmp_path / "scenes"
        main(["gen-scenes", "--config", cfg, "--out", str(scenes)])
        out = tmp_path / "eval"
        main(["eval", "--preds", str(scenes), "--gts", str(scenes), "--out", str(out)])
        blob = json.loads((out / "metrics.json").read_text())
        assert blob["mf1"] == 1.0

    def test_bad_mode_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"pipeline": {"mode": "magic"}})
        assert main(["run-pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_tau_d_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"suppression": {"tau_d": -1.0}})
        assert main(["run-pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "tau_d" in capsys.readouterr().err

    def test_internal_type_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(run):
            raise TypeError("internal failure")

        monkeypatch.setattr(cli, "run_pipeline", broken)
        cfg = write_config(tmp_path / "cfg.json", self.CONFIG)
        with pytest.raises(TypeError, match="internal failure"):
            main(["run-pipeline", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flag, value, named", [
        *[("--thresholds", f"0.5,{v}", str(float(v))) for v in ("nan", "inf", "-1", "0", "1.5")],
        *[("--w-base", v, "w_base") for v in ("nan", "inf", "0", "-15")],
    ])
    def test_eval_bad_threshold_or_width_exit_2(self, tmp_path, capsys, flag, value, named):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 1}})
        scenes = tmp_path / "scenes"
        main(["gen-scenes", "--config", cfg, "--out", str(scenes)])
        capsys.readouterr()
        assert main(["eval", "--preds", str(scenes), "--gts", str(scenes), flag, value,
                     "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_preds_dir_exit_3(self, tmp_path):
        assert main(["eval", "--preds", str(tmp_path / "nope"), "--gts", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_scene_count_mismatch_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"scenes": {"count": 2}})
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-scenes", "--config", cfg, "--out", str(a)])
        main(["gen-scenes", "--config", cfg, "--out", str(b)])
        (sorted(b.glob("*.json"))[0]).unlink()
        assert main(["eval", "--preds", str(a), "--gts", str(b),
                     "--out", str(tmp_path / "o")]) == 2


class TestConfigSections:
    # The keys each section accepts: the fields of its dataclass, less the
    # ones the CLI fills itself, plus the scene count and frame size.
    KEYS = {
        "scenes": {"count", "kind", "lane_count", "curvature", "branch_frac",
                   "fork_separation", "width", "height", "n_rows"},
        "candidates": {"n_per_gt", "sigma_theta", "sigma_r", "sigma_x", "sigma_score",
                       "score_noise", "n_background", "background_score_cap", "seed"},
        "suppression": {"tau_theta", "lambda_g", "tau_d", "tau_o2m", "tau_o2o"},
        "pipeline": {"mode", "nms_width", "eval_w_base", "oracle_o2o", "head_seed",
                     "feat_c_f", "feat_d_r", "feat_d_n"},
        "labels": {"grid", "lambda_l", "top_k"},
    }
    # Every run-pipeline key set to its default value (numbers given as
    # integers where a float is stored, which the reader accepts).
    EXPLICIT = {
        "scenes": {"count": 8, "kind": "sparse", "lane_count": 4, "curvature": [-25, 25.0],
                   "branch_frac": 0.45, "fork_separation": 60, "width": 800, "height": 320,
                   "n_rows": 36},
        "candidates": {"n_per_gt": 4, "sigma_theta": 0.02, "sigma_r": 8, "sigma_x": 12.0,
                       "sigma_score": 25.0, "score_noise": 0.05, "n_background": 6,
                       "background_score_cap": 0.2, "seed": 7},
        "suppression": {"tau_theta": 0.15, "lambda_g": 40, "tau_d": 0.5, "tau_o2m": 0.48,
                        "tau_o2o": 0.46},
        "pipeline": {"mode": "sequential", "nms_width": 15, "eval_w_base": 15.0,
                     "oracle_o2o": False, "head_seed": 7, "feat_c_f": 8, "feat_d_r": 16,
                     "feat_d_n": 5},
    }

    def test_accepted_keys_per_section(self, tmp_path, monkeypatch):
        seen = {}
        section = cli._section

        def spy(cfg, name, allowed):
            seen[name] = set(allowed)
            return section(cfg, name, allowed)

        monkeypatch.setattr(cli, "_section", spy)
        cli._pipeline_run({}, 7)
        scenes = tmp_path / "scenes"
        assert main(["gen-scenes", "--out", str(scenes)]) == 0
        assert main(["labels", "--scenes", str(scenes), "--lambda-l", "40",
                     "--out", str(tmp_path / "labels")]) == 0
        assert seen == self.KEYS

    def test_explicit_defaults_equal_implicit(self):
        assert {name: set(blob) for name, blob in self.EXPLICIT.items()} == {
            name: keys for name, keys in self.KEYS.items() if name != "labels"
        }
        run = cli._pipeline_run(self.EXPLICIT, 7)
        assert run == cli._pipeline_run({}, 7)
        assert type(run.thresholds.lambda_g) is float
        assert type(run.nms_width) is float
        assert run.scenes[0].curvature == (-25.0, 25.0)

    @pytest.mark.parametrize("section, key, value", [
        ("pipeline", "oracle_o2o", "no"),
        ("scenes", "lane_count", 2.5),
        ("candidates", "n_per_gt", 4.5),
        ("candidates", "seed", 1.5),
        ("candidates", "seed", -3),
        ("pipeline", "head_seed", -1),
        ("pipeline", "feat_c_f", 0),
        ("suppression", "tau_d", True),
        ("scenes", "width", 1600.0),
        ("pipeline", "nms_width", "40"),
        ("scenes", "curvature", [-25.0]),
    ])
    def test_bad_value_exit_2_names_key(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.json", {section: {key: value}})
        assert main(["run-pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[4.0, 10], [4], "4x10"])
    def test_bad_label_grid_exit_2(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path / "cfg.json", {"labels": {"grid": grid}})
        code = main(["labels", "--config", cfg, "--scenes", str(tmp_path), "--lambda-l", "40",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "labels.grid" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--k", "4,8", "--reps", "2", "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert "post-processing only" in lines[0]
        assert lines[1] == "mode,k,repetitions,median_seconds"
        assert len(lines) == 2 + 4  # two modes x two k values

    def test_zero_reps_exit_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--k", "4", "--reps", "0", "--out", str(out)]) == 2
        assert "repetitions" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()
