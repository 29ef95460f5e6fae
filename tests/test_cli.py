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


class TestBenchCommand:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--k", "4,8", "--reps", "2", "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert "post-processing only" in lines[0]
        assert lines[1] == "mode,k,repetitions,median_seconds"
        assert len(lines) == 2 + 4  # two modes x two k values
