"""Vectorized quantization and whole-scene candidate generation, checked bit for
bit against the per-element and per-candidate oracles and against the
benchmark's recorded seed-7 digests."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import perfbench_files
from oracles import gen_candidates_oracle, quantize_oracle
from polar_kit import InvalidSpec
from polar_kit.config import default_frame, default_global_pole
from polar_kit.harness import CandidateGenSpec, SceneSpec, gen_candidates, gen_scene, run_pipeline
from polar_kit.harness import fileio
from polar_kit.harness.fileio import quantize
from polar_kit.harness.scenes import child_seed

FRAME = default_frame()
POLE = default_global_pole(FRAME)


def bits(x):
    """Shape and raw bytes: +0.0 and -0.0 differ, every NaN input reads as format's nan."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 307))
near_powers = st.builds(lambda e, ulps: float(np.nextafter(float(f"1e{e}"), ulps * math.inf))
                        if ulps else float(f"1e{e}"), st.integers(-320, 308),
                        st.sampled_from([-1, 0, 1]))
ties = st.builds(lambda m, e, sign: sign * float(f"{m}5e{e}"),
                 st.integers(10**8, 10**9 - 1), st.integers(-330, 290), st.sampled_from([1, -1]))
specials = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324])
values = st.one_of(st.floats(), magnitudes, near_powers, ties, specials)


class TestQuantize:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(values, max_size=40), st.booleans())
    def test_array_matches_format_loop(self, xs, as_grid):
        arr = np.array(xs, dtype=float)
        if as_grid:
            arr = arr[: len(arr) // 2 * 2].reshape(2, -1)
        assert bits(quantize(arr)) == bits(quantize_oracle(arr))

    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_0d_array_and_scalar(self, x):
        zero_d = quantize(np.array(x))
        assert isinstance(zero_d, np.ndarray) and bits(zero_d) == bits(quantize_oracle(x))
        scalar = quantize(x)
        assert type(scalar) is float and bits(scalar) == bits(float(format(x, ".9g")))

    def test_dense_sweep_across_the_fast_range(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-18, 34, 20_000)
        assert bits(quantize(x)) == bits(quantize_oracle(x))

    def test_typical_coordinates_never_reach_format(self, monkeypatch):
        def no_format(*_):
            raise AssertionError("fell back to format")

        monkeypatch.setattr(fileio, "format", no_format, raising=False)
        xs = np.random.default_rng(1).uniform(-800.0, 800.0, (64, 36))
        assert quantize(xs).shape == (64, 36)


def scene(kind: str, n_gts: int, seed: int):
    """``n_gts`` ground truths; in a dense scene the last one is the fork twin."""
    if n_gts == 0:
        return []
    if kind == "dense" and n_gts > 1:
        return gen_scene(SceneSpec(frame=FRAME, kind="dense", lane_count=n_gts - 1, seed=seed))
    try:
        return gen_scene(SceneSpec(frame=FRAME, kind="sparse", lane_count=n_gts, seed=seed))
    except InvalidSpec:  # the draw broke the sparse IoU invariant
        assume(False)


class TestGenCandidatesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "sparse"]),
        n_gts=st.integers(0, 5),
        n_per_gt=st.integers(1, 8),
        n_background=st.integers(0, 8),
        zero_sigmas=st.booleans(),
        zero_noise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_candidate_generation(
        self, kind, n_gts, n_per_gt, n_background, zero_sigmas, zero_noise, seed
    ):
        gts = scene(kind, n_gts, seed)
        sigmas = {"sigma_theta": 0.0, "sigma_r": 0.0, "sigma_x": 0.0} if zero_sigmas else {}
        spec = CandidateGenSpec(n_per_gt=n_per_gt, n_background=n_background,
                                score_noise=0.0 if zero_noise else 0.05, seed=seed, **sigmas)
        got = gen_candidates(gts, spec, frame=FRAME, pole=POLE)
        assert len(got) == n_gts * n_per_gt + n_background
        assert got.sha256() == gen_candidates_oracle(gts, spec, FRAME, POLE).sha256()

    @pytest.mark.parametrize("name", ["dense_k26", "dense_k1024", "crowded_k1024"])
    def test_first_seed7_scene_of_each_workload(self, name):
        run = perfbench_files.load("workloads").build_runs(name, 7, n_scenes=1)["sequential"]
        spec = replace(run.candidates, seed=child_seed(run.candidates.seed, 0))
        gts = gen_scene(run.scenes[0])
        frame = run.scenes[0].frame
        pole = default_global_pole(frame)
        want = gen_candidates_oracle(gts, spec, frame, pole).sha256()
        assert gen_candidates(gts, spec, frame=frame, pole=pole).sha256() == want


@pytest.mark.parametrize("name", ["dense_k26", "dense_k1024", "crowded_k1024"])
def test_seed7_reproduces_recorded_digests(tmp_path, monkeypatch, name):
    """Each workload's selection and metrics bytes, as ``pytest perfbench`` checks them."""
    workloads = perfbench_files.load("workloads")
    monkeypatch.setattr(workloads, "out_dir", lambda: tmp_path)
    recorded = json.loads((perfbench_files.PERFBENCH / "digests.json").read_text())[name]
    runs = workloads.build_runs(name, 7)
    assert {mode: workloads.output_digests(r, run_pipeline(r)) for mode, r in runs.items()} \
        == recorded
