"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing defers to later calibration.
"""

import math
import time

import numpy as np
import pytest

import polar_kit as pk
from polar_kit.config import default_frame, default_thresholds
from polar_kit.harness import (
    CandidateGenSpec,
    PipelineRun,
    SceneSpec,
    assert_shared_candidates,
    bench_suppression,
    quadratic_fit_r2,
    run_pipeline,
)
from oracles import brute_force_o2o, interval_iou_oracle

FRAME = default_frame()


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE PASS [{criterion}] {detail}")


def test_c01_coordinate_correctness():
    """Radius transform and anchor sampling agree with analytic geometry."""
    n = 100_000
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    thetas = rng.uniform(-1.45, 1.45, size=n)
    r_l = rng.uniform(-400, 400, size=n)
    c_l = rng.uniform(-500, 500, size=(n, 2))
    c_g = rng.uniform(-500, 500, size=(n, 2))

    # Oracle: signed distance from c_g to the line, via an explicit on-line
    # point and direction vector (never through the transform formula).
    normal = np.column_stack([np.cos(thetas), np.sin(thetas)])
    p0 = c_l + r_l[:, None] * normal
    direction = np.column_stack([-np.sin(thetas), np.cos(thetas)])
    w = c_g - p0
    cross = direction[:, 0] * w[:, 1] - direction[:, 1] * w[:, 0]
    want = cross  # |direction| = 1

    pole = pk.Pole(0.0, 0.0, "global")
    shifted = c_l - c_g  # transform is translation-covariant; use pole at origin
    got = pk.local_to_global_radius_batch(thetas, r_l, shifted, pole)
    err_radius = float(np.max(np.abs(got - want)))
    assert err_radius < 1e-9

    # Sampled points must satisfy the line equation against the real pole.
    sample_n = n
    g_pole = pk.Pole(400.0, 192.0, "global")
    radii_g = rng.uniform(-400, 400, size=sample_n)
    xs = pk.sample_anchor_xs_batch(thetas[:sample_n], radii_g, g_pole, FRAME)
    y = FRAME.rows_y_cart[None, :]
    residual = (
        np.cos(thetas[:sample_n])[:, None] * (xs - g_pole.x)
        + np.sin(thetas[:sample_n])[:, None] * (y - g_pole.y)
        - radii_g[:, None]
    )
    err_sample = float(np.max(np.abs(residual)))
    assert err_sample < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("C1", f"{n} tuples, radius err {err_radius:.2e}, "
                 f"residual {err_sample:.2e}, {elapsed:.2f}s")


def _random_lane(rng):
    xs = rng.uniform(60, 740) + np.cumsum(rng.normal(0, 5, size=FRAME.n_rows))
    if rng.random() < 0.5:
        lo = int(rng.integers(0, FRAME.n_rows - 2))
        hi = int(rng.integers(lo + 1, FRAME.n_rows))
    else:
        lo, hi = 0, FRAME.n_rows - 1
    return pk.LaneGrid(xs=xs, valid=(lo, hi), frame=FRAME)


def test_c02_glaneiou_oracle():
    """Interval IoU matches the brute-force row oracle; symmetric; bounded."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        p, q = _random_lane(rng), _random_lane(rng)
        got = pk.iou_matrix([p], [q], 15.0)[0, 0]
        want = interval_iou_oracle(p, q, 15.0, g=0.0)
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-6
        assert abs(got - pk.iou_matrix([q], [p], 15.0)[0, 0]) < 1e-12
        assert 0.0 <= got <= 1.0
    lane = _random_lane(rng)
    assert pk.iou_matrix([lane], [lane], 15.0)[0, 0] == 1.0
    report("C2", f"1000 pairs, worst |diff| {worst:.2e}, identical-lane IoU == 1.0")


def _reference_fast_nms_vec(scores, dist, tau_d, tau_o2m):
    """Sort-based triangular Fast NMS (vectorized), ties to the higher index."""
    k = scores.size
    order = np.lexsort((-np.arange(k), -scores))
    ds = dist[np.ix_(order, order)]
    with np.errstate(divide="ignore"):
        inv = np.where(ds > 0, 1.0 / ds, np.inf)
    earlier = np.triu(np.ones((k, k), dtype=bool), k=1)  # row earlier than column
    pooled = np.where(earlier, inv, 0.0).max(axis=0)
    keep_sorted = pooled < 1.0 / tau_d
    kept = order[keep_sorted]
    kept = kept[scores[kept] > tau_o2m]
    return np.sort(kept)


def test_c03_fast_nms_equivalence():
    """With the geometric gate wide open, the sort-free path equals Fast NMS."""
    rng = np.random.default_rng(303)
    open_gate = pk.SuppressionThresholds(1e9, 1e9, tau_d=0.5, tau_o2m=0.3)
    tiny = pk.ImageFrame(800, 320, 2)
    for trial in range(1000):
        k = int(rng.integers(1, 257))
        scores = rng.uniform(0, 1, size=k)
        d = rng.uniform(0.01, 2.0, size=(k, k))
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        cands = pk.CandidateSet(
            frame=tiny,
            thetas=np.zeros(k), radii=np.zeros(k),
            anchor_xs=np.zeros((k, 2)), lane_xs=np.zeros((k, 2)),
            valid=np.tile([0, 1], (k, 1)), scores_o2m=scores,
        )
        got = pk.fast_nms_geometric(cands, open_gate, lambda _: d)
        want = _reference_fast_nms_vec(scores, d, 0.5, 0.3)
        assert np.array_equal(got, want), f"trial {trial}"
    report("C3", "1000 random sets (K <= 256): exact set equality with Fast NMS")


def test_c04_hungarian_optimality():
    """Total affinity equals the exhaustive-search optimum on 500 instances."""
    rng = np.random.default_rng(404)
    for _ in range(500):
        g = int(rng.integers(1, 9))
        k = int(rng.integers(g, 9))
        cost = rng.uniform(0, 1, size=(g, k))
        pi = pk.hungarian_assign(cost)
        total = float(sum(cost[q, pi[q]] for q in range(g)))
        _, best = brute_force_o2o(cost)
        # identical summation order, so an optimal pick is bitwise equal
        assert total == best
        assert len(set(pi.tolist())) == g
    report("C4", "500 instances (G <= 8, K <= 8): exact optimum every time")


def test_c05_simota_constraints():
    """Positives per ground truth stay in [1, 4]; no double assignment."""
    from test_assignment import clustered_instance

    rng = np.random.default_rng(505)
    cfg = pk.CostConfig(beta=6.0, k_dynamic=4, topk_for_dynamic=10)
    for _ in range(500):
        g = int(rng.integers(1, 5))
        scores, ious = clustered_instance(rng, g)
        affinity = pk.cost_matrix(scores, ious, beta=cfg.beta)
        pairs = pk.simota_assign(affinity, ious, cfg)
        preds = [p for p, _ in pairs]
        assert len(preds) == len(set(preds))
        per_gt = np.bincount([q for _, q in pairs], minlength=g)
        assert np.all((per_gt >= 1) & (per_gt <= 4))
    report("C5", "500 instances: per-gt positives in [1, 4], no double assignment")


def test_c06_masking_locality_bitwise():
    """Scores are bitwise invariant to perturbing non-in-neighbor candidates."""
    rng = np.random.default_rng(606)
    n, c_f, d_r, d_n = 12, 4, 8, 5
    weights = pk.HeadWeights.seeded(n, c_f, d_r, d_n, seed=7)
    gate = pk.SuppressionThresholds(0.3, 120.0, tau_d=0.5)
    trials = 0
    while trials < 200:
        k = int(rng.integers(2, 12))
        feats = rng.standard_normal((k, 3, n, c_f))
        scores = rng.uniform(0.1, 1.0, size=k)
        thetas = rng.uniform(-0.5, 0.5, size=k)
        radii = rng.uniform(-200, 200, size=k)
        xs = rng.uniform(0, 800, size=(k, n))
        adjacency = pk.confidence_adjacency(scores) & pk.geometric_adjacency(
            thetas, radii, gate
        )
        m = int(rng.integers(0, k))
        unaffected = [j for j in range(k) if j != m and not adjacency[m, j]]
        if not unaffected:
            continue
        trials += 1
        s1 = pk.head_forward(feats, scores, thetas, radii, xs, gate, weights)
        feats2 = feats.copy()
        feats2[m] += rng.standard_normal((3, n, c_f))
        s2 = pk.head_forward(feats2, scores, thetas, radii, xs, gate, weights)
        for j in unaffected:
            assert s1[j] == s2[j], f"score {j} changed under perturbation of {m}"
    report("C6", "200 perturbation trials: non-neighbor scores bitwise unchanged")


def test_c07_dense_tradeoff_direction():
    """The width presets trade recall for precision exactly as published."""
    t0 = time.perf_counter()
    cand = CandidateGenSpec(seed=11)
    thresholds = default_thresholds()

    def run(kind, mode, width, oracle=False):
        scenes = tuple(
            SceneSpec(frame=FRAME, kind=kind, lane_count=4, seed=1000 + i)
            for i in range(50)
        )
        return run_pipeline(
            PipelineRun(scenes=scenes, candidates=cand, mode=mode,
                        thresholds=thresholds, nms_width=width, oracle_o2o=oracle)
        )

    dense15 = run("dense", "sequential", 15.0)
    dense50 = run("dense", "sequential", 50.0)
    dense_dual = run("dense", "dual_confidence", 15.0, oracle=True)
    assert_shared_candidates(dense15, dense50)
    assert_shared_candidates(dense15, dense_dual)
    assert dense15.report.recall > dense50.report.recall
    assert dense50.report.precision > dense15.report.precision
    assert dense_dual.report.f1 >= max(dense15.report.f1, dense50.report.f1)

    sparse15 = run("sparse", "sequential", 15.0)
    sparse50 = run("sparse", "sequential", 50.0)
    assert_shared_candidates(sparse15, sparse50)
    assert sparse15.report.fp > sparse50.report.fp
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "C7",
        f"dense recall {dense15.report.recall:.3f}>{dense50.report.recall:.3f}, "
        f"precision {dense50.report.precision:.3f}>{dense15.report.precision:.3f}, "
        f"dual F1 {dense_dual.report.f1:.3f} >= presets, "
        f"sparse fp {sparse15.report.fp}>{sparse50.report.fp}, {elapsed:.1f}s",
    )


def test_c08_metric_arithmetic_exact():
    """F1 and mF1 arithmetic is exact on the stated count patterns."""
    from polar_kit.evaluation import ThresholdMetrics

    row = ThresholdMetrics(threshold=0.5, tp=8, fp=2, fn=2)
    assert row.precision == 0.8
    assert row.recall == 0.8
    assert row.f1 == 0.8  # exact: 2*8 / (2*8 + 2 + 2)

    def lanes_at(positions):
        return [
            pk.LaneGrid(xs=np.full(FRAME.n_rows, float(x)), valid=(0, FRAME.n_rows - 1),
                        frame=FRAME)
            for x in positions
        ]

    gts = lanes_at([300, 600])
    preds = lanes_at([310, 610])  # IoU exactly 0.5: counted at 0.50 only
    rep = pk.f1_suite([preds], [gts], w_base=15.0)
    assert rep.f1_at(0.50) == 1.0
    assert all(rep.f1_at(t) == 0.0 for t in [0.55, 0.60, 0.65, 0.70, 0.75,
                                             0.80, 0.85, 0.90, 0.95])
    assert rep.mf1 == 0.1
    report("C8", "F1(8,2,2) == 0.8 exactly; perfect-at-0.50-only mF1 == 0.1 exactly")


def test_c09_loss_sanity():
    """Perfect inputs give zero; the aggregate is linear; lpm matches its oracle."""
    lane = pk.LaneGrid(xs=np.full(FRAME.n_rows, 250.0), valid=(0, FRAME.n_rows - 1),
                       frame=FRAME)
    pole = pk.Pole(400.0, 192.0, "global")
    assert pk.smooth_l1(0.0) == 0.0
    assert pk.giou_loss(lane, lane, 15.0) == pytest.approx(0.0)
    assert pk.endpoint_loss((10.0, 300.0), (10.0, 300.0), 320.0) == 0.0
    assert pk.rank_loss([0.9], [0.1], margin=0.1) == 0.0
    seg = pk.segment_params(lane, 3, pole)
    anchor = pk.PolarAnchor(float(seg.theta_seg[0]), float(seg.r_seg[0]), pole)
    assert pk.aux_loss(anchor, seg.with_offsets(np.zeros(3), np.zeros(3)), 320.0) == 0.0
    assert pk.focal(1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(909)
    for _ in range(100):
        vals = rng.uniform(0, 3, size=8)
        weights = pk.LossWeights(*rng.uniform(0, 2, size=6))
        scale = float(rng.uniform(0.1, 4.0))
        c1, r1, t1 = pk.gpm_losses(pk.LossComponents(*vals), weights)
        c2, r2, t2 = pk.gpm_losses(pk.LossComponents(*(vals * scale)), weights)
        assert c2 == pytest.approx(scale * c1, rel=1e-12, abs=1e-15)
        assert r2 == pytest.approx(scale * r1, rel=1e-12, abs=1e-15)
        assert t2 == pytest.approx(scale * t1, rel=1e-12, abs=1e-15)

    # lpm_loss against an explicit double-loop oracle
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        r_hat = rng.uniform(0, 100, shape)
        labels = pk.PoleGridLabels(r_hat=r_hat, theta_hat=rng.uniform(-1, 1, shape),
                                   s_hat=r_hat < 50.0)
        pt = rng.uniform(-1, 1, shape)
        pr = rng.uniform(0, 100, shape)
        ps = rng.uniform(0.01, 0.99, shape)
        l_cls, l_reg = pk.lpm_loss(pt, pr, ps, labels, 50.0)
        want_cls, want_reg, n_pos = 0.0, 0.0, 0
        for i in range(shape[0]):
            for j in range(shape[1]):
                y = 1.0 if labels.s_hat[i, j] else 0.0
                want_cls += -(y * math.log(ps[i, j]) + (1 - y) * math.log(1 - ps[i, j]))
                if r_hat[i, j] < 50.0:
                    n_pos += 1
                    want_reg += pk.smooth_l1(pt[i, j] - labels.theta_hat[i, j])
                    want_reg += pk.smooth_l1(pr[i, j] - r_hat[i, j])
        want_cls /= shape[0] * shape[1]
        want_reg = want_reg / n_pos if n_pos else 0.0
        worst = max(worst, abs(l_cls - want_cls), abs(l_reg - want_reg))
        assert abs(l_cls - want_cls) < 1e-12
        assert abs(l_reg - want_reg) < 1e-12
    report("C9", f"zero-on-perfect holds; linearity holds; lpm oracle diff {worst:.1e}")


def test_c10_determinism_and_io(tmp_path):
    """Same (seed, config) gives byte-identical outputs; files round-trip."""
    import json

    from polar_kit.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenes": {"count": 5, "kind": "dense", "lane_count": 4},
        "pipeline": {"mode": "fast_geometric", "nms_width": 15.0},
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run-pipeline", "--config", str(cfg_path), "--seed", "17",
                 "--out", str(out1)]) == 0
    assert main(["run-pipeline", "--config", str(cfg_path), "--seed", "17",
                 "--out", str(out2)]) == 0
    compared = 0
    for p1 in sorted(out1.rglob("*")):
        if not p1.is_file() or p1.name == "timings.csv":
            continue
        p2 = out2 / p1.relative_to(out1)
        assert p1.read_bytes() == p2.read_bytes(), p1.name
        compared += 1
    assert compared >= 12  # metrics + selections + 5 scenes + 5 preds

    # round trips
    from polar_kit.harness import (
        gen_candidates, gen_scene, read_candidates, read_metrics_json,
        read_scene, write_candidates, write_metrics_json, write_scene,
    )

    lanes = gen_scene(SceneSpec(frame=FRAME, kind="dense", lane_count=4, seed=3))
    write_scene(tmp_path / "s.json", lanes, {"scene_id": 0})
    lanes2, _ = read_scene(tmp_path / "s.json")
    assert all(a == b for a, b in zip(lanes, lanes2))
    cands = gen_candidates(lanes, CandidateGenSpec(seed=5))
    write_candidates(tmp_path / "c.json", cands)
    cands2, _ = read_candidates(tmp_path / "c.json")
    assert cands2.sha256() == cands.sha256()
    rep = pk.f1_suite([lanes], [lanes], w_base=15.0)
    write_metrics_json(tmp_path / "m.json", rep)
    rep2 = read_metrics_json(tmp_path / "m.json")
    assert rep2.mf1 == rep.mf1 == 1.0
    report("C10", f"{compared} files byte-identical across reruns; round trips exact")


def test_c11_suppression_complexity():
    """Fast-path runtime grows quadratically in the candidate count."""
    ks = [32, 64, 128, 256, 512, 1024]
    rows = bench_suppression(ks, repetitions=3, seed=0, modes=("fast_geometric",))
    fast = {r.k: r.median_seconds for r in rows if r.mode == "fast_geometric"}
    secs = [fast[k] for k in ks]
    r2 = quadratic_fit_r2(ks, secs)
    assert r2 > 0.9
    report("C11", f"quadratic fit R^2 = {r2:.4f} over K = {ks}")
