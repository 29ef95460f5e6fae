import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polar_kit import (
    CandidateGraph,
    HeadWeights,
    ParseError,
    ShapeError,
    SuppressionThresholds,
    aggregate_levels,
    confidence_adjacency,
    edge_tensor,
    geometric_adjacency,
    head_forward,
    load_weights,
    node_scores,
    roi_project,
    save_weights,
)
from oracles import dense_head_forward

N, C_F, D_R, D_N = 12, 4, 8, 5
OPEN = SuppressionThresholds(tau_theta=1e9, lambda_g=1e9, tau_d=0.5)


@pytest.fixture
def weights():
    return HeadWeights.seeded(N, C_F, D_R, D_N, seed=42)


def random_inputs(rng, k):
    feats = rng.standard_normal((k, 3, N, C_F))
    scores = rng.uniform(0.1, 1.0, size=k)
    thetas = rng.uniform(-0.5, 0.5, size=k)
    radii = rng.uniform(-200, 200, size=k)
    anchor_xs = rng.uniform(0, 800, size=(k, N))
    return feats, scores, thetas, radii, anchor_xs


class TestAggregateLevels:
    def test_identical_levels_pass_through(self, weights):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((N, C_F))
        feats = np.stack([base, base, base])
        out = aggregate_levels(feats, weights.level_weights)
        assert np.allclose(out, base)

    def test_saturated_weights_pick_one_level(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((3, N, C_F))
        w = np.zeros((3, N))
        w[1] = 60.0  # softmax saturates toward level 1
        out = aggregate_levels(feats, w)
        assert np.allclose(out, feats[1], atol=1e-12)

    def test_equal_weights_arithmetic_mean(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((3, N, C_F))
        out = aggregate_levels(feats, np.full((3, N), 0.7))
        assert np.allclose(out, feats.mean(axis=0))

    def test_softmax_weights_sum_to_one(self, weights):
        # aggregating all-ones features returns ones iff weights are convex
        out = aggregate_levels(np.ones((3, N, C_F)), weights.level_weights)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_batched_shape(self, weights):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((7, 3, N, C_F))
        out = aggregate_levels(feats, weights.level_weights)
        assert out.shape == (7, N, C_F)
        assert np.allclose(out[2], aggregate_levels(feats[2], weights.level_weights))

    def test_shape_mismatch(self, weights):
        with pytest.raises(ShapeError):
            aggregate_levels(np.zeros((2, N, C_F)), weights.level_weights)


class TestRoiProject:
    def test_zero_input_zero_output(self, weights):
        assert np.array_equal(roi_project(np.zeros((N, C_F)), weights.pool_matrix),
                              np.zeros(D_R))

    def test_selector_matrix(self):
        pool = np.zeros((2, N * C_F))
        pool[0, 0] = 1.0
        pool[1, 5] = 1.0
        rng = np.random.default_rng(4)
        agg = rng.standard_normal((N, C_F))
        out = roi_project(agg, pool)
        flat = agg.ravel()
        assert out[0] == flat[0] and out[1] == flat[5]

    def test_additivity(self, weights):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((N, C_F))
        b = rng.standard_normal((N, C_F))
        lhs = roi_project(a + b, weights.pool_matrix)
        rhs = roi_project(a, weights.pool_matrix) + roi_project(b, weights.pool_matrix)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self, weights):
        with pytest.raises(ShapeError):
            roi_project(np.zeros((N + 1, C_F)), weights.pool_matrix)


def all_pairs(k):
    """Graph of every ordered pair of k candidates, self-pairs included."""
    return CandidateGraph(np.ones((k, k), dtype=bool))


class TestEdgeTensor:
    def test_identical_candidates_constant_when_in_equals_out(self, weights):
        from dataclasses import replace

        w = replace(weights, out_matrix=weights.in_matrix)
        rng = np.random.default_rng(6)
        roi = rng.standard_normal(D_R)
        xs = rng.uniform(0, 800, size=N)
        graph = CandidateGraph(~np.eye(2, dtype=bool))  # pairs 1 -> 0 and 0 -> 1
        edge = edge_tensor(np.stack([roi, roi]), np.stack([xs, xs]), w, graph)
        from polar_kit.o2o_head import _mlp

        constant = _mlp(w.sample_bias, w.edge_mlp, sigmoid_out=False)
        assert np.allclose(edge[0], constant, atol=1e-12)
        assert np.allclose(edge[1], constant, atol=1e-12)

    @pytest.mark.parametrize("graph_k", [2, 4, 0])
    def test_graph_of_another_k_rejected(self, weights, graph_k):
        rng = np.random.default_rng(7)
        rois, xs = rng.standard_normal((3, D_R)), rng.uniform(0, 800, (3, N))
        with pytest.raises(ShapeError, match="3 candidates"):
            edge_tensor(rois, xs, weights, all_pairs(graph_k))

    def test_k1_shape(self, weights):
        rng = np.random.default_rng(7)
        rois, xs = rng.standard_normal((1, D_R)), rng.uniform(0, 800, (1, N))
        assert edge_tensor(rois, xs, weights, all_pairs(1)).shape == (1, D_N)
        no_pairs = CandidateGraph(np.zeros((1, 1), dtype=bool))
        assert edge_tensor(rois, xs, weights, no_pairs).shape == (0, D_N)

    def test_locality_under_perturbation(self, weights):
        rng = np.random.default_rng(8)
        rois = rng.standard_normal((5, D_R))
        xs = rng.uniform(0, 800, (5, N))
        graph = all_pairs(5)
        src, dst = graph.src, graph.dst
        edge = edge_tensor(rois, xs, weights, graph)
        rois2 = rois.copy()
        rois2[3] += rng.standard_normal(D_R)
        edge2 = edge_tensor(rois2, xs, weights, graph)
        touched = (src == 3) | (dst == 3)
        assert np.array_equal(edge[~touched], edge2[~touched])
        row = np.flatnonzero((src == 3) & (dst == 0))[0]
        assert not np.allclose(edge[row], edge2[row])


class TestNodeScores:
    def test_zero_weight_mlp_constant_sigmoid_bias(self, weights):
        zeroed = tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in weights.node_mlp[:-1])
        w3, b3 = weights.node_mlp[-1]
        final = zeroed + ((np.zeros_like(w3), np.full_like(b3, 0.3)),)
        pooled = np.random.default_rng(11).standard_normal((6, D_N))
        from dataclasses import replace

        s = node_scores(pooled, replace(weights, node_mlp=final).node_mlp)
        assert np.allclose(s, 1.0 / (1.0 + np.exp(-0.3)))

    def test_scores_in_open_unit_interval(self, weights):
        pooled = np.random.default_rng(12).standard_normal((50, D_N)) * 50
        s = node_scores(pooled, weights.node_mlp)
        assert np.all((s > 0) & (s < 1))

    def test_saturated_logits_give_exact_zero(self, weights):
        # exp(-x) overflows for logits below about -709; the score is its limit 0.0
        w3, b3 = weights.node_mlp[-1]
        layers = weights.node_mlp[:-1] + ((w3 * 1e5, b3 - 1e5),)
        s = node_scores(np.full((4, D_N), 50.0), layers)
        assert s.shape == (4,) and np.all((s >= 0) & (s <= 1))
        assert 0.0 in s

    def test_identical_rows_identical_scores(self, weights):
        row = np.random.default_rng(13).standard_normal(D_N)
        s = node_scores(np.stack([row, row, row]), weights.node_mlp)
        assert s[0] == s[1] == s[2]


class TestHeadForward:
    def test_k1_single_score(self, weights):
        rng = np.random.default_rng(14)
        feats, scores, thetas, radii, xs = random_inputs(rng, 1)
        s = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
        assert s.shape == (1,)

    def test_duplicate_pooling_direction(self, weights):
        # the higher-score duplicate has no in-edges, so it pools zeros;
        # the lower one pools a (generically) nonzero vector
        rng = np.random.default_rng(15)
        feats, _, thetas, radii, xs = random_inputs(rng, 2)
        feats[1] = feats[0]
        thetas[:] = 0.1
        radii[:] = 50.0
        xs[1] = xs[0]
        scores = np.array([0.9, 0.6])
        rois = roi_project(aggregate_levels(feats, weights.level_weights), weights.pool_matrix)
        graph = CandidateGraph(
            confidence_adjacency(scores) & geometric_adjacency(thetas, radii, OPEN))
        pooled = graph.in_edge_max(edge_tensor(rois, xs, weights, graph))
        assert np.array_equal(pooled[0], np.zeros(D_N))
        assert np.any(pooled[1] != 0)
        s = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
        expect = node_scores(pooled, weights.node_mlp)
        assert np.array_equal(s, expect)

    def test_empty_candidate_set(self, weights):
        feats, scores, thetas, radii, xs = random_inputs(np.random.default_rng(20), 0)
        s = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
        assert s.shape == (0,)

    def test_masking_locality_bitwise(self, weights):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            feats, scores, thetas, radii, xs = random_inputs(rng, k)
            adjacency = confidence_adjacency(scores) & geometric_adjacency(thetas, radii, OPEN)
            s = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
            m = int(rng.integers(0, k))
            feats2 = feats.copy()
            feats2[m] += rng.standard_normal((3, N, C_F))
            s2 = head_forward(feats2, scores, thetas, radii, xs, OPEN, weights)
            for j in range(k):
                if j != m and not adjacency[m, j]:
                    assert s[j] == s2[j]  # bitwise

    def test_deterministic_across_runs(self, weights):
        rng = np.random.default_rng(17)
        feats, scores, thetas, radii, xs = random_inputs(rng, 6)
        a = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
        b = head_forward(feats.copy(), scores.copy(), thetas.copy(), radii.copy(),
                            xs.copy(), OPEN, weights)
        assert np.array_equal(a, b)

    def test_shape_errors(self, weights):
        rng = np.random.default_rng(18)
        feats, scores, thetas, radii, xs = random_inputs(rng, 3)
        with pytest.raises(ShapeError):
            head_forward(feats[:, :2], scores, thetas, radii, xs, OPEN, weights)
        with pytest.raises(ShapeError):
            head_forward(feats, scores[:2], thetas, radii, xs, OPEN, weights)
        # a length-1 theta or radius array would broadcast over the adjacency
        with pytest.raises(ShapeError):
            head_forward(feats, scores, thetas[:1], radii, xs, OPEN, weights)
        with pytest.raises(ShapeError):
            head_forward(feats, scores, thetas, radii[:1], xs, OPEN, weights)

    @pytest.mark.parametrize(
        "k,n,c_f,d_r,d_n",
        [(1, 2, 1, 1, 1), (3, 5, 2, 4, 5), (9, 36, 8, 16, 5), (2, 3, 1, 2, 3)],
    )
    def test_shape_contract_across_dimensions(self, k, n, c_f, d_r, d_n):
        rng = np.random.default_rng(k * 100 + n)
        w = HeadWeights.seeded(n, c_f, d_r, d_n, seed=1)
        feats = rng.standard_normal((k, 3, n, c_f))
        scores = rng.uniform(0.1, 1.0, size=k)
        thetas = rng.uniform(-0.5, 0.5, size=k)
        radii = rng.uniform(-50, 50, size=k)
        xs = rng.uniform(0, 800, size=(k, n))
        s = head_forward(feats, scores, thetas, radii, xs, OPEN, w)
        assert s.shape == (k,)
        assert np.all((s > 0) & (s < 1))


GATES = {
    "open": OPEN,
    "infinite": SuppressionThresholds(tau_theta=np.inf, lambda_g=np.inf, tau_d=0.5),
    "finite": SuppressionThresholds(tau_theta=0.3, lambda_g=120.0, tau_d=0.5),
    "no-edges": SuppressionThresholds(tau_theta=1e-12, lambda_g=1e-12, tau_d=0.5),
}


class TestDenseOracle:
    """The pair-list head is bitwise equal to the dense (K, K, d_n) reference."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           gate=st.sampled_from(sorted(GATES)), ties=st.booleans())
    def test_bitwise_equal_to_dense_head(self, k, seed, gate, ties):
        weights = HeadWeights.seeded(N, C_F, D_R, D_N, seed=seed)
        rng = np.random.default_rng(seed)
        feats, scores, thetas, radii, xs = random_inputs(rng, k)
        if ties:  # few distinct scores, so A_C falls back on the index order
            scores = rng.choice([0.3, 0.6, 0.9], size=k)
        got = head_forward(feats, scores, thetas, radii, xs, GATES[gate], weights)
        want = dense_head_forward(feats, scores, thetas, radii, xs, GATES[gate], weights)
        assert got.shape == (k,)
        assert got.tobytes() == want.tobytes()


class TestPermutationEquivariance:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           gate=st.sampled_from(sorted(GATES)))
    def test_scores_permute_with_the_candidates(self, k, seed, gate):
        """With distinct o2m scores, relabelling the candidates relabels the head scores."""
        weights = HeadWeights.seeded(N, C_F, D_R, D_N, seed=seed)
        rng = np.random.default_rng(seed)
        inputs = random_inputs(rng, k)
        assume(np.unique(inputs[1]).size == k)
        perm = rng.permutation(k)
        got = head_forward(*(a[perm] for a in inputs), GATES[gate], weights)
        want = head_forward(*inputs, GATES[gate], weights)
        np.testing.assert_allclose(got, want[perm], rtol=0, atol=1e-12)


class TestWeightsIO:
    def test_json_round_trip(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        save_weights(weights, path)
        loaded = load_weights(path)
        assert np.array_equal(loaded.pool_matrix, weights.pool_matrix)
        assert np.array_equal(loaded.node_mlp[2][0], weights.node_mlp[2][0])
        rng = np.random.default_rng(19)
        feats, scores, thetas, radii, xs = random_inputs(rng, 4)
        a = head_forward(feats, scores, thetas, radii, xs, OPEN, weights)
        b = head_forward(feats, scores, thetas, radii, xs, OPEN, loaded)
        assert np.array_equal(a, b)

    def test_bad_version(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        blob = weights.to_json_dict()
        blob["version"] = 99
        import json

        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError):
            load_weights(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text('{"version": 1, "level_')
        with pytest.raises(ParseError):
            load_weights(path)

    # Each case loaded or raised a non-ParseError before the weights reader was typed.
    @pytest.mark.parametrize("key, value, named", [
        ("level_weights", {"shape": [3, N], "data": ["0.1"] * (3 * N)}, "level_weights.data[0]"),
        ("roi_bias", {"shape": [float(D_R)], "data": [0.0] * D_R}, "roi_bias.shape[0]"),
        ("version", 1.0, "version"),
        ("extra", 1, "extra"),
        ("edge_mlp", 5, "edge_mlp"),
    ], ids=["data-strings", "shape-float", "version-float", "unknown-key", "edge-mlp-int"])
    def test_malformed_file_names_field(self, tmp_path, weights, key, value, named):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({**weights.to_json_dict(), key: value}))
        with pytest.raises(ParseError, match=re.escape(named)):
            load_weights(path)

    @pytest.mark.parametrize("key, value", [
        ("roi_bias", {"shape": [D_R + 1], "data": [0.0] * D_R}),
        ("roi_bias", {"shape": [-1], "data": [0.0] * D_R}),
        ("roi_bias", {"shape": [D_R + 1], "data": [0.0] * (D_R + 1)}),
        ("pool_matrix", {"shape": [], "data": [0.0]}),
        ("level_weights", {"shape": [3, 0], "data": []}),
    ], ids=["too-few-values", "negative-dim", "inconsistent-shapes", "scalar", "zero-rows"])
    def test_bad_shapes_are_parse_errors(self, weights, key, value):
        with pytest.raises(ParseError, match="weights.json"):
            HeadWeights.from_json_dict({**weights.to_json_dict(), key: value}, "weights.json")

    def test_seeded_reproducible(self):
        a = HeadWeights.seeded(N, C_F, D_R, D_N, seed=7)
        b = HeadWeights.seeded(N, C_F, D_R, D_N, seed=7)
        assert np.array_equal(a.pool_matrix, b.pool_matrix)
        c = HeadWeights.seeded(N, C_F, D_R, D_N, seed=8)
        assert not np.array_equal(a.pool_matrix, c.pool_matrix)

    def test_shape_validation(self, weights):
        from dataclasses import replace

        with pytest.raises(ShapeError):
            replace(weights, roi_bias=np.zeros(D_R + 1))
        with pytest.raises(ShapeError):
            replace(weights, node_mlp=weights.node_mlp[:2])
