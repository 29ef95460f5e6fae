import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polar_kit import (
    CandidateGraph,
    CandidateSet,
    ImageFrame,
    InvalidInput,
    MissingO2OScores,
    ParseError,
    Pole,
    ShapeError,
    SuppressionThresholds,
    confidence_adjacency,
    dual_confidence_select,
    fast_nms_geometric,
    geometric_adjacency,
    iou_distance,
    sequential_nms,
)
from polar_kit.harness import read_candidates
from oracles import dense_fast_nms, reference_fast_nms

WIDE_OPEN = SuppressionThresholds(tau_theta=1e9, lambda_g=1e9, tau_d=0.5, tau_o2m=0.3)


def make_set(frame, lane_xs, scores, thetas=None, radii=None, scores_o2o=None):
    lane_xs = np.asarray(lane_xs, dtype=float)
    k = lane_xs.shape[0]
    thetas = np.zeros(k) if thetas is None else np.asarray(thetas, float)
    radii = lane_xs[:, 0].copy() if radii is None else np.asarray(radii, float)
    return CandidateSet(
        frame=frame,
        thetas=thetas,
        radii=radii,
        anchor_xs=lane_xs.copy(),
        lane_xs=lane_xs,
        valid=np.tile([0, frame.n_rows - 1], (k, 1)),
        scores_o2m=np.asarray(scores, dtype=float),
        scores_o2o=scores_o2o,
        pole=Pole(400.0, 192.0, "global"),
    )


def vertical_set(frame, positions, scores, **kw):
    xs = np.tile(np.asarray(positions, float)[:, None], (1, frame.n_rows))
    return make_set(frame, xs, scores, **kw)


class TestConfidenceAdjacency:
    def test_distinct_scores(self):
        a = confidence_adjacency([0.9, 0.5]).astype(int)
        assert a.tolist() == [[0, 1], [0, 0]]

    def test_equal_scores_higher_index_suppresses(self):
        a = confidence_adjacency([0.5, 0.5]).astype(int)
        assert a.tolist() == [[0, 0], [1, 0]]

    def test_single_candidate(self):
        assert confidence_adjacency([0.7]).astype(int).tolist() == [[0]]

    def test_antisymmetric_total_order(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.choice([0.1, 0.4, 0.4, 0.9], size=rng.integers(2, 20))
            a = confidence_adjacency(s)
            assert not np.any(np.diag(a))
            off = a.astype(int) + a.astype(int).T
            assert np.all(off[~np.eye(s.size, dtype=bool)] == 1)


class TestGeometricAdjacency:
    TH = SuppressionThresholds(tau_theta=0.1, lambda_g=20.0, tau_d=0.5)

    def test_identical_anchors_all_ones(self):
        a = geometric_adjacency([0.2, 0.2], [50.0, 50.0], self.TH)
        assert a.all()

    def test_threshold_is_strict(self):
        a = geometric_adjacency([0.0, 0.1], [0.0, 0.0], self.TH)
        assert not a[0, 1] and not a[1, 0]
        assert a[0, 0] and a[1, 1]

    def test_within_both_thresholds(self):
        a = geometric_adjacency([0.0, 0.0], [0.0, 10.0], self.TH)
        assert a.all()

    def test_symmetric_reflexive(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            k = int(rng.integers(1, 15))
            a = geometric_adjacency(rng.uniform(-1, 1, k), rng.uniform(-300, 300, k), self.TH)
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a))


class TestFastNms:
    def test_single_candidate_selected(self, frame):
        cs = vertical_set(frame, [100.0], [0.9])
        assert fast_nms_geometric(cs, WIDE_OPEN, iou_distance(15.0)).tolist() == [0]

    def test_duplicates_keep_higher_score(self, frame):
        cs = vertical_set(frame, [100.0, 102.0], [0.8, 0.9])
        sel = fast_nms_geometric(cs, WIDE_OPEN, iou_distance(15.0))
        assert sel.tolist() == [1]

    def test_geometric_prior_disables_suppression(self, frame):
        # same duplicates, but anchors differ in theta by >= tau_theta
        gated = SuppressionThresholds(tau_theta=0.05, lambda_g=1e9, tau_d=0.5, tau_o2m=0.3)
        cs = vertical_set(frame, [100.0, 102.0], [0.8, 0.9], thetas=[0.0, 0.2])
        sel = fast_nms_geometric(cs, gated, iou_distance(15.0))
        assert sel.tolist() == [0, 1]

    def test_chain_over_suppression_vs_sequential(self, frame):
        # d(a,b) < tau_d, d(b,c) < tau_d, d(a,c) >= tau_d with scores a > b > c
        cs = vertical_set(frame, [100.0, 109.0, 118.0], [0.9, 0.8, 0.7])
        dist = iou_distance(15.0)
        mat = dist(cs)
        assert mat[0, 1] < 0.5 and mat[1, 2] < 0.5 and mat[0, 2] >= 0.5
        fast = fast_nms_geometric(cs, WIDE_OPEN, dist)
        seq = sequential_nms(cs, dist, tau_d=0.5, tau_o2m=0.3)
        assert fast.tolist() == [0]
        assert seq.tolist() == [0, 2]

    def test_score_gate_applies(self, frame):
        cs = vertical_set(frame, [100.0, 400.0], [0.9, 0.2])
        sel = fast_nms_geometric(cs, WIDE_OPEN, iou_distance(15.0))
        assert sel.tolist() == [0]

    def test_top_score_always_survives(self, frame):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 30))
            cs = vertical_set(frame, rng.uniform(50, 750, k), rng.uniform(0.35, 1.0, k))
            sel = fast_nms_geometric(cs, WIDE_OPEN, iou_distance(15.0))
            assert int(np.argmax(cs.scores_o2m)) in sel.tolist()

    def test_monotone_in_geometric_thresholds(self, frame):
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = int(rng.integers(2, 25))
            cs = vertical_set(
                frame, rng.uniform(50, 750, k), rng.uniform(0.35, 1.0, k),
                thetas=rng.uniform(-0.4, 0.4, k), radii=rng.uniform(-200, 200, k),
            )
            dist = iou_distance(25.0)
            small = SuppressionThresholds(0.05, 10.0, 0.5, tau_o2m=0.3)
            large = SuppressionThresholds(0.5, 200.0, 0.5, tau_o2m=0.3)
            sel_small = set(fast_nms_geometric(cs, small, dist).tolist())
            sel_large = set(fast_nms_geometric(cs, large, dist).tolist())
            assert sel_large <= sel_small

    def test_equivalent_to_reference_fast_nms(self, frame):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 40))
            cs = vertical_set(frame, rng.uniform(50, 750, k), rng.uniform(0.0, 1.0, k))
            dist_fn = iou_distance(30.0)
            got = fast_nms_geometric(cs, WIDE_OPEN, dist_fn)
            want = reference_fast_nms(cs.scores_o2m, dist_fn(cs), 0.5, 0.3)
            assert got.tolist() == want.tolist()

    def test_zero_distance_always_suppresses(self, frame):
        cs = vertical_set(frame, [100.0, 100.0], [0.9, 0.8])
        huge_tau = SuppressionThresholds(1e9, 1e9, 1e9, tau_o2m=0.3)
        sel = fast_nms_geometric(cs, huge_tau, iou_distance(15.0))
        assert sel.tolist() == [0]


GATE = st.one_of(st.floats(1e-3, 2.0), st.sampled_from([1e-12, np.inf]))
TINY = ImageFrame(800, 320, 2)


def anchor_set(thetas, radii, scores):
    """Candidates that differ only in their anchor parameters and scores; lanes never matter."""
    k = len(scores)
    return CandidateSet(
        frame=TINY, thetas=thetas, radii=radii, anchor_xs=np.zeros((k, 2)),
        lane_xs=np.zeros((k, 2)), valid=np.tile([0, 1], (k, 1)), scores_o2m=scores,
    )


class TestFastNmsDenseOracle:
    """The pair-list pooling keeps exactly the set the dense K x K pooling keeps."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(0, 60), seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
           tau_theta=GATE, lambda_g=GATE.map(lambda g: 100.0 * g),
           tau_d=st.floats(0.05, 1.5))
    def test_set_equal_to_dense_pooling(self, k, seed, ties, tau_theta, lambda_g, tau_d):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.2, 0.5, 0.8], k) if ties else rng.uniform(0, 1, k)
        d = rng.uniform(0.0, 2.0, (k, k))
        d[rng.uniform(size=(k, k)) < 0.1] = 0.0
        cands = anchor_set(rng.uniform(-1, 1, k), rng.uniform(-100, 100, k), scores)
        th = SuppressionThresholds(tau_theta, lambda_g, tau_d, tau_o2m=0.3)
        adjacency = confidence_adjacency(scores) & geometric_adjacency(
            cands.thetas, cands.radii, th)
        got = fast_nms_geometric(cands, th, lambda _: d)
        assert got.tolist() == dense_fast_nms(scores, adjacency, d, tau_d, 0.3).tolist()


class TestPermutationEquivariance:
    """With distinct scores, relabelling the candidates relabels the selection."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), tau_theta=GATE,
           lambda_g=GATE.map(lambda g: 100.0 * g), tau_d=st.floats(0.05, 1.5))
    def test_nms_selections_permute_with_the_candidates(self, k, seed, tau_theta, lambda_g,
                                                        tau_d):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0, 1, k)
        assume(np.unique(scores).size == k)
        thetas, radii = rng.uniform(-1, 1, k), rng.uniform(-100, 100, k)
        d = rng.uniform(0.0, 2.0, (k, k))
        d[rng.uniform(size=(k, k)) < 0.1] = 0.0
        perm = rng.permutation(k)
        cands = anchor_set(thetas, radii, scores)
        permuted = anchor_set(thetas[perm], radii[perm], scores[perm])
        d_perm = d[np.ix_(perm, perm)]
        th = SuppressionThresholds(tau_theta, lambda_g, tau_d, tau_o2m=0.3)
        fast = fast_nms_geometric(cands, th, lambda _: d)
        fast_perm = fast_nms_geometric(permuted, th, lambda _: d_perm)
        assert set(perm[fast_perm].tolist()) == set(fast.tolist())
        seq = sequential_nms(cands, lambda _: d, tau_d, 0.3)
        seq_perm = sequential_nms(permuted, lambda _: d_perm, tau_d, 0.3)
        assert set(perm[seq_perm].tolist()) == set(seq.tolist())


def graph_into(k, *targets):
    """Graph over k candidates whose pairs point, in order, into the ascending ``targets``."""
    adjacency = np.zeros((k, k), dtype=bool)
    for t in set(targets):
        adjacency[:targets.count(t), t] = True
    return CandidateGraph(adjacency)


class TestCandidateGraph:
    def test_pairs_are_the_adjacency_grouped_by_target(self):
        adjacency = np.random.default_rng(9).uniform(size=(7, 7)) < 0.4
        graph = CandidateGraph(adjacency)
        assert graph.k == 7
        assert adjacency[graph.src, graph.dst].all() and graph.src.size == adjacency.sum()
        assert np.all(np.diff(graph.dst) >= 0)

    @pytest.mark.parametrize("adjacency", [
        np.ones((2, 3), dtype=bool), np.ones(4, dtype=bool), np.ones((2, 2, 2), dtype=bool),
        np.ones((2, 2)),
    ], ids=["non-square", "flat", "3-d", "float"])
    def test_non_square_or_non_boolean_adjacency_rejected(self, adjacency):
        with pytest.raises(ShapeError):
            CandidateGraph(adjacency)

    def test_arrays_are_read_only(self):
        adjacency = np.ones((3, 3), dtype=bool)
        graph = CandidateGraph(adjacency)
        for arr in (graph.src, graph.dst):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2
        adjacency[:] = False  # the graph does not alias its input
        assert graph.src.size == 9


class TestMaxOverInEdges:
    """``CandidateGraph.in_edge_max``, the one pooling rule of fast NMS and the head."""

    def test_no_edges_pools_zeros(self):
        out = CandidateGraph(np.zeros((3, 3), dtype=bool)).in_edge_max(np.zeros((0, 5)))
        assert np.array_equal(out, np.zeros((3, 5)))

    def test_singleton_pool(self):
        row = np.random.default_rng(10).standard_normal((1, 5)) - 10.0  # all negative
        out = graph_into(3, 0).in_edge_max(row)
        assert np.array_equal(out[0], row[0])
        assert np.array_equal(out[1:], np.zeros((2, 5)))

    def test_componentwise_maximum(self):
        values = np.array([[9.0, 9.0, 9.0], [1.0, -2.0, 5.0], [0.0, 7.0, 4.0]])
        out = graph_into(2, 0, 1, 1).in_edge_max(values)
        assert out[1].tolist() == [1.0, 7.0, 5.0]
        assert out[0].tolist() == [9.0, 9.0, 9.0]

    def test_scalar_rows(self):
        out = graph_into(4, 1, 1, 3, 3).in_edge_max([3.0, 1.0, 2.0, np.inf])
        assert out.tolist() == [0.0, 3.0, 0.0, np.inf]

    def test_one_row_per_pair(self):
        with pytest.raises(ShapeError):
            graph_into(2, 0).in_edge_max([1.0, 2.0])


class TestSequentialNms:
    def test_disjoint_all_kept(self, frame):
        cs = vertical_set(frame, [100.0, 400.0, 700.0], [0.9, 0.8, 0.7])
        sel = sequential_nms(cs, iou_distance(15.0), 0.5, 0.3)
        assert sel.tolist() == [0, 1, 2]

    def test_exact_duplicates_keep_one(self, frame):
        cs = vertical_set(frame, [100.0, 100.0, 100.0], [0.7, 0.9, 0.8])
        sel = sequential_nms(cs, iou_distance(15.0), 0.5, 0.3)
        assert sel.tolist() == [1]

    def test_prefilter_by_score(self, frame):
        cs = vertical_set(frame, [100.0, 400.0], [0.9, 0.1])
        sel = sequential_nms(cs, iou_distance(15.0), 0.5, 0.3)
        assert sel.tolist() == [0]

    def test_empty_set(self, frame):
        cs = vertical_set(frame, np.empty((0,)), np.empty((0,)))
        assert sequential_nms(cs, iou_distance(15.0), 0.5, 0.3).size == 0


class TestDistanceShape:
    """Both NMS selectors check ``distance(cands)`` once; sequential NMS used to
    select from a too-large matrix and raise IndexError on a thin or flat one."""

    K = 26

    @pytest.mark.parametrize("shape", [(K + 5, K + 5), (K, 1), (K * K,), (K, K + 1), ()],
                             ids=["too-large", "one-column", "flat", "non-square", "scalar"])
    @pytest.mark.parametrize("select", [
        lambda cs, dist: sequential_nms(cs, dist, 0.5, 0.3),
        lambda cs, dist: fast_nms_geometric(cs, WIDE_OPEN, dist),
    ], ids=["sequential", "fast"])
    def test_wrong_shape_rejected(self, frame, shape, select):
        rng = np.random.default_rng(21)
        cs = vertical_set(frame, rng.uniform(50, 750, self.K), rng.uniform(0.35, 1.0, self.K))
        d = rng.uniform(0.0, 2.0, shape)
        with pytest.raises(ShapeError, match=rf"\({self.K}, {self.K}\)"):
            select(cs, lambda _: d)


class TestDualConfidence:
    def test_published_threshold_example(self, frame):
        cs = vertical_set(frame, [100.0, 400.0], [0.9, 0.9],
                          scores_o2o=np.array([0.9, 0.1]))
        sel = dual_confidence_select(cs, tau_o2o=0.46, tau_o2m=0.48)
        assert sel.tolist() == [0]

    def test_all_below_thresholds(self, frame):
        cs = vertical_set(frame, [100.0, 400.0], [0.3, 0.3],
                          scores_o2o=np.array([0.3, 0.3]))
        assert dual_confidence_select(cs, 0.46, 0.48).size == 0

    def test_boundary_is_strict(self, frame):
        cs = vertical_set(frame, [100.0], [0.9], scores_o2o=np.array([0.46]))
        assert dual_confidence_select(cs, 0.46, 0.48).size == 0

    def test_missing_scores(self, frame):
        cs = vertical_set(frame, [100.0], [0.9])
        with pytest.raises(MissingO2OScores):
            dual_confidence_select(cs, 0.46, 0.48)

    def test_monotone_in_thresholds(self, frame):
        rng = np.random.default_rng(6)
        k = 30
        cs = vertical_set(frame, rng.uniform(50, 750, k), rng.uniform(0, 1, k),
                          scores_o2o=rng.uniform(0, 1, k))
        prev = None
        for tau in np.linspace(0.05, 0.95, 10):
            sel = set(dual_confidence_select(cs, tau, 0.3).tolist())
            if prev is not None:
                assert sel <= prev
            prev = sel


class TestThresholdValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SuppressionThresholds(tau_theta=0.0, lambda_g=1.0, tau_d=0.5)

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError):
            SuppressionThresholds(0.1, 1.0, 0.5, tau_o2m=1.5)

    @pytest.mark.parametrize("field", ["tau_theta", "lambda_g", "tau_d"])
    def test_rejects_nan(self, field):
        values = {"tau_theta": 0.1, "lambda_g": 1.0, "tau_d": 0.5, field: float("nan")}
        with pytest.raises(ValueError):
            SuppressionThresholds(**values)

    def test_infinite_gates_allowed(self):
        t = SuppressionThresholds(tau_theta=float("inf"), lambda_g=float("inf"), tau_d=0.5)
        assert t.tau_theta == t.lambda_g == float("inf")


def set_arrays(frame):
    """Keyword arguments of a valid three-candidate set, as fresh writable arrays."""
    xs = np.tile(np.array([[100.0], [300.0], [500.0]]), (1, frame.n_rows))
    return dict(
        thetas=np.zeros(3), radii=xs[:, 0].copy(), anchor_xs=xs.copy(), lane_xs=xs.copy(),
        valid=np.tile([0, frame.n_rows - 1], (3, 1)), scores_o2m=np.array([0.9, 0.8, 0.7]),
    )


def write_raw_candidates(path, frame, arrays):
    """Candidate file written straight from arrays, bypassing CandidateSet."""
    entries = [
        {"theta": t, "radius": r, "anchor_xs": a, "lane_xs": x, "valid": v,
         "score_o2m": s, "score_o2o": None}
        for t, r, a, x, v, s in zip(*(arrays[k].tolist() for k in (
            "thetas", "radii", "anchor_xs", "lane_xs", "valid", "scores_o2m")))
    ]
    blob = {"version": 1, "frame": {"w": frame.width, "h": frame.height, "n_rows": frame.n_rows},
            "pole": {"x": 400.0, "y": 192.0}, "candidates": entries, "meta": {}}
    path.write_text(json.dumps(blob))


# Inputs that both NMS paths used to accept silently, returning a selection.
CONFIRMED_BAD = {
    "nan-score": ("scores_o2m", (1,), np.nan),
    "nan-lane-x-in-valid-rows": ("lane_xs", (1, 3), np.nan),
    "valid-range-outside-frame": ("valid", (1,), [5, 99]),
}


class TestCandidateSetValidation:
    @pytest.mark.parametrize("field, where, value", CONFIRMED_BAD.values(), ids=CONFIRMED_BAD)
    def test_rejects_confirmed_bad_inputs(self, frame, tmp_path, field, where, value):
        arrays = set_arrays(frame)
        arrays[field][where] = value
        with pytest.raises(InvalidInput):
            CandidateSet(frame=frame, **arrays)
        path = tmp_path / "cands.json"
        write_raw_candidates(path, frame, arrays)
        with pytest.raises(ParseError, match="cands.json"):
            read_candidates(path)

    @pytest.mark.parametrize("field, value", [
        ("thetas", np.inf), ("radii", np.nan), ("scores_o2m", 1.5),
        ("anchor_xs", np.inf), ("anchor_xs", np.nan),
    ])
    def test_rejects_bad_anchor_params_and_scores(self, frame, field, value):
        arrays = set_arrays(frame)
        arrays[field][0] = value
        with pytest.raises(InvalidInput):
            CandidateSet(frame=frame, **arrays)

    def test_rejects_single_row_range(self, frame):
        arrays = set_arrays(frame)
        arrays["valid"][2] = [4, 4]
        with pytest.raises(InvalidInput):
            CandidateSet(frame=frame, **arrays)

    def test_rejects_nan_o2o_scores(self, frame):
        cs = CandidateSet(frame=frame, **set_arrays(frame))
        with pytest.raises(InvalidInput):
            cs.with_o2o([0.5, np.nan, 0.5])

    def test_nan_lane_x_outside_valid_rows_allowed(self, frame):
        arrays = set_arrays(frame)
        arrays["valid"][0] = [2, 10]
        arrays["lane_xs"][0, 20:] = np.nan
        assert len(CandidateSet(frame=frame, **arrays)) == 3

    def test_read_rejects_non_finite_pole(self, frame, tmp_path):
        path = tmp_path / "cands.json"
        write_raw_candidates(path, frame, set_arrays(frame))
        blob = json.loads(path.read_text())
        blob["pole"]["x"] = float("nan")
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="pole"):
            read_candidates(path)

    def test_arrays_are_read_only_but_callers_are_not(self, frame):
        arrays = set_arrays(frame)
        cs = CandidateSet(frame=frame, **arrays)
        scored = cs.with_o2o([0.1, 0.2, 0.3])
        for arr in (cs.thetas, cs.radii, cs.anchor_xs, cs.lane_xs, cs.valid, cs.scores_o2m,
                    scored.scores_o2o):
            assert not arr.flags.writeable
        for arr in arrays.values():
            assert arr.flags.writeable
        with pytest.raises(ValueError):
            cs.lane_xs[0, 0] = 1.0
