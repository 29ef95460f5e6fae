import numpy as np
import pytest

from polar_kit import (
    AssignmentResult,
    CostConfig,
    InfeasibleAssignment,
    InvalidInput,
    assign_labels,
    cost_matrix,
    hungarian_assign,
    simota_assign,
)
from oracles import brute_force_o2o


def clustered_instance(rng, g, per_gt=8, shared=2, background=6):
    """IoU/score layout shaped like real lane candidates.

    Each ground truth owns a candidate cluster with strong overlap; a few
    shared candidates overlap two ground truths (fork-style); background
    candidates barely overlap anything.
    """
    cols = []
    for q in range(g):
        block = np.full((g, per_gt), 0.0)
        block[q] = rng.uniform(0.5, 0.95, size=per_gt)
        noise_rows = [r for r in range(g) if r != q]
        if noise_rows:
            block[noise_rows] = rng.uniform(0.0, 0.2, size=(len(noise_rows), per_gt))
        cols.append(block)
    for _ in range(shared):
        if g >= 2:
            a, b = rng.choice(g, size=2, replace=False)
            col = rng.uniform(0.0, 0.15, size=(g, 1))
            col[a, 0] = rng.uniform(0.6, 0.95)
            col[b, 0] = rng.uniform(0.6, 0.95)
            cols.append(col)
    cols.append(rng.uniform(0.0, 0.1, size=(g, background)))
    ious = np.concatenate(cols, axis=1)
    scores = rng.uniform(0.2, 1.0, size=ious.shape[1])
    return scores, ious


class TestCostMatrix:
    def test_max_affinity(self):
        assert cost_matrix([1.0], [[1.0]], beta=6.0)[0, 0] == 1.0

    def test_zero_iou_annihilates(self):
        c = cost_matrix([0.9], [[0.0]], beta=6.0)
        assert c[0, 0] == 0.0

    def test_power_coefficient_value(self):
        # 0.5 * 0.8^6 = 0.131072
        c = cost_matrix([0.5], [[0.8]], beta=6.0)
        assert c[0, 0] == pytest.approx(0.131072)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInput):
            cost_matrix([-0.1], [[0.5]], beta=6.0)
        with pytest.raises(InvalidInput):
            cost_matrix([0.5], [[-0.2]], beta=6.0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(0)
        c = cost_matrix(rng.uniform(0, 1, 8), rng.uniform(0, 1, (3, 8)), beta=6.0)
        assert np.all((c >= 0) & (c <= 1))


class TestHungarian:
    def test_dominant_diagonal(self):
        pi = hungarian_assign([[0.9, 0.1], [0.1, 0.9]])
        assert pi.tolist() == [0, 1]

    def test_single_ground_truth_argmax(self):
        pi = hungarian_assign([[0.2, 0.9, 0.4, 0.4]])
        assert pi.tolist() == [1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = int(rng.integers(1, 6))
            k = int(rng.integers(g, 8))
            cost = rng.uniform(0, 1, size=(g, k))
            pi = hungarian_assign(cost)
            _, best = brute_force_o2o(cost)
            total = sum(cost[q, pi[q]] for q in range(g))
            assert total == pytest.approx(best, abs=1e-12)
            assert len(set(pi.tolist())) == g

    def test_beats_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = int(rng.integers(2, 6))
            k = int(rng.integers(g, 9))
            cost = rng.uniform(0, 1, size=(g, k))
            pi = hungarian_assign(cost)
            total = sum(cost[q, pi[q]] for q in range(g))
            taken, greedy_total = set(), 0.0
            for q in range(g):
                order = np.argsort(-cost[q])
                for p in order:
                    if int(p) not in taken:
                        taken.add(int(p))
                        greedy_total += cost[q, p]
                        break
            assert total >= greedy_total - 1e-12

    def test_infeasible(self):
        with pytest.raises(InfeasibleAssignment):
            hungarian_assign(np.zeros((3, 2)))


class TestSimota:
    CFG = CostConfig(beta=6.0, k_dynamic=4, topk_for_dynamic=10)

    def test_high_iou_caps_at_k_dynamic(self):
        ious = np.full((1, 10), 0.9)
        affinity = cost_matrix(np.full(10, 0.9), ious, beta=6.0)
        pairs = simota_assign(affinity, ious, self.CFG)
        assert len(pairs) == 4
        assert all(q == 0 for _, q in pairs)

    def test_zero_iou_clamps_to_one(self):
        ious = np.zeros((1, 5))
        affinity = np.array([[0.1, 0.5, 0.2, 0.4, 0.3]])
        pairs = simota_assign(affinity, ious, self.CFG)
        assert pairs == ((1, 0),)

    def test_conflict_highest_affinity_wins(self):
        # both ground truths want prediction 0; gt 1 wants it more
        ious = np.array([[0.9, 0.0, 0.0], [0.9, 0.0, 0.0]])
        affinity = np.array([[0.5, 0.1, 0.0], [0.8, 0.0, 0.2]])
        pairs = simota_assign(affinity, ious, self.CFG)
        assert (0, 1) in pairs
        assert all(not (p == 0 and q == 0) for p, q in pairs)

    def test_no_double_assignment_and_caps(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = int(rng.integers(1, 5))
            scores, ious = clustered_instance(rng, g)
            affinity = cost_matrix(scores, ious, beta=6.0)
            pairs = simota_assign(affinity, ious, self.CFG)
            preds = [p for p, _ in pairs]
            assert len(preds) == len(set(preds))
            per_gt = np.bincount([q for _, q in pairs], minlength=g)
            assert np.all(per_gt >= 1)
            assert np.all(per_gt <= self.CFG.k_dynamic)

    def test_scale_covariance_of_selection(self):
        rng = np.random.default_rng(4)
        scores, ious = clustered_instance(rng, 3)
        a1 = cost_matrix(scores, ious, beta=6.0)
        pairs1 = simota_assign(a1, ious, self.CFG)
        pairs2 = simota_assign(a1 * 0.25, ious, self.CFG)  # positive scaling
        assert pairs1 == pairs2
        pi1 = hungarian_assign(a1)
        pi2 = hungarian_assign(a1 * 0.25)
        assert pi1.tolist() == pi2.tolist()


class TestAssignLabels:
    def test_bundle_and_negatives(self):
        rng = np.random.default_rng(5)
        scores, ious = clustered_instance(rng, 3)
        o2o_scores = rng.uniform(0, 1, size=scores.size)
        res = assign_labels(o2o_scores, scores, ious, CostConfig())
        assert res.o2o_map.size == 3
        assert len(set(res.o2o_map.tolist())) == 3
        assert set(res.o2o_negatives.tolist()) == set(range(scores.size)) - set(res.o2o_map.tolist())
        o2m_pos = {p for p, _ in res.o2m_pairs}
        assert set(res.o2m_negatives.tolist()) == set(range(scores.size)) - o2m_pos

    def test_result_validates_injectivity(self):
        with pytest.raises(InvalidInput):
            AssignmentResult(o2o_map=np.array([1, 1]), o2m_pairs=(), n_predictions=4, n_gts=2)
        with pytest.raises(InvalidInput):
            AssignmentResult(o2o_map=np.array([0, 1]), o2m_pairs=((2, 0), (2, 1)),
                             n_predictions=4, n_gts=2)
