"""Unit tests for the sampling module (kNN, rp-trees, importance, plans)."""

import numpy as np
import pytest

from repro.compression import skeletonize_tree
from repro.htree import build_htree
from repro.kernels.distance import pairwise_sq_distances
from repro.sampling import (
    build_sampling_plan,
    exact_knn,
    importance_sample,
    node_neighbor_lists,
    rptree_knn,
)
from repro.sampling.rptree import knn_recall
from repro.tree import build_cluster_tree


def _as_2d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts.reshape(len(pts), -1)


def brute_force_knn(points, k: int) -> np.ndarray:
    """O(N^2) oracle for ``exact_knn``: the k nearest other points from the
    full distance matrix, nearest first."""
    pts = _as_2d(points)
    d2 = pairwise_sq_distances(pts, pts)
    np.fill_diagonal(d2, np.inf)
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    order = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(part, order, axis=1)


def neighbour_distances(points, knn: np.ndarray) -> np.ndarray:
    """Distances from each point to the neighbours ``knn`` lists for it,
    from direct differences."""
    pts = _as_2d(points)
    return np.sqrt(((pts[knn] - pts[:, None, :]) ** 2).sum(axis=-1))


def assert_matches_oracle(points, k: int) -> np.ndarray:
    """``exact_knn`` returns k distinct other points per row, nearest
    first, at the oracle's distances (ties may pick other indices)."""
    knn = exact_knn(points, k)
    n = len(_as_2d(points))
    assert knn.shape == (n, k) and knn.dtype == np.intp
    assert (knn != np.arange(n)[:, None]).all()
    assert all(len(np.unique(row)) == k for row in knn)
    want = np.sort(neighbour_distances(points, brute_force_knn(points, k)),
                   axis=1)
    np.testing.assert_array_equal(neighbour_distances(points, knn), want)
    return knn


class TestExactKnn:
    def test_matches_bruteforce(self, rng):
        pts = rng.random((60, 3))
        knn = exact_knn(pts, k=5)
        for i in range(60):
            d = np.linalg.norm(pts - pts[i], axis=1)
            d[i] = np.inf
            expect = set(np.argsort(d)[:5].tolist())
            assert set(knn[i].tolist()) == expect

    def test_excludes_self(self, rng):
        pts = rng.random((40, 2))
        knn = exact_knn(pts, k=3)
        for i in range(40):
            assert i not in knn[i]

    def test_matches_oracle(self, rng):
        pts = rng.random((100, 2))
        np.testing.assert_array_equal(assert_matches_oracle(pts, 4),
                                      brute_force_knn(pts, 4))

    def test_k_bounds(self, rng):
        pts = rng.random((10, 2))
        with pytest.raises(ValueError):
            exact_knn(pts, k=0)
        with pytest.raises(ValueError):
            exact_knn(pts, k=10)

    def test_sorted_by_distance(self, rng):
        pts = rng.random((50, 2))
        knn = exact_knn(pts, k=6)
        for i in range(50):
            d = np.linalg.norm(pts[knn[i]] - pts[i], axis=1)
            assert (np.diff(d) >= -1e-12).all()


class TestExactKnnEdgeCases:
    """The k-d tree answer against the brute-force oracle on inputs where
    a position-based self drop or a tie-blind comparison would fail. Each
    test draws from its own generator, leaving the session ``rng`` stream
    of later tests as it was."""

    def test_coincident_points(self):
        pts = np.zeros((12, 2))
        knn = assert_matches_oracle(pts, 5)
        assert (neighbour_distances(pts, knn) == 0).all()

    def test_duplicated_points(self):
        base = np.random.default_rng(40).random((40, 3))
        pts = np.concatenate([base, base[:25], base[:10]])
        assert_matches_oracle(pts, 6)

    def test_more_copies_than_k(self):
        """Ten copies of one point and k = 3: self may be missing from the
        tree's k + 1 answers, and is still never returned."""
        spread = np.random.default_rng(10).random((30, 2))
        pts = np.concatenate([np.full((10, 2), 0.5), spread])
        knn = assert_matches_oracle(pts, 3)
        assert (knn[:10] < 10).all()

    @pytest.mark.parametrize("n", [2, 9])
    def test_n_is_k_plus_one(self, n):
        pts = np.random.default_rng(n).random((n, 2))
        knn = assert_matches_oracle(pts, n - 1)
        for i, row in enumerate(knn):
            assert sorted(row.tolist() + [i]) == list(range(n))

    def test_one_dimensional(self):
        line = np.random.default_rng(1).random(200)
        assert_matches_oracle(line, 7)
        assert_matches_oracle(line[:, None], 7)

    def test_clustered_54d(self):
        g = np.random.default_rng(54)
        centers = g.normal(scale=3.0, size=(6, 54))
        pts = centers[g.integers(0, 6, size=500)] + 0.2 * g.normal(size=(500, 54))
        assert_matches_oracle(pts, 16)


class TestRptreeKnn:
    def test_high_recall_on_clustered_data(self, points_hd):
        exact = exact_knn(points_hd, k=8)
        approx = rptree_knn(points_hd, k=8, n_trees=6, leaf_size=64, seed=0)
        assert knn_recall(approx, exact) > 0.6

    def test_more_trees_improve_recall(self, rng):
        pts = rng.random((400, 8))
        exact = exact_knn(pts, k=6)
        r1 = knn_recall(rptree_knn(pts, k=6, n_trees=1, seed=0), exact)
        r8 = knn_recall(rptree_knn(pts, k=6, n_trees=8, seed=0), exact)
        assert r8 >= r1

    def test_no_self_and_no_invalid(self, rng):
        pts = rng.random((200, 5))
        knn = rptree_knn(pts, k=4, seed=0)
        assert (knn >= 0).all() and (knn < 200).all()
        for i in range(200):
            assert i not in knn[i]

    def test_deterministic_given_seed(self, rng):
        pts = rng.random((150, 4))
        a = rptree_knn(pts, k=5, seed=42)
        b = rptree_knn(pts, k=5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_duplicate_points_handled(self):
        pts = np.ones((30, 3))
        knn = rptree_knn(pts, k=3, seed=0)
        assert knn.shape == (30, 3)
        assert (knn >= 0).all()


class TestNodeNeighborLists:
    def test_excludes_own_points(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        for v in range(tree.num_nodes):
            own = set(tree.node_point_indices(v).tolist())
            assert own.isdisjoint(lists[v].tolist())

    def test_root_list_empty(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        assert len(lists[0]) == 0  # all points belong to the root

    def test_candidates_are_members_neighbors(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        leaf = int(tree.leaves[0])
        all_nbrs = set(knn[tree.node_point_indices(leaf)].ravel().tolist())
        assert set(lists[leaf].tolist()) <= all_nbrs


class TestImportanceSample:
    def test_returns_all_when_small(self):
        cand = np.array([5, 3, 9])
        out = importance_sample(cand, None, 10, rng=0)
        np.testing.assert_array_equal(out, [3, 5, 9])

    def test_respects_size(self, rng):
        cand = np.arange(100)
        out = importance_sample(cand, None, 17, rng=0)
        assert len(out) == 17
        assert len(np.unique(out)) == 17

    def test_weight_bias(self):
        cand = np.arange(50)
        w = np.zeros(50)
        w[:5] = 1.0  # only the first five can be drawn
        out = importance_sample(cand, w, 5, rng=0)
        assert set(out.tolist()) == {0, 1, 2, 3, 4}

    def test_zero_weights_fall_back_to_uniform(self):
        out = importance_sample(np.arange(20), np.zeros(20), 6, rng=0)
        assert len(out) == 6

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            importance_sample(np.arange(5), np.array([-1, 1, 1, 1, 1.0]), 2)


class TestSamplingPlan:
    def test_plan_covers_all_nodes(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert set(plan.samples) == set(range(tree.num_nodes))

    def test_samples_outside_node(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        for v in range(tree.num_nodes):
            own = set(tree.node_point_indices(v).tolist())
            assert own.isdisjoint(plan.for_node(v).tolist())

    def test_root_has_no_samples(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert plan.num_samples(0) == 0

    def test_budget_respected(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, num_samples=20, seed=0)
        for v in range(1, tree.num_nodes):
            assert plan.num_samples(v) <= 20

    def test_kernel_independent(self, points_2d):
        """The plan must depend only on points/tree/seed (reuse guarantee)."""
        tree = build_cluster_tree(points_2d, leaf_size=32)
        p1 = build_sampling_plan(tree, k=8, seed=3)
        p2 = build_sampling_plan(tree, k=8, seed=3)
        for v in range(tree.num_nodes):
            np.testing.assert_array_equal(p1.for_node(v), p2.for_node(v))

    def test_rptree_path_used_for_large_n(self, rng):
        pts = rng.random((500, 6))
        tree = build_cluster_tree(pts, leaf_size=64, seed=0)
        plan = build_sampling_plan(tree, k=4, exact_threshold=100, seed=0)
        assert plan.method == "rptree"

    def test_stats_populated(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert plan.stats["knn_method"] == "exact"
        assert plan.stats["mean_samples"] > 0


class TestSetUpDoesNotMovePlans:
    """The k-d tree kNN and the one-call-per-row-node kernel blocks leave
    plans as the brute-force kNN and per-pair kernel blocks made them:
    equal samples, skeletons and sranks, blocks within 2 ulp."""

    @pytest.mark.parametrize("fixture", ["points_2d", "points_hd"])
    def test_against_per_pair_reference(self, request, monkeypatch,
                                        gaussian_kernel, fixture):
        points = request.getfixturevalue(fixture)
        tree = build_cluster_tree(points, leaf_size=32, seed=0)
        htree = build_htree(tree, "h2-geometric", tau=0.65)
        plan = build_sampling_plan(tree, k=16, seed=0)
        factors = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-6)
        with monkeypatch.context() as m:
            m.setattr("repro.sampling.plan.exact_knn", brute_force_knn)
            oracle_plan = build_sampling_plan(tree, k=16, seed=0)
        for v in oracle_plan.samples:
            np.testing.assert_array_equal(plan.for_node(v),
                                          oracle_plan.for_node(v))
        oracle = skeletonize_tree(htree, gaussian_kernel, oracle_plan,
                                  bacc=1e-6)
        np.testing.assert_array_equal(factors.sranks, oracle.sranks)
        assert factors.skeleton.keys() == oracle.skeleton.keys()
        for v, sk in oracle.skeleton.items():
            np.testing.assert_array_equal(factors.skeleton[v], sk)

        assert factors.near_blocks.keys() == set(htree.near_pairs())
        for i, j in htree.near_pairs():
            want = gaussian_kernel.block(tree.node_points(i),
                                         tree.node_points(j))
            np.testing.assert_array_max_ulp(factors.near_blocks[(i, j)],
                                            want, maxulp=2)
        assert factors.coupling.keys() == set(htree.far_pairs())
        sk, pts = factors.skeleton, tree.points
        for i, j in htree.far_pairs():
            want = gaussian_kernel.block(pts[sk[i]], pts[sk[j]])
            np.testing.assert_array_max_ulp(factors.coupling[(i, j)],
                                            want, maxulp=2)
