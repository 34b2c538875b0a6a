"""Integration tests for skeletonization and modular compression."""

import numpy as np
import pytest

from repro.compression import compress, skeletonize_tree
from repro.core.accuracy import overall_accuracy
from repro.core.evaluation import evaluate_reference
from repro.htree import build_htree
from repro.kernels import GaussianKernel, LaplaceKernel
from repro.sampling import build_sampling_plan
from repro.tree import build_cluster_tree


@pytest.fixture(scope="module")
def pipeline_2d(points_2d):
    tree = build_cluster_tree(points_2d, leaf_size=32)
    htree = build_htree(tree, "h2-geometric", tau=0.65)
    plan = build_sampling_plan(tree, k=16, seed=0)
    return tree, htree, plan


class TestSkeletonization:
    def test_factor_shapes_consistent(self, pipeline_2d, gaussian_kernel):
        _tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        f.validate()

    def test_sranks_bounded_by_node_size(self, pipeline_2d, gaussian_kernel):
        tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        for v in range(tree.num_nodes):
            if f.srank(v) and tree.is_leaf(v):
                assert f.srank(v) <= tree.node_size(v)

    def test_max_rank_respected(self, pipeline_2d, gaussian_kernel):
        _tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-12, max_rank=5)
        assert f.sranks.max() <= 5

    def test_skeleton_points_subset_of_candidates(self, pipeline_2d, gaussian_kernel):
        tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        for v, sk in f.skeleton.items():
            if tree.is_leaf(v):
                own = set(tree.node_point_indices(v).tolist())
                assert set(sk.tolist()) <= own

    def test_nested_skeletons(self, pipeline_2d, gaussian_kernel):
        """Interior skeleton points come from children's skeletons (H2)."""
        tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        for v, sk in f.skeleton.items():
            if tree.is_leaf(v):
                continue
            lc, rc = int(tree.lchild[v]), int(tree.rchild[v])
            union = set(f.skeleton[lc].tolist()) | set(f.skeleton[rc].tolist())
            assert set(sk.tolist()) <= union

    def test_near_blocks_exact(self, pipeline_2d, gaussian_kernel):
        tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        (i, j) = next(iter(f.near_blocks))
        expect = gaussian_kernel.block(tree.node_points(i), tree.node_points(j))
        np.testing.assert_allclose(f.near_blocks[(i, j)], expect)

    def test_tighter_bacc_means_higher_rank(self, pipeline_2d, gaussian_kernel):
        _tree, htree, plan = pipeline_2d
        loose = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-2)
        tight = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-8)
        assert tight.sranks.sum() >= loose.sranks.sum()

    def test_root_has_no_basis(self, pipeline_2d, gaussian_kernel):
        _tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, gaussian_kernel, plan, bacc=1e-5)
        assert f.srank(0) == 0

    def test_invalid_bacc(self, pipeline_2d, gaussian_kernel):
        _tree, htree, plan = pipeline_2d
        with pytest.raises(ValueError):
            skeletonize_tree(htree, gaussian_kernel, plan, bacc=0.0)


class TestRowNodeKernelCalls:
    """Near and coupling blocks come from one kernel evaluation per row
    node; each block is a column slice of its row's block."""

    @pytest.fixture
    def recorded(self, pipeline_2d):
        calls = []

        class Recording(GaussianKernel):
            def block(self, X, Y):
                out = super().block(X, Y)
                calls.append(out)
                return out

        _tree, htree, plan = pipeline_2d
        f = skeletonize_tree(htree, Recording(bandwidth=0.5), plan, bacc=1e-5)
        return htree, f, calls

    def test_one_call_per_row_node(self, recorded):
        htree, f, calls = recorded
        ids = len(set(htree.nodes_with_basis()) - {0})
        rows = sum(1 for p in htree.near.values() if p)
        rows += sum(1 for p in htree.far.values() if p)
        assert len(calls) == ids + rows
        assert len(calls) < len(f.near_blocks) + len(f.coupling)
        block_entries = sum(a.size for blocks in (f.near_blocks, f.coupling)
                            for a in blocks.values())
        assert sum(c.size for c in calls[ids:]) == block_entries

    @pytest.mark.parametrize("which", ["near_blocks", "coupling"])
    def test_blocks_are_column_slices_of_their_row(self, recorded, which):
        htree, f, calls = recorded
        row_of = {}
        for (i, _j), block in getattr(f, which).items():
            row = row_of.setdefault(i, block.base)
            assert block.base is row and any(row is c for c in calls)
            assert np.shares_memory(block, row)
        partners = htree.near if which == "near_blocks" else htree.far
        for i, row in row_of.items():
            widths = [getattr(f, which)[(i, j)].shape[1] for j in partners[i]]
            assert row.shape[1] == sum(widths)
        assert len({id(r) for r in row_of.values()}) == len(row_of)


class TestEvaluationAccuracy:
    @pytest.mark.parametrize("structure,params", [
        ("h2-geometric", {"tau": 0.65}),
        ("hss", {}),
        ("h2-b", {"budget": 0.05}),
    ])
    def test_accuracy_meets_tolerance(self, points_2d, gaussian_kernel,
                                      structure, params):
        res = compress(points_2d, gaussian_kernel, structure=structure,
                       bacc=1e-7, leaf_size=32, seed=0, **params)
        rng = np.random.default_rng(5)
        W = rng.random((len(points_2d), 4))
        Wt = W[res.tree.perm]
        eps = overall_accuracy(res.factors, gaussian_kernel, Wt)
        assert eps < 1e-4, f"{structure}: eps_f={eps}"

    def test_accuracy_improves_with_bacc(self, points_2d, gaussian_kernel):
        errs = []
        for bacc in (1e-2, 1e-4, 1e-7):
            res = compress(points_2d, gaussian_kernel, structure="hss",
                           bacc=bacc, leaf_size=32, seed=0)
            rng = np.random.default_rng(5)
            Wt = rng.random((len(points_2d), 2))[res.tree.perm]
            errs.append(overall_accuracy(res.factors, gaussian_kernel, Wt))
        assert errs[2] < errs[0]

    def test_matvec_matches_matmul_columns(self, points_2d, gaussian_kernel):
        res = compress(points_2d, gaussian_kernel, structure="h2-geometric",
                       bacc=1e-6, leaf_size=32, seed=0)
        rng = np.random.default_rng(6)
        W = rng.random((len(points_2d), 3))
        Y = evaluate_reference(res.factors, W)
        for c in range(3):
            yc = evaluate_reference(res.factors, W[:, c])
            np.testing.assert_allclose(Y[:, c], yc[:, 0], atol=1e-12)

    def test_laplace_kernel_works(self, points_2d):
        k = LaplaceKernel(bandwidth=0.7)
        res = compress(points_2d, k, structure="hss", bacc=1e-7,
                       leaf_size=32, seed=0)
        rng = np.random.default_rng(5)
        Wt = rng.random((len(points_2d), 2))[res.tree.perm]
        assert overall_accuracy(res.factors, k, Wt) < 1e-3

    def test_high_dim_points(self, points_hd):
        k = GaussianKernel(bandwidth=5.0)
        res = compress(points_hd, k, structure="hss", bacc=1e-6,
                       leaf_size=32, seed=0)
        rng = np.random.default_rng(5)
        Wt = rng.random((len(points_hd), 2))[res.tree.perm]
        assert overall_accuracy(res.factors, k, Wt) < 1e-2


class TestModularCompression:
    def test_all_module_timings_recorded(self, points_2d, gaussian_kernel):
        res = compress(points_2d, gaussian_kernel, leaf_size=32, seed=0)
        assert set(res.timings) == {
            "tree_construction", "interaction_computation",
            "sampling", "low_rank_approximation",
        }

    def test_prebuilt_modules_reused(self, points_2d, gaussian_kernel):
        full = compress(points_2d, gaussian_kernel, leaf_size=32, seed=0)
        again = compress(points_2d, gaussian_kernel, leaf_size=32, seed=0,
                         tree=full.tree, htree=full.htree, plan=full.plan)
        assert again.tree is full.tree
        assert again.htree is full.htree
        assert again.plan is full.plan
        np.testing.assert_array_equal(again.sranks, full.sranks)

    def test_kernel_by_name(self, points_2d):
        res = compress(points_2d, "gaussian", leaf_size=32, seed=0)
        assert res.factors.sranks.max() > 0

    def test_compression_ratio_above_one_for_hss(self, rng):
        # Smooth kernel on 1k points: HSS must actually compress.
        pts = rng.random((1000, 2))
        k = GaussianKernel(bandwidth=2.0)
        res = compress(pts, k, structure="hss", bacc=1e-4,
                       leaf_size=64, seed=0)
        assert res.factors.compression_ratio() > 2.0

    def test_flop_count_below_dense(self, points_2d, gaussian_kernel):
        res = compress(points_2d, gaussian_kernel, structure="hss",
                       bacc=1e-4, leaf_size=32, seed=0)
        q = 16
        dense = 2 * len(points_2d) ** 2 * q
        assert res.factors.evaluation_flops(q) < dense
