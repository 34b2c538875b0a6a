"""Integration tests for the core framework: inspector, executor, HMatrix,
and the inspection-reuse path (Section 5 of the paper)."""

import numpy as np
import pytest

from repro import (
    Executor,
    Inspector,
    ProcessEngine,
    get_kernel,
    inspector,
    inspector_p1,
    inspector_p2,
    matmul,
    relative_error,
)
from repro.core.evaluation import evaluate_reference


class TestInspectorExecutor:
    def test_end_to_end_accuracy(self, points_2d, gaussian_kernel):
        H = inspector(points_2d, kernel=gaussian_kernel, leaf_size=32,
                      bacc=1e-7, seed=0)
        rng = np.random.default_rng(0)
        W = rng.random((600, 8))
        Y = matmul(H, W)
        exact = gaussian_kernel.matrix(points_2d) @ W
        assert relative_error(Y, exact) < 1e-4

    def test_matmul_operator(self, hmatrix_2d):
        rng = np.random.default_rng(1)
        W = rng.random((hmatrix_2d.dim, 3))
        np.testing.assert_allclose(hmatrix_2d @ W, hmatrix_2d.matmul(W))

    def test_original_order_permutation_correct(self, hmatrix_2d, points_2d,
                                                gaussian_kernel):
        """Row i of Y must correspond to input point i, not tree position."""
        rng = np.random.default_rng(2)
        W = rng.random((600, 2))
        Y = hmatrix_2d.matmul(W, order="original")
        exact = gaussian_kernel.matrix(points_2d) @ W
        # Errors should be uniformly small — a permutation bug would make
        # rows wildly wrong while the norm may stay moderate.
        row_err = np.abs(Y - exact).max(axis=1)
        assert row_err.max() < 1e-3

    def test_tree_order_skips_permutation(self, hmatrix_2d):
        """The evaluator works in tree order: fed W's rows permuted, it
        returns the user-order product's rows permuted the same way."""
        rng = np.random.default_rng(3)
        W = rng.random((hmatrix_2d.dim, 2))
        perm = hmatrix_2d.tree.perm
        y_orig = hmatrix_2d.matmul(W, order="original")
        y_tree = hmatrix_2d.evaluator(W[perm])
        np.testing.assert_array_equal(y_orig[perm], y_tree)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["batched", "original"])
    def test_non_finite_w_rejected(self, hmatrix_2d, bad, order):
        W = np.ones((hmatrix_2d.dim, 2))
        W[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            hmatrix_2d.matmul(W, order=order)
        with pytest.raises(ValueError, match="finite"):
            hmatrix_2d.matmul(W[:, 1], order=order)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_w_rejected_by_process_engine(self, hmatrix_2d, bad):
        W = np.ones((hmatrix_2d.dim, 2))
        W[5, 1] = bad
        with ProcessEngine(hmatrix_2d, num_workers=0) as eng:
            with pytest.raises(ValueError, match="finite"):
                eng.matmul(W)
            assert eng.calls == 0

    def test_invalid_order(self, hmatrix_2d):
        with pytest.raises(ValueError, match="order"):
            hmatrix_2d.matmul(np.zeros((hmatrix_2d.dim, 1)), order="bfs")

    def test_matvec(self, hmatrix_2d):
        rng = np.random.default_rng(4)
        w = rng.random(hmatrix_2d.dim)
        y = hmatrix_2d.matmul(w)
        assert y.shape == (hmatrix_2d.dim,)

    def test_executor_pool_agrees(self, hmatrix_2d):
        rng = np.random.default_rng(5)
        W = rng.random((hmatrix_2d.dim, 4))
        serial = matmul(hmatrix_2d, W)
        with Executor(num_threads=4) as ex:
            threaded = ex.matmul(hmatrix_2d, W)
        np.testing.assert_allclose(threaded, serial, atol=1e-12)

    def test_executor_invalid_threads(self):
        with pytest.raises(ValueError):
            Executor(num_threads=0)

    def test_summary_fields(self, hmatrix_2d):
        s = hmatrix_2d.summary()
        assert s["N"] == 600
        assert s["structure"] == "h2-geometric"
        assert s["mean_srank"] > 0
        assert 0 < s["memory_mb"] < 100

    def test_shape_and_dim(self, hmatrix_2d):
        assert hmatrix_2d.shape == (600, 600)
        assert hmatrix_2d.dim == 600

    def test_generated_evaluator_agrees_with_reference(self, hmatrix_2d):
        rng = np.random.default_rng(6)
        W = rng.random((hmatrix_2d.dim, 3))
        Wt = W[hmatrix_2d.tree.perm]
        np.testing.assert_allclose(
            hmatrix_2d.evaluator(Wt),
            evaluate_reference(hmatrix_2d.factors, Wt),
            atol=1e-10,
        )


class TestInspectionReuse:
    """Section 5: inspector_p1 reused across kernel/accuracy changes."""

    def test_p1_plus_p2_equals_full(self, points_2d, gaussian_kernel):
        insp = Inspector(leaf_size=32, bacc=1e-5, seed=0, p=4)
        full = insp.run(points_2d, gaussian_kernel)
        p1 = insp.run_p1(points_2d)
        split = insp.run_p2(p1, gaussian_kernel)
        rng = np.random.default_rng(0)
        W = rng.random((600, 3))
        np.testing.assert_allclose(full.matmul(W), split.matmul(W), atol=1e-10)

    def test_accuracy_change_reuses_p1(self, p1_2d, inspector_small,
                                       points_2d, gaussian_kernel):
        rng = np.random.default_rng(1)
        W = rng.random((600, 2))
        exact = gaussian_kernel.matrix(points_2d) @ W
        errs = []
        for bacc in (1e-2, 1e-4, 1e-7):
            H = inspector_small.run_p2(p1_2d, gaussian_kernel, bacc=bacc)
            errs.append(relative_error(H.matmul(W), exact))
        assert errs[-1] < errs[0]  # tighter bacc -> better overall accuracy

    def test_kernel_change_reuses_p1(self, p1_2d, inspector_small, points_2d):
        rng = np.random.default_rng(2)
        W = rng.random((600, 2))
        for name, params in [("gaussian", {"bandwidth": 0.5}),
                             ("laplace", {"bandwidth": 0.7}),
                             ("matern32", {"bandwidth": 0.6})]:
            k = get_kernel(name, **params)
            H = inspector_small.run_p2(p1_2d, k)
            exact = k.matrix(points_2d) @ W
            err = relative_error(H.matmul(W), exact)
            assert err < 1e-2, f"{name}: {err}"

    def test_p1_is_kernel_independent(self, p1_2d):
        """p1 artifacts must not encode anything about kernel or bacc."""
        assert not hasattr(p1_2d, "factors")
        assert p1_2d.plan is not None
        assert p1_2d.near_blockset.num_interactions() == p1_2d.htree.num_near()

    def test_p2_timings_exclude_p1_modules(self, p1_2d, inspector_small,
                                           gaussian_kernel):
        H = inspector_small.run_p2(p1_2d, gaussian_kernel)
        t2 = H.metadata["timings_p2"]
        assert set(t2) == {"low_rank_approximation", "coarsening",
                           "data_layout", "code_generation"}
        t1 = H.metadata["timings_p1"]
        assert set(t1) == {"tree_construction", "interaction_computation",
                           "sampling", "blocking"}

    def test_functional_api(self, points_2d, gaussian_kernel):
        p1 = inspector_p1(points_2d, leaf_size=32, seed=0)
        H = inspector_p2(p1, gaussian_kernel, bacc=1e-5, leaf_size=32, p=2)
        rng = np.random.default_rng(3)
        W = rng.random((600, 2))
        exact = gaussian_kernel.matrix(points_2d) @ W
        assert relative_error(H.matmul(W), exact) < 1e-2


class TestStructures:
    @pytest.mark.parametrize("structure", ["hss", "h2-geometric", "h2-b"])
    def test_each_structure_end_to_end(self, points_2d, gaussian_kernel,
                                       structure):
        H = inspector(points_2d, kernel=gaussian_kernel, structure=structure,
                      leaf_size=32, bacc=1e-6, seed=0)
        rng = np.random.default_rng(7)
        W = rng.random((600, 2))
        exact = gaussian_kernel.matrix(points_2d) @ W
        assert relative_error(H.matmul(W), exact) < 1e-3

    def test_hss_lowering_flags(self, points_2d, gaussian_kernel):
        H = inspector(points_2d, kernel=gaussian_kernel, structure="hss",
                      leaf_size=32, seed=0)
        low = H.summary()["lowering"]
        assert not low["block_near"] and not low["block_far"]
        assert low["coarsen"]

    def test_h2_lowering_flags(self, points_2d, gaussian_kernel):
        H = inspector(points_2d, kernel=gaussian_kernel,
                      structure="h2-geometric", tau=0.65,
                      leaf_size=32, seed=0)
        low = H.summary()["lowering"]
        assert low["block_near"]
        assert low["coarsen"]
