"""Tests for CG, kernel ridge regression, and spectral estimators."""

import numpy as np
import pytest

from repro.kernels import GaussianKernel
from repro.solvers import (
    KernelRidgeRegression,
    conjugate_gradient,
    estimate_trace,
    power_iteration,
)


def spd_matrix(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


class TestConjugateGradient:
    def test_solves_spd_system(self, rng):
        A = spd_matrix(rng, 30)
        x_true = rng.normal(size=30)
        res = conjugate_gradient(lambda v: A @ v, A @ x_true, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_multiple_rhs(self, rng):
        A = spd_matrix(rng, 25)
        X_true = rng.normal(size=(25, 4))
        res = conjugate_gradient(lambda V: A @ V, A @ X_true, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, X_true, atol=1e-7)

    def test_zero_rhs(self):
        res = conjugate_gradient(lambda v: v, np.zeros(10))
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.x, np.zeros(10))

    def test_residual_history_decreases_overall(self, rng):
        A = spd_matrix(rng, 40, cond=100.0)
        b = rng.normal(size=40)
        res = conjugate_gradient(lambda v: A @ v, b, tol=1e-10)
        assert res.residual_history[-1] < res.residual_history[0]

    def test_max_iter_respected(self, rng):
        A = spd_matrix(rng, 50, cond=1e6)
        b = rng.normal(size=50)
        res = conjugate_gradient(lambda v: A @ v, b, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_non_spd_detected(self, rng):
        A = -np.eye(10)
        res = conjugate_gradient(lambda v: A @ v, rng.normal(size=10))
        assert not res.converged

    def test_warm_start(self, rng):
        A = spd_matrix(rng, 20)
        x_true = rng.normal(size=20)
        b = A @ x_true
        cold = conjugate_gradient(lambda v: A @ v, b, tol=1e-10)
        warm = conjugate_gradient(lambda v: A @ v, b,
                                  x0=x_true + 1e-6, tol=1e-10)
        assert warm.iterations <= cold.iterations

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            conjugate_gradient(lambda v: v, np.ones(4), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(lambda v: v, np.ones(4), x0=np.ones(5))


class TestKernelRidgeRegression:
    def test_matches_dense_solution(self, rng):
        n = 400
        X = rng.random((n, 2))
        y = np.sin(4 * X[:, 0]) + 0.1 * rng.normal(size=n)
        kernel = GaussianKernel(bandwidth=0.5)
        lam = 1e-2

        model = KernelRidgeRegression(kernel=kernel, lam=lam,
                                      structure="h2-geometric", bacc=1e-9,
                                      leaf_size=32, cg_tol=1e-10).fit(X, y)
        K = kernel.matrix(X)
        alpha_dense = np.linalg.solve(K + lam * np.eye(n), y)
        rel = np.linalg.norm(model.alpha_ - alpha_dense) / np.linalg.norm(
            alpha_dense)
        assert rel < 1e-3

    def test_predict_on_training_points(self, rng):
        n = 300
        X = rng.random((n, 2))
        y = X[:, 0] ** 2
        model = KernelRidgeRegression(kernel=GaussianKernel(0.5), lam=1e-3,
                                      structure="h2-geometric",
                                      bacc=1e-8, leaf_size=32).fit(X, y)
        pred = model.predict(X)
        # Ridge smoothing: predictions close to targets, not exact.
        assert np.corrcoef(pred, y)[0, 1] > 0.99

    @pytest.mark.parametrize("regularization", [0.0, 0.5])
    def test_predict_never_adds_the_regulariser(self, regularization):
        """The regulariser is jitter on the training system: predicting on
        the array passed to fit and on a copy of it agree (they differed by
        up to 0.13 at regularization 0.5), and at regularization 0 the
        predictions are the exact kernel block's."""
        X = np.random.default_rng(21).random((300, 2))
        y = np.sin(4 * X[:, 0])
        kernel = GaussianKernel(0.5, regularization=regularization)
        model = KernelRidgeRegression(kernel=kernel, lam=1e-3,
                                      structure="h2-geometric",
                                      leaf_size=32).fit(X, y)
        same, copy = model.predict(X), model.predict(X.copy())
        np.testing.assert_allclose(same, copy, rtol=0, atol=1e-12)
        plain = GaussianKernel(0.5)
        np.testing.assert_allclose(
            same, plain.block(X, X) @ model.alpha_, rtol=0, atol=1e-12)
        if regularization == 0.0:
            np.testing.assert_array_equal(
                copy, kernel.block(X.copy(), X) @ model.alpha_)

    def test_generalization_on_new_points(self, rng):
        X = rng.random((500, 1))
        y = np.sin(6 * X[:, 0])
        model = KernelRidgeRegression(kernel=GaussianKernel(0.3), lam=1e-4,
                                      structure="hss", bacc=1e-8,
                                      leaf_size=32).fit(X, y)
        X_test = rng.random((50, 1))
        pred = model.predict(X_test)
        err = np.abs(pred - np.sin(6 * X_test[:, 0]))
        assert np.median(err) < 0.05

    def test_training_residual_small(self, rng):
        X = rng.random((300, 2))
        y = rng.normal(size=300)
        model = KernelRidgeRegression(kernel=GaussianKernel(0.5), lam=1e-1,
                                      bacc=1e-7, leaf_size=32).fit(X, y)
        assert model.training_residual(y) < 1e-5

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KernelRidgeRegression().predict(np.zeros((3, 2)))

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            KernelRidgeRegression(lam=0.0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            KernelRidgeRegression().fit(rng.random((10, 2)),
                                        rng.random(11))


class TestEstimators:
    def test_power_iteration_dominant_eig(self):
        # Own generator and a fixed spectrum: the dominant eigenvalue 50 is
        # separated from the next (25) by a factor of two, so the iteration
        # converges in a few dozen steps whatever the random basis.
        rng = np.random.default_rng(136)
        Q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        eigs = np.concatenate([np.linspace(1.0, 25.0, 39), [50.0]])
        A = (Q * eigs) @ Q.T
        lam, v = power_iteration(lambda x: A @ x, 40, tol=1e-10)
        assert lam == pytest.approx(50.0, rel=1e-8)
        np.testing.assert_allclose(A @ v, lam * v, atol=1e-3 * lam)

    def test_power_iteration_warns_when_max_iter_runs_out(self):
        A = np.diag([3.0, 2.0, 1.0])
        with pytest.warns(RuntimeWarning, match="did not converge"):
            lam, v = power_iteration(lambda x: A @ x, 3, max_iter=1)
        assert np.isfinite(lam) and np.linalg.norm(v) == pytest.approx(1.0)

    def test_power_iteration_zero_operator(self):
        lam, _v = power_iteration(lambda x: np.zeros_like(x), 10)
        assert lam == 0.0

    def test_trace_estimator_unbiased(self, rng):
        A = spd_matrix(rng, 60)
        est = estimate_trace(lambda Z: A @ Z, 60, num_probes=512, seed=0)
        assert est == pytest.approx(np.trace(A), rel=0.1)

    def test_trace_on_hmatrix(self, hmatrix_2d, points_2d, gaussian_kernel):
        est = estimate_trace(lambda Z: hmatrix_2d.matmul(Z),
                             hmatrix_2d.dim, num_probes=256, seed=1)
        exact = np.trace(gaussian_kernel.matrix(points_2d))
        assert est == pytest.approx(exact, rel=0.15)
