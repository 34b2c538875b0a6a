"""Unit tests for the kernel functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import inspector
from repro.api.policy import ExecutionPolicy
from repro.kernels import (
    GaussianKernel,
    InverseDistanceKernel,
    LaplaceKernel,
    Matern32Kernel,
    PolynomialKernel,
    get_kernel,
    pairwise_sq_distances,
)
from repro.sampling.neighbors import exact_knn


def finite_points(n, d):
    return arrays(
        np.float64, (n, d),
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )


class TestPairwiseDistances:
    def test_matches_naive(self, rng):
        X = rng.random((17, 3))
        Y = rng.random((9, 3))
        d2 = pairwise_sq_distances(X, Y)
        naive = np.array([[np.sum((x - y) ** 2) for y in Y] for x in X])
        np.testing.assert_allclose(d2, naive, atol=1e-12)

    def test_self_distance_zero(self, rng):
        X = rng.random((10, 4))
        d2 = pairwise_sq_distances(X, X)
        assert np.allclose(np.diag(d2), 0.0, atol=1e-10)

    def test_never_negative_despite_roundoff(self, rng):
        X = 1e8 + rng.random((50, 2))  # large offsets provoke cancellation
        d2 = pairwise_sq_distances(X, X)
        assert (d2 >= 0).all()

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="incompatible"):
            pairwise_sq_distances(rng.random((4, 2)), rng.random((4, 3)))

    @given(X=finite_points(6, 2), Y=finite_points(5, 2))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_property(self, X, Y):
        d_xy = pairwise_sq_distances(X, Y)
        d_yx = pairwise_sq_distances(Y, X)
        np.testing.assert_allclose(d_xy, d_yx.T, atol=1e-9)


class TestTranslationStability:
    """Distances do not depend on where the points sit; neither may the
    computed ones. A 2-d set of spread 20 is moved up to 1e9 away from
    the origin (Unix timestamps as 1-d inputs sit near 1.7e9)."""

    OFFSETS = (0.0, 1e6, 1e7, 1e8, 1e9)

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(0).random((600, 2)) * 20

    def test_far_from_origin_matches_direct_differences(self, points):
        X = points[:40] + 1e9
        Y = points[40:70] + 1e9
        direct = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)
        np.testing.assert_allclose(pairwise_sq_distances(X, Y), direct,
                                   rtol=0, atol=1e-9)

    def test_h2_error_does_not_grow_with_offset(self, points):
        kernel = get_kernel("gaussian", bandwidth=5.0)
        W = np.random.default_rng(1).random((len(points), 4))
        diff = points[:, None, :] - points[None, :, :]
        ref = np.exp(-(diff ** 2).sum(axis=-1) / (2 * 5.0 ** 2)) @ W
        errors = []
        for offset in self.OFFSETS:
            H = inspector(points + offset, kernel=kernel,
                          structure="h2-geometric")
            Y = H.matmul(W)
            errors.append(np.linalg.norm(Y - ref) / np.linalg.norm(ref))
        assert all(err <= 2 * errors[0] for err in errors), errors

    def test_exact_knn_ignores_offset(self, points):
        want = exact_knn(points, 8)
        for offset in self.OFFSETS[1:]:
            np.testing.assert_array_equal(exact_knn(points + offset, 8),
                                          want)


class TestRegularizedProducts:
    """A regulariser lives on K's diagonal, so the H2 product must carry
    it in every near diagonal block D_ii (300 2-d points, bandwidth 0.5,
    bacc 1e-7: without it the error rose from 1e-9 to 3.2e-3)."""

    @pytest.fixture(scope="class")
    def products(self):
        points = np.random.default_rng(0).random((300, 2))
        W = np.random.default_rng(1).random((300, 4))
        out = {}
        for reg in (0.0, 0.5):
            kernel = GaussianKernel(bandwidth=0.5, regularization=reg)
            H = inspector(points, kernel=kernel, structure="h2-geometric",
                          leaf_size=32, bacc=1e-7)
            out[reg] = (H, kernel.matrix(points) @ W)
        return W, out

    @pytest.mark.parametrize("engine", ["batched", "original", "process"])
    def test_regularized_error_matches_unregularized(self, products, engine):
        policy = {"batched": ExecutionPolicy(order="batched"),
                  "original": ExecutionPolicy(order="original"),
                  "process": ExecutionPolicy(backend="process",
                                             num_workers=2)}[engine]
        W, by_reg = products
        errors = {}
        for reg, (H, ref) in by_reg.items():
            Y = H.matmul(W, policy=policy)
            errors[reg] = np.linalg.norm(Y - ref) / np.linalg.norm(ref)
        assert errors[0.0] < 1e-7
        assert errors[0.5] <= 2 * errors[0.0], errors

    def test_diagonal_shift(self):
        assert GaussianKernel(regularization=0.5).diagonal_shift == 0.5
        for name in ("gaussian", "laplace", "matern32", "inverse_distance",
                     "polynomial"):
            assert get_kernel(name).diagonal_shift == 0.0


class TestGaussian:
    def test_diagonal_is_one(self, rng):
        X = rng.random((20, 3))
        K = GaussianKernel(bandwidth=2.0).matrix(X)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_symmetric(self, rng):
        X = rng.random((25, 2))
        K = GaussianKernel(bandwidth=1.0).matrix(X)
        np.testing.assert_allclose(K, K.T)

    def test_values_in_unit_interval(self, rng):
        K = GaussianKernel(bandwidth=0.7).matrix(rng.random((30, 5)))
        assert (K > 0).all() and (K <= 1.0 + 1e-15).all()

    def test_positive_definite_with_regularization(self, rng):
        X = rng.random((40, 2))
        K = GaussianKernel(bandwidth=0.5, regularization=1e-8).matrix(X)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > 0

    def test_bandwidth_controls_decay(self):
        X = np.array([[0.0], [1.0]])
        wide = GaussianKernel(bandwidth=10.0).matrix(X)[0, 1]
        narrow = GaussianKernel(bandwidth=0.1).matrix(X)[0, 1]
        assert wide > narrow

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            GaussianKernel(bandwidth=0.0)
        with pytest.raises(ValueError):
            GaussianKernel(bandwidth=-1.0)

    def test_invalid_regularization(self):
        with pytest.raises(ValueError):
            GaussianKernel(regularization=-1e-3)


class TestInverseDistance:
    def test_matches_formula(self, rng):
        X = rng.random((10, 3))
        Y = rng.random((8, 3)) + 5.0
        K = InverseDistanceKernel().block(X, Y)
        expect = 1.0 / np.sqrt(((X[:, None] - Y[None]) ** 2).sum(-1))
        np.testing.assert_allclose(K, expect, rtol=1e-10)

    def test_coincident_points_use_diagonal_value(self):
        X = np.zeros((3, 2))
        K = InverseDistanceKernel(diagonal_value=7.5).block(X, X)
        np.testing.assert_allclose(K, 7.5)

    def test_decreasing_with_distance(self):
        X = np.array([[0.0, 0.0]])
        Y = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        K = InverseDistanceKernel().block(X, Y)[0]
        assert K[0] > K[1] > K[2]


class TestLaplaceMaternPolynomial:
    def test_laplace_diagonal_one(self, rng):
        K = LaplaceKernel(bandwidth=1.5).matrix(rng.random((15, 2)))
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_laplace_slower_decay_than_gaussian(self):
        X = np.array([[0.0], [3.0]])
        lap = LaplaceKernel(bandwidth=1.0).matrix(X)[0, 1]
        gau = GaussianKernel(bandwidth=1.0).matrix(X)[0, 1]
        assert lap > gau

    def test_matern_diagonal_one(self, rng):
        K = Matern32Kernel(bandwidth=1.0).matrix(rng.random((12, 3)))
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_matern_between_laplace_and_gaussian(self):
        X = np.array([[0.0], [2.0]])
        lap = LaplaceKernel(1.0).matrix(X)[0, 1]
        mat = Matern32Kernel(1.0).matrix(X)[0, 1]
        gau = GaussianKernel(1.0).matrix(X)[0, 1]
        assert gau < mat < lap or gau < mat  # matern-3/2 smoother than laplace

    def test_polynomial_matches_formula(self, rng):
        X, Y = rng.random((6, 4)), rng.random((5, 4))
        K = PolynomialKernel(degree=3, offset=0.5).block(X, Y)
        np.testing.assert_allclose(K, (X @ Y.T + 0.5) ** 3, rtol=1e-12)

    def test_polynomial_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)


class TestRegistry:
    @pytest.mark.parametrize("name", [
        "gaussian", "laplace", "inverse_distance", "matern32", "polynomial",
    ])
    def test_lookup(self, name):
        k = get_kernel(name)
        assert k.name == name

    def test_case_insensitive(self):
        assert get_kernel("GAUSSIAN").name == "gaussian"

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("nope")

    def test_params_passed_through(self):
        k = get_kernel("gaussian", bandwidth=3.0)
        assert k.bandwidth == 3.0

    def test_identity_equality(self):
        assert (get_kernel("gaussian", bandwidth=2.0)
                == get_kernel("gaussian", bandwidth=2.0))
        assert (get_kernel("gaussian", bandwidth=2.0)
                != get_kernel("gaussian", bandwidth=3.0))
        assert get_kernel("gaussian") != get_kernel("laplace")

    def test_kernels_hashable(self):
        s = {get_kernel("gaussian"), get_kernel("gaussian"), get_kernel("laplace")}
        assert len(s) == 2
