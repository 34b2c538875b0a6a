"""Unit and property tests for interpolative decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import interpolative_decomposition


def lowrank_matrix(rng, s, m, r, noise=0.0):
    A = rng.normal(size=(s, r)) @ rng.normal(size=(r, m))
    if noise:
        A += noise * rng.normal(size=(s, m))
    return A


class TestInterpolativeDecomposition:
    def test_exact_rank_recovery(self, rng):
        G = lowrank_matrix(rng, 40, 30, 5)
        d = interpolative_decomposition(G, bacc=1e-10)
        assert d.rank == 5
        np.testing.assert_allclose(d.reconstruct(G), G, atol=1e-8)

    def test_identity_on_skeleton_columns(self, rng):
        G = lowrank_matrix(rng, 30, 20, 4)
        d = interpolative_decomposition(G, bacc=1e-10)
        np.testing.assert_allclose(
            d.interp[:, d.skeleton], np.eye(d.rank), atol=1e-12
        )

    def test_bacc_controls_rank(self, rng):
        # Geometrically decaying singular values: looser bacc -> smaller rank.
        U, _ = np.linalg.qr(rng.normal(size=(50, 20)))
        V, _ = np.linalg.qr(rng.normal(size=(40, 20)))
        s = 10.0 ** -np.arange(20, dtype=float)
        G = U @ np.diag(s) @ V.T
        loose = interpolative_decomposition(G, bacc=1e-2).rank
        tight = interpolative_decomposition(G, bacc=1e-8).rank
        assert loose < tight

    def test_reconstruction_error_tracks_bacc(self, rng):
        U, _ = np.linalg.qr(rng.normal(size=(60, 30)))
        V, _ = np.linalg.qr(rng.normal(size=(50, 30)))
        s = 2.0 ** -np.arange(30, dtype=float)
        G = U @ np.diag(s) @ V.T
        for bacc in (1e-2, 1e-4, 1e-6):
            d = interpolative_decomposition(G, bacc=bacc)
            rel = np.linalg.norm(d.reconstruct(G) - G) / np.linalg.norm(G)
            assert rel <= 50 * bacc  # pivot decay is a loose error proxy

    def test_max_rank_cap(self, rng):
        G = rng.normal(size=(50, 40))  # full rank
        d = interpolative_decomposition(G, bacc=1e-16, max_rank=7)
        assert d.rank == 7

    def test_fixed_rank_override(self, rng):
        G = rng.normal(size=(30, 25))
        d = interpolative_decomposition(G, rank=3)
        assert d.rank == 3

    def test_zero_matrix(self):
        G = np.zeros((10, 8))
        d = interpolative_decomposition(G, bacc=1e-5)
        assert d.rank == 1
        np.testing.assert_allclose(d.reconstruct(G), 0.0)

    def test_empty_sample_rows(self):
        G = np.zeros((0, 6))
        d = interpolative_decomposition(G)
        assert d.rank == 1
        assert d.interp.shape == (1, 6)

    def test_single_column(self, rng):
        G = rng.normal(size=(10, 1))
        d = interpolative_decomposition(G, bacc=1e-10)
        assert d.rank == 1
        np.testing.assert_allclose(d.reconstruct(G), G, atol=1e-12)

    def test_achieved_error_reported(self, rng):
        G = rng.normal(size=(30, 30))
        d = interpolative_decomposition(G, bacc=1e-1)
        assert 0.0 <= d.achieved_error <= 1e-1 * 10  # within an order

    def test_skeleton_indices_valid_and_unique(self, rng):
        G = rng.normal(size=(25, 18))
        d = interpolative_decomposition(G, bacc=1e-3)
        assert len(np.unique(d.skeleton)) == d.rank
        assert (d.skeleton >= 0).all() and (d.skeleton < 18).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interpolative_decomposition(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            interpolative_decomposition(np.zeros((5, 0)))

    @given(
        r=st.integers(1, 6),
        s=st.integers(8, 30),
        m=st.integers(7, 25),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_rank_never_exceeds_true_rank_plus_noise(self, r, s, m):
        rng = np.random.default_rng(r * 1000 + s * 10 + m)
        G = lowrank_matrix(rng, s, m, min(r, m, s))
        d = interpolative_decomposition(G, bacc=1e-9)
        assert d.rank <= min(r, m, s) + 1

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_reconstruction_beats_bacc_for_decaying_spectra(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 30))
        s = m + 10
        U, _ = np.linalg.qr(rng.normal(size=(s, m)))
        V, _ = np.linalg.qr(rng.normal(size=(m, m)))
        sing = 3.0 ** -np.arange(m, dtype=float)
        G = U @ np.diag(sing) @ V.T
        d = interpolative_decomposition(G, bacc=1e-6)
        rel = np.linalg.norm(d.reconstruct(G) - G) / np.linalg.norm(G)
        assert rel < 1e-4

    @pytest.mark.parametrize("shape, rank", [
        ((40, 25), None),  # tall: more samples than candidates
        ((12, 30), None),  # wide: s < m
        ((40, 30), 4),     # rank-deficient
    ])
    def test_matches_economic_qr_reference(self, rng, monkeypatch, shape,
                                           rank):
        """The pivoted QR keeps only R and the pivots (mode="r"); its
        skeleton, interp and rank equal the economic-mode reference bit
        for bit."""
        import scipy.linalg

        s, m = shape
        G = (lowrank_matrix(rng, s, m, rank) if rank
             else rng.normal(size=shape))
        got = interpolative_decomposition(G, bacc=1e-8)

        qr = scipy.linalg.qr

        def economic(A, mode, pivoting):
            _q, R, piv = qr(A, mode="economic", pivoting=pivoting)
            return R, piv

        monkeypatch.setattr(scipy.linalg, "qr", economic)
        ref = interpolative_decomposition(G, bacc=1e-8)
        assert got.rank == ref.rank
        if rank:
            assert got.rank == rank
        np.testing.assert_array_equal(got.skeleton, ref.skeleton)
        np.testing.assert_array_equal(got.interp, ref.interp)
        assert got.achieved_error == ref.achieved_error
