"""Unit and property tests for interpolative decomposition."""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    interp_decomp,
    interpolative_decomposition,
    skeleton,
    skeletonize_tree,
)
from repro.compression.interp_decomp import (
    OpenBLASThreads,
    scipy_openblas,
    single_threaded_lapack,
)
from repro.datasets import load_dataset
from repro.htree import build_htree
from repro.kernels import GaussianKernel
from repro.sampling import build_sampling_plan
from repro.tree import build_cluster_tree


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


# --------------------------------------------------------------------------
# The ID's LAPACK thread scope.
# --------------------------------------------------------------------------

#: The OpenBLAS bundled in scipy's wheel, when this install has one.
WHEEL_OPENBLAS = sorted(
    (Path(scipy.__file__).parent.parent / "scipy.libs").glob("*openblas*"))


@pytest.fixture
def blas():
    """scipy's OpenBLAS at two threads for the test, then as it was."""
    blas = scipy_openblas()
    if blas is None:
        pytest.skip("scipy links no OpenBLAS whose threads can be set")
    before = blas.get_num_threads()
    blas.set_num_threads(2)
    try:
        yield blas
    finally:
        blas.set_num_threads(before)


class TestSingleThreadedLapack:
    def test_one_thread_inside_previous_count_after(self, blas):
        with single_threaded_lapack():
            assert blas.get_num_threads() == 1
        assert blas.get_num_threads() == 2

    def test_nested_scopes_restore_on_last_exit(self, blas):
        with single_threaded_lapack():
            with single_threaded_lapack():
                assert blas.get_num_threads() == 1
            assert blas.get_num_threads() == 1
        assert blas.get_num_threads() == 2

    def test_restores_when_the_body_raises(self, blas):
        with pytest.raises(KeyError), single_threaded_lapack():
            raise KeyError("boom")
        assert blas.get_num_threads() == 2

    def test_overlapping_scopes_in_two_threads(self, blas):
        """A enters, B enters, A leaves (B still sees one thread), B
        leaves (the count is restored)."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with single_threaded_lapack():
                a_in.set()
                assert b_in.wait(10)
            a_out.set()

        def second():
            assert a_in.wait(10)
            with single_threaded_lapack():
                b_in.set()
                assert a_out.wait(10)
                seen["after_first_left"] = blas.get_num_threads()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert seen == {"after_first_left": 1}
        assert blas.get_num_threads() == 2

    def test_stress_many_threads_keep_the_count_consistent(self):
        """More threads than cores enter and leave scopes with a short
        switch interval, over a fake library whose calls hand the
        interpreter to another thread mid-update (as a ctypes call can):
        a lost depth update restores the count under a live scope or
        leaves it pinned at the end."""
        count = [2]

        def get():
            time.sleep(0)
            return count[0]

        def set_(n):
            time.sleep(0)
            count[0] = n

        fake = OpenBLASThreads("fake", get, set_)
        errors = []

        def worker():
            for _ in range(200):
                with fake.pinned():
                    if count[0] != 1:
                        errors.append("restored under a live scope")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert count == [2]

    def test_missing_library_is_a_noop(self, monkeypatch):
        real = scipy_openblas()
        before = real.get_num_threads() if real is not None else None
        monkeypatch.setattr(interp_decomp, "scipy_openblas", lambda: None)
        ran = False
        with single_threaded_lapack():
            ran = True
            if real is not None:
                assert real.get_num_threads() == before
        assert ran

    @pytest.mark.skipif(not WHEEL_OPENBLAS,
                        reason="scipy without a bundled OpenBLAS")
    def test_finds_the_wheel_library_already_mapped(self):
        """A renamed library or symbol prefix must fail here instead of
        switching the pinning off silently."""
        blas = scipy_openblas()
        assert blas is not None
        assert Path(blas.path) in WHEEL_OPENBLAS
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps on this platform")
        mapped = {os.path.realpath(line.split()[-1])
                  for line in maps.read_text().splitlines()
                  if "openblas" in line}
        assert os.path.realpath(blas.path) in mapped

    def test_highdim_sized_id_is_unchanged(self, blas):
        """A 220 x 94 Gaussian sample block of 54-d points (the size of an
        interior-node G on the highdim benchmark, rank 78-94) gives the
        same skeleton and rank on one thread as on two."""
        points = load_dataset("covtype", n=314, seed=0)
        G = GaussianKernel(bandwidth=5.0).block(points[:220], points[220:])
        outside = interpolative_decomposition(G)
        with single_threaded_lapack():
            inside = interpolative_decomposition(G)
        assert inside.rank == outside.rank
        np.testing.assert_array_equal(inside.skeleton, outside.skeleton)
        np.testing.assert_allclose(inside.interp, outside.interp, rtol=0,
                                   atol=1e-12)

    def test_skeletonize_tree_runs_every_id_on_one_thread(self, blas,
                                                          monkeypatch):
        """The scope wraps the inspector's ID loop, and only that loop."""
        real = skeleton.interpolative_decomposition
        seen = []

        def recording(G, **kwargs):
            seen.append(blas.get_num_threads())
            return real(G, **kwargs)

        monkeypatch.setattr(skeleton, "interpolative_decomposition",
                            recording)
        tree = build_cluster_tree(np.random.default_rng(3).random((300, 2)),
                                  leaf_size=32)
        htree = build_htree(tree, "h2-geometric", tau=0.65)
        plan = build_sampling_plan(tree, k=16, seed=0)
        skeletonize_tree(htree, GaussianKernel(bandwidth=0.5), plan)
        assert seen and set(seen) == {1}
        assert blas.get_num_threads() == 2
