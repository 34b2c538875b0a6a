"""Tests for the public API layer: PlanConfig, ExecutionPolicy,
KernelOperator composition, Session caching, and shim equivalence."""

import numpy as np
import pytest

from repro import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    IdentityOperator,
    KernelOperator,
    PlanConfig,
    Session,
    aslinearoperator,
    inspector,
    load_operator,
    matmul,
    matmul_many,
    save_hmatrix,
)
from repro.api.operator import DenseOperator, as_apply
from repro.api.policy import VALID_ORDERS, resolve_policy
from repro.api.session import points_fingerprint
from repro.core.inspector import INSPECTION_COUNTS
from repro.solvers import (
    KernelRidgeRegression,
    conjugate_gradient,
    estimate_trace,
    power_iteration,
)

PLAN_32 = PlanConfig(leaf_size=32, bacc=1e-6, p=4)


@pytest.fixture(scope="module")
def operator_2d(points_2d, gaussian_kernel):
    return KernelOperator.from_points(
        points_2d, kernel=gaussian_kernel, plan=PLAN_32).materialize()


@pytest.fixture(scope="module")
def dense_2d(operator_2d):
    return operator_2d.dense()


class TestPlanConfig:
    def test_defaults_match_paper(self):
        plan = PlanConfig()
        assert plan.structure == "h2-geometric"
        assert plan.tau == 0.65 and plan.bacc == 1e-5
        assert plan.leaf_size == 64 and plan.sampling_size == 32

    @pytest.mark.parametrize("bad", [
        {"structure": "h3"},
        {"tau": 0.0},
        {"tau": 1.5},
        {"budget": -0.1},
        {"bacc": 0.0},
        {"leaf_size": 0},
        {"sampling_size": -1},
        {"tree_method": "octree"},
        {"coarsen_threshold": -1},
        {"block_threshold": -2},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            PlanConfig(**bad)

    def test_unknown_kwarg_named_in_error(self):
        with pytest.raises(TypeError, match="leaf_sizee"):
            PlanConfig.from_kwargs(leaf_sizee=32)

    def test_hashable_and_replace(self):
        plan = PlanConfig(leaf_size=32)
        assert hash(plan) == hash(PlanConfig(leaf_size=32))
        assert plan.replace(bacc=1e-3).bacc == 1e-3
        with pytest.raises(ValueError):
            plan.replace(bacc=-1.0)

    def test_p1_fingerprint_ignores_phase2_knobs(self):
        a = PlanConfig(leaf_size=32, bacc=1e-5)
        b = PlanConfig(leaf_size=32, bacc=1e-3, max_rank=64)
        assert a.p1_fingerprint() == b.p1_fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert a.p1_fingerprint() != PlanConfig(leaf_size=64).p1_fingerprint()

    def test_to_inspector_runs_identically(self, points_2d, gaussian_kernel,
                                           inspector_small):
        plan = PlanConfig(structure="h2-geometric", tau=0.65, leaf_size=32,
                          bacc=1e-6, p=4, seed=0)
        H_new = plan.to_inspector().run(points_2d, gaussian_kernel)
        H_old = inspector_small.run(points_2d, gaussian_kernel)
        W = np.random.default_rng(2).random((len(points_2d), 3))
        np.testing.assert_array_equal(H_new.matmul(W), H_old.matmul(W))


class TestExecutionPolicy:
    def test_single_documented_default(self):
        assert DEFAULT_POLICY.order == "batched"
        assert DEFAULT_POLICY.num_threads is None
        assert DEFAULT_POLICY.q_chunk is None

    @pytest.mark.parametrize("bad", [
        {"order": "bfs"},
        {"num_threads": 0},
        {"q_chunk": 0},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            ExecutionPolicy(**bad)

    def test_retired_fused_order_rejected(self):
        """The fused "compiled" order is gone: asking for it is a
        ValueError that names the orders that remain."""
        retired = "compiled"
        with pytest.raises(ValueError) as exc:
            ExecutionPolicy(order=retired)
        msg = str(exc.value)
        assert repr(retired) in msg
        for order in ("batched", "original", "auto"):
            assert repr(order) in msg

    def test_retired_tree_order_rejected(self):
        """order="tree" (the skip-permutation order) is gone too: the
        error names the orders that remain, and none of them is it."""
        with pytest.raises(ValueError) as exc:
            ExecutionPolicy(order="tree")
        msg = str(exc.value)
        assert "'tree'" in msg
        assert VALID_ORDERS == ("batched", "original", "auto")
        for order in VALID_ORDERS:
            assert repr(order) in msg

    def test_resolution_precedence(self):
        pol = ExecutionPolicy(order="original", num_threads=2)
        merged = resolve_policy(pol, order="batched", q_chunk=64)
        assert merged.order == "batched"
        assert merged.num_threads == 2 and merged.q_chunk == 64
        assert resolve_policy(None).order == DEFAULT_POLICY.order

    def test_matmul_and_matmul_many_share_default(self, hmatrix_2d):
        """The satellite fix: both shims route through one default order."""
        W = np.random.default_rng(3).random((hmatrix_2d.dim, 8))
        np.testing.assert_array_equal(matmul(hmatrix_2d, W),
                                      matmul_many(hmatrix_2d, W))
        np.testing.assert_array_equal(
            matmul(hmatrix_2d, W),
            hmatrix_2d.matmul(W, order=DEFAULT_POLICY.order))

    def test_serial_executor_honors_per_call_threads(self, hmatrix_2d):
        W = np.random.default_rng(22).random((hmatrix_2d.dim, 4))
        from repro import Executor

        with Executor() as ex:      # pool-less executor
            pol = ExecutionPolicy(order="original", num_threads=3)
            np.testing.assert_allclose(
                ex.matmul(hmatrix_2d, W, policy=pol),
                hmatrix_2d.matmul(W, order="original"), atol=1e-12)

    def test_policy_travels_through_hmatrix_matmul(self, hmatrix_2d):
        W = np.random.default_rng(4).random((hmatrix_2d.dim, 4))
        pol = ExecutionPolicy(order="original", num_threads=2)
        np.testing.assert_allclose(hmatrix_2d.matmul(W, policy=pol),
                                   hmatrix_2d.matmul(W, order="original"),
                                   atol=1e-12)


class TestOperatorAlgebra:
    def test_matches_dense_reference(self, operator_2d, dense_2d):
        W = np.random.default_rng(5).random((operator_2d.shape[0], 6))
        np.testing.assert_allclose(operator_2d @ W, dense_2d @ W, atol=1e-12)

    def test_scaled_plus_identity_identity(self, operator_2d, dense_2d):
        """(a*K + b*I) @ W against the dense reference."""
        n = operator_2d.shape[0]
        a, b = 2.5, 0.75
        composed = a * operator_2d + b * IdentityOperator(n)
        W = np.random.default_rng(6).random((n, 5))
        ref = (a * dense_2d + b * np.eye(n)) @ W
        np.testing.assert_allclose(composed @ W, ref, atol=1e-10)

    def test_transpose_of_symmetric_operator(self, operator_2d, dense_2d):
        W = np.random.default_rng(7).random((operator_2d.shape[0], 4))
        np.testing.assert_allclose(operator_2d.T @ W, dense_2d.T @ W,
                                   atol=1e-10)

    def test_transpose_of_composition(self, operator_2d, dense_2d):
        n = operator_2d.shape[0]
        composed = (3.0 * operator_2d + 2.0 * IdentityOperator(n)).T
        W = np.random.default_rng(8).random(n)
        ref = (3.0 * dense_2d + 2.0 * np.eye(n)).T @ W
        np.testing.assert_allclose(composed @ W, ref, atol=1e-10)

    def test_shifted_subtract_negate(self, operator_2d, dense_2d):
        n = operator_2d.shape[0]
        W = np.random.default_rng(9).random((n, 2))
        np.testing.assert_allclose(operator_2d.shifted(0.5) @ W,
                                   dense_2d @ W + 0.5 * W, atol=1e-10)
        diff = operator_2d - operator_2d
        np.testing.assert_allclose(diff @ W, np.zeros_like(W), atol=1e-10)
        np.testing.assert_allclose((-operator_2d) @ W, -(dense_2d @ W),
                                   atol=1e-10)

    def test_vector_rhs_and_duck_typing(self, operator_2d, dense_2d):
        n = operator_2d.shape[0]
        v = np.random.default_rng(10).random(n)
        y = operator_2d.matvec(v)
        assert y.shape == (n,)
        np.testing.assert_allclose(y, dense_2d @ v, atol=1e-12)
        np.testing.assert_allclose(operator_2d.rmatvec(v), y, atol=1e-12)
        assert operator_2d.dtype == np.float64
        assert operator_2d.shape == (n, n)

    def test_shape_mismatch_raises(self, operator_2d):
        with pytest.raises(ValueError, match="rows"):
            operator_2d @ np.ones(operator_2d.shape[0] + 1)
        with pytest.raises(ValueError, match="shapes differ"):
            operator_2d + IdentityOperator(3)

    def test_aslinearoperator_coercions(self, hmatrix_2d):
        assert isinstance(aslinearoperator(hmatrix_2d), KernelOperator)
        op = aslinearoperator(np.eye(4))
        assert isinstance(op, DenseOperator)
        assert aslinearoperator(op) is op
        with pytest.raises(TypeError):
            aslinearoperator("not an operator")

    def test_as_apply_accepts_both_contracts(self, operator_2d):
        v = np.random.default_rng(11).random(operator_2d.shape[0])
        np.testing.assert_array_equal(as_apply(operator_2d)(v),
                                      operator_2d @ v)
        fn = as_apply(lambda w: 2 * w)
        np.testing.assert_array_equal(fn(v), 2 * v)
        with pytest.raises(TypeError):
            as_apply(3.0)

    def test_lazy_operator_defers_inspection(self, points_2d):
        before = INSPECTION_COUNTS["p1"]
        K = KernelOperator.from_points(points_2d, kernel="gaussian",
                                       plan=PLAN_32)
        assert not K.materialized
        assert INSPECTION_COUNTS["p1"] == before
        K @ np.ones(len(points_2d))
        assert K.materialized
        assert INSPECTION_COUNTS["p1"] == before + 1


class TestSession:
    def test_repeated_operator_skips_p1(self, points_2d):
        """The acceptance check: identical points+plan provably skip P1."""
        W = np.random.default_rng(12).random((len(points_2d), 3))
        with Session(plan=PLAN_32) as session:
            Y1 = session.operator(points_2d, kernel="gaussian") @ W
            before = INSPECTION_COUNTS["p1"]
            Y2 = session.operator(points_2d, kernel="gaussian") @ W
            assert INSPECTION_COUNTS["p1"] == before
            assert session.stats.p1_builds == 1
            assert session.stats.hmatrix_hits >= 1
        np.testing.assert_array_equal(Y1, Y2)

    def test_kernel_change_reuses_p1(self, points_2d):
        """P2 reuse: a new kernel/bacc re-runs phase 2 against cached P1."""
        with Session(plan=PLAN_32) as session:
            session.operator(points_2d, kernel="gaussian").materialize()
            p1_before = INSPECTION_COUNTS["p1"]
            session.operator(points_2d, kernel="laplace").materialize()
            session.operator(points_2d, kernel="gaussian",
                             bacc=1e-3).materialize()
            assert INSPECTION_COUNTS["p1"] == p1_before
            assert session.stats.p1_builds == 1
            assert session.stats.p1_hits == 2
            assert session.stats.p2_builds == 3

    def test_different_points_rebuild(self, points_2d):
        other = np.random.default_rng(13).random(points_2d.shape)
        with Session(plan=PLAN_32) as session:
            session.operator(points_2d).materialize()
            session.operator(other).materialize()
            assert session.stats.p1_builds == 2

    def test_lru_eviction(self, points_2d):
        other = np.random.default_rng(14).random((200, 2))
        with Session(plan=PLAN_32, p1_cache_size=1,
                     hmatrix_cache_size=1) as session:
            session.operator(points_2d).materialize()
            session.operator(other).materialize()   # evicts points_2d
            session.operator(points_2d).materialize()
            assert session.stats.p1_builds == 3

    def test_session_threads_match_serial(self, points_2d):
        W = np.random.default_rng(15).random((len(points_2d), 4))
        with Session(plan=PLAN_32) as serial, \
                Session(plan=PLAN_32, num_threads=3) as threaded:
            np.testing.assert_allclose(
                serial.operator(points_2d) @ W,
                threaded.operator(points_2d) @ W, atol=1e-12)

    def test_points_fingerprint_content_keyed(self, points_2d):
        assert points_fingerprint(points_2d) == \
            points_fingerprint(points_2d.copy())
        assert points_fingerprint(points_2d) != \
            points_fingerprint(points_2d + 1e-9)

    def test_rejects_non_plan(self, points_2d):
        with Session() as session, \
                pytest.raises(TypeError, match="PlanConfig"):
            session.operator(points_2d, plan={"leaf_size": 32})


class TestShimEquivalence:
    """Legacy free functions must match the new API to < 1e-12."""

    def test_inspector_shim_vs_plan_api(self, points_2d, gaussian_kernel):
        H_shim = inspector(points_2d, kernel=gaussian_kernel, leaf_size=32,
                           bacc=1e-6, p=4)
        K_new = KernelOperator.from_points(points_2d, kernel=gaussian_kernel,
                                           plan=PLAN_32)
        W = np.random.default_rng(16).random((len(points_2d), 8))
        assert np.abs(matmul(H_shim, W) - K_new @ W).max() < 1e-12

    def test_inspector_shim_accepts_plan(self, points_2d, gaussian_kernel):
        H = inspector(points_2d, kernel=gaussian_kernel, plan=PLAN_32)
        W = np.random.default_rng(17).random((len(points_2d), 2))
        K = KernelOperator(H)
        np.testing.assert_array_equal(K @ W, H.matmul(W))

    def test_inspector_shim_rejects_plan_plus_kwargs(self, points_2d):
        with pytest.raises(TypeError, match="not both"):
            inspector(points_2d, plan=PLAN_32, leaf_size=16)

    def test_inspector_shim_validates_kwargs(self, points_2d):
        with pytest.raises(TypeError, match="leaf_sizee"):
            inspector(points_2d, leaf_sizee=32)
        with pytest.raises(ValueError, match="structure"):
            inspector(points_2d, structure="h5")

    def test_executor_shims_vs_session(self, hmatrix_2d):
        W = np.random.default_rng(18).random((hmatrix_2d.dim, 8))
        with Session() as session:
            Y_session = session.matmul(hmatrix_2d, W)
        assert np.abs(matmul(hmatrix_2d, W) - Y_session).max() < 1e-12
        assert np.abs(matmul_many(hmatrix_2d, W) - Y_session).max() < 1e-12


class TestOperatorPersistence:
    def test_save_load_round_trip(self, operator_2d, tmp_path):
        path = tmp_path / "op.npz"
        save_hmatrix(operator_2d, path)         # accepts the facade
        loaded = load_operator(path)
        assert isinstance(loaded, KernelOperator)
        W = np.random.default_rng(19).random((operator_2d.shape[0], 4))
        np.testing.assert_allclose(loaded @ W, operator_2d @ W, atol=1e-12)

    def test_save_lazy_operator_materializes(self, points_2d, tmp_path):
        K = KernelOperator.from_points(points_2d, kernel="gaussian",
                                       plan=PLAN_32)
        path = save_hmatrix(K, tmp_path / "lazy.npz")
        assert K.materialized and path.exists()

    def test_save_rejects_non_hmatrix(self, tmp_path):
        with pytest.raises(TypeError, match="HMatrix"):
            save_hmatrix(np.eye(3), tmp_path / "bad.npz")
        with pytest.raises(TypeError, match="HMatrix"):
            # Unfit model: .hmatrix exists but is still None.
            save_hmatrix(KernelRidgeRegression(), tmp_path / "bad.npz")


class TestSolversThroughOperators:
    def test_cg_accepts_composed_operator(self, operator_2d, dense_2d):
        n = operator_2d.shape[0]
        A = operator_2d.shifted(0.5)
        x_true = np.random.default_rng(20).random(n)
        res = conjugate_gradient(A, A @ x_true, tol=1e-12, max_iter=800)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_power_iteration_infers_n(self, operator_2d, dense_2d):
        lam, _ = power_iteration(operator_2d.shifted(1.0), tol=1e-10)
        expect = np.linalg.eigvalsh(dense_2d + np.eye(len(dense_2d))).max()
        assert lam == pytest.approx(expect, rel=1e-4)

    def test_estimate_trace_infers_n(self, operator_2d, dense_2d):
        est = estimate_trace(operator_2d, num_probes=256, seed=1)
        assert est == pytest.approx(np.trace(dense_2d), rel=0.15)

    def test_estimate_trace_requires_n_for_callable(self):
        with pytest.raises(ValueError, match="shape"):
            estimate_trace(lambda Z: Z)

    def test_ridge_exposes_composed_operator(self, rng):
        from repro.api.operator import ShiftedOperator

        X = rng.random((300, 2))
        y = rng.normal(size=300)
        model = KernelRidgeRegression(lam=1e-1, bacc=1e-7,
                                      leaf_size=32).fit(X, y)
        assert isinstance(model.operator_, ShiftedOperator)
        assert model.training_residual(y) < 1e-5

    def test_ridge_with_session_skips_p1_on_refit(self, rng):
        X = rng.random((300, 2))
        y = rng.normal(size=300)
        with Session() as session:
            plan = PlanConfig(structure="h2-b", bacc=1e-7, leaf_size=32)
            m1 = KernelRidgeRegression(lam=1e-1, plan=plan,
                                       session=session).fit(X, y)
            before = INSPECTION_COUNTS["p1"]
            m2 = KernelRidgeRegression(lam=1e-2, plan=plan,
                                       session=session).fit(X, y)
            assert INSPECTION_COUNTS["p1"] == before
        assert m1.alpha_ is not None and m2.alpha_ is not None

    def test_ridge_rejects_plan_plus_kwargs(self):
        with pytest.raises(TypeError, match="not both"):
            KernelRidgeRegression(plan=PlanConfig(), tau=0.5)


class TestCLIPolicyFlags:
    @pytest.fixture()
    def stored_hmatrix(self, tmp_path):
        from repro.cli import main

        pts = tmp_path / "pts.npy"
        np.save(pts, np.random.default_rng(21).random((300, 2)))
        h = tmp_path / "h.npz"
        main(["inspect", str(pts), "-o", str(h), "--leaf-size", "32",
              "--bandwidth", "0.5"])
        return h

    def test_evaluate_policy_flags(self, stored_hmatrix, tmp_path, capsys):
        from repro.cli import main

        y_b = tmp_path / "yb.npy"
        y_o = tmp_path / "yo.npy"
        rc = main(["evaluate", str(stored_hmatrix), "-q", "4",
                   "--order", "batched", "--threads", "2",
                   "--q-chunk", "64", "-o", str(y_b)])
        assert rc == 0
        assert ("order=batched, backend=thread, threads=2"
                in capsys.readouterr().out)
        rc = main(["evaluate", str(stored_hmatrix), "-q", "4",
                   "--order", "original", "-o", str(y_o)])
        assert rc == 0
        np.testing.assert_allclose(np.load(y_b), np.load(y_o), atol=1e-12)

    def test_evaluate_rejects_bad_order(self, stored_hmatrix):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["evaluate", str(stored_hmatrix), "--order", "bfs"])

    def test_evaluate_rejects_retired_fused_order(self, stored_hmatrix,
                                                  capsys):
        """--order choices come from VALID_ORDERS, so the retired fused
        order is an argparse usage error (exit 2)."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(stored_hmatrix), "--order", "compiled"])
        assert exc.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err

    def test_evaluate_rejects_retired_tree_order(self, stored_hmatrix,
                                                 capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(stored_hmatrix), "--order", "tree"])
        assert exc.value.code == 2
        assert "invalid choice: 'tree'" in capsys.readouterr().err


class TestSessionPolicyRegression:
    """Satellite fix: an explicitly passed policy object is never silently
    swapped for the session default (`policy or self.policy` was the bug
    pattern; identity-against-None is the contract)."""

    def test_explicit_policy_reaches_executor(self, hmatrix_2d):
        captured = {}
        with Session(plan=PLAN_32) as session:
            real = session._executor.matmul

            def spy(H, W, policy=None):
                captured["policy"] = policy
                return real(H, W, policy=policy)

            session._executor.matmul = spy
            explicit = ExecutionPolicy(order="original", q_chunk=32)
            W = np.random.default_rng(0).random((hmatrix_2d.dim, 2))
            session.matmul(hmatrix_2d, W, policy=explicit)
        assert captured["policy"] == explicit
        assert captured["policy"] is not session.policy

    def test_explicit_policy_with_overrides(self, hmatrix_2d):
        captured = {}
        with Session(plan=PLAN_32, num_threads=2) as session:
            real = session._executor.matmul

            def spy(H, W, policy=None):
                captured["policy"] = policy
                return real(H, W, policy=policy)

            session._executor.matmul = spy
            explicit = ExecutionPolicy(order="original")
            W = np.random.default_rng(0).random((hmatrix_2d.dim, 2))
            session.matmul(hmatrix_2d, W, policy=explicit, q_chunk=64)
        # overrides apply on top of the explicit policy, not the default
        assert captured["policy"].order == "original"
        assert captured["policy"].q_chunk == 64
        assert captured["policy"].num_threads is None  # not the session's 2

    def test_default_policy_still_used_when_omitted(self, hmatrix_2d):
        captured = {}
        with Session(plan=PLAN_32, num_threads=2) as session:
            real = session._executor.matmul

            def spy(H, W, policy=None):
                captured["policy"] = policy
                return real(H, W, policy=policy)

            session._executor.matmul = spy
            W = np.random.default_rng(0).random((hmatrix_2d.dim, 2))
            session.matmul(hmatrix_2d, W)
        assert captured["policy"] == session.policy


class TestPointsFingerprintMemo:
    """Satellite fix: repeated fingerprints of the same array skip the
    full-buffer SHA-256 (measurable per-request overhead on the serving
    path) while still detecting mutation and content changes."""

    def test_stable_and_cached(self):
        from repro.api import session as sess_mod

        pts = np.random.default_rng(0).random((512, 3))
        fp1 = points_fingerprint(pts)
        assert id(pts) in sess_mod._FP_CACHE
        fp2 = points_fingerprint(pts)
        assert fp1 == fp2

    def test_cache_hit_skips_full_hash(self, monkeypatch):
        from repro.api import session as sess_mod

        pts = np.random.default_rng(1).random((512, 3))
        fp1 = points_fingerprint(pts)
        calls = []

        def forbidden(*a, **k):
            calls.append(1)
            raise AssertionError("full SHA-256 ran on a memo hit")

        monkeypatch.setattr(sess_mod.hashlib, "sha256", forbidden)
        assert points_fingerprint(pts) == fp1
        assert not calls

    def test_equal_content_different_objects_equal_fp(self):
        pts = np.random.default_rng(2).random((256, 2))
        assert points_fingerprint(pts) == points_fingerprint(pts.copy())

    def test_mutation_detected(self):
        pts = np.random.default_rng(3).random((256, 2))
        fp1 = points_fingerprint(pts)
        pts[0, 0] += 1.0  # row 0 is always in the sampled stripe
        assert points_fingerprint(pts) != fp1

    def test_non_ndarray_input_still_works(self):
        pts = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        assert points_fingerprint(pts) == points_fingerprint(np.array(pts))

    def test_dtype_normalization_unchanged(self):
        pts64 = np.random.default_rng(4).random((128, 2))
        pts32 = pts64.astype(np.float32)
        # float32 content hashes as its float64 view, like before the memo
        assert (points_fingerprint(pts32)
                == points_fingerprint(pts32.astype(np.float64)))

    def test_cache_entry_dropped_on_gc(self):
        from repro.api import session as sess_mod

        pts = np.random.default_rng(5).random((64, 2))
        points_fingerprint(pts)
        key = id(pts)
        assert key in sess_mod._FP_CACHE
        del pts
        import gc

        gc.collect()
        assert key not in sess_mod._FP_CACHE

    def test_cache_bounded(self):
        from repro.api import session as sess_mod

        keep = [np.random.default_rng(i).random((8, 2))
                for i in range(sess_mod._FP_CACHE_MAX + 16)]
        for a in keep:
            points_fingerprint(a)
        assert len(sess_mod._FP_CACHE) <= sess_mod._FP_CACHE_MAX
