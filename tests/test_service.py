"""KernelService: concurrency, micro-batching, correctness, stats."""

import threading

import numpy as np
import pytest

from repro import KernelService, PlanConfig, PlanStore, Session
from repro.api.service import ServiceClosed

PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)


@pytest.fixture()
def service(points_2d, gaussian_kernel):
    with KernelService(plan=PLAN, max_batch=4, max_wait_ms=5.0) as svc:
        svc.register("grid", points_2d, kernel=gaussian_kernel, warm=True)
        yield svc


class TestCorrectness:
    def test_matches_direct_matmul(self, service, points_2d, hmatrix_2d,
                                   rng):
        W = np.random.default_rng(0).random((len(points_2d), 5))
        Y = service.request("grid", W, timeout=30)
        np.testing.assert_allclose(Y, hmatrix_2d.matmul(W), atol=1e-12)

    def test_vector_request_squeezed(self, service, points_2d, hmatrix_2d):
        w = np.random.default_rng(1).random(len(points_2d))
        y = service.request("grid", w, timeout=30)
        assert y.shape == (len(points_2d),)
        np.testing.assert_allclose(y, hmatrix_2d.matmul(w), atol=1e-12)

    def test_batched_results_equal_solo(self, points_2d, gaussian_kernel,
                                        hmatrix_2d):
        """Stacked-GEMM micro-batching must be invisible in the numbers."""
        g = np.random.default_rng(2)
        panels = [g.random((len(points_2d), q)) for q in (1, 3, 2, 1, 4)]
        with KernelService(plan=PLAN, max_batch=8, max_wait_ms=20.0) as svc:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            futures = [svc.submit("grid", W) for W in panels]
            results = [f.result(30) for f in futures]
            stats = svc.stats()
        assert stats["max_batch_observed"] >= 2  # batching actually happened
        for W, Y in zip(panels, results, strict=True):
            np.testing.assert_allclose(Y, hmatrix_2d.matmul(W), atol=1e-12)

    def test_mixed_endpoints_not_cross_batched(self, points_2d, points_hd,
                                               gaussian_kernel):
        with KernelService(plan=PLAN, max_batch=8, max_wait_ms=20.0) as svc:
            svc.register("a", points_2d, kernel=gaussian_kernel, warm=True)
            svc.register("b", points_hd, kernel=gaussian_kernel, warm=True)
            g = np.random.default_rng(3)
            futs = [svc.submit("a", g.random(len(points_2d))),
                    svc.submit("b", g.random(len(points_hd))),
                    svc.submit("a", g.random(len(points_2d)))]
            ya, yb, ya2 = [f.result(30) for f in futs]
        assert ya.shape == (len(points_2d),)
        assert yb.shape == (len(points_hd),)
        assert ya2.shape == (len(points_2d),)


class TestConcurrency:
    def test_concurrent_submitters(self, service, points_2d, hmatrix_2d):
        n = len(points_2d)
        results: dict[int, np.ndarray] = {}
        panels = {i: np.random.default_rng(i).random((n, 2))
                  for i in range(12)}
        errors = []

        def client(i):
            try:
                results[i] = service.request("grid", panels[i], timeout=60)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in panels]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, W in panels.items():
            np.testing.assert_allclose(results[i], hmatrix_2d.matmul(W),
                                       atol=1e-12)

    def test_serving_with_store_never_inspects(self, tmp_path, points_2d,
                                               gaussian_kernel):
        d = tmp_path / "store"
        with Session(plan=PLAN, store=PlanStore(d)) as compiler:
            compiler.inspect(points_2d, kernel=gaussian_kernel)
        with KernelService(store=PlanStore(d), plan=PLAN) as svc:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            svc.request("grid", np.ones(len(points_2d)), timeout=30)
            assert svc.session.stats.p1_builds == 0
            assert svc.session.stats.p2_builds == 0


class TestValidationAndLifecycle:
    def test_unknown_points_id(self, service):
        with pytest.raises(KeyError, match="register"):
            service.submit("nope", np.ones(3))

    def test_wrong_rows_raises_at_submit(self, service):
        with pytest.raises(ValueError, match="rows"):
            service.submit("grid", np.ones(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_before_enqueue(self, points_2d,
                                              gaussian_kernel, hmatrix_2d,
                                              bad):
        """A non-finite panel is refused at submit, so it never joins a
        micro-batch: the good requests around it are served unharmed."""
        n = len(points_2d)
        good = [np.random.default_rng(i).random((n, 2)) for i in range(2)]
        W = np.ones((n, 2))
        W[5, 1] = bad
        with KernelService(plan=PLAN, max_batch=8,
                           max_wait_ms=50.0) as svc:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            first = svc.submit("grid", good[0])
            with pytest.raises(ValueError, match="finite"):
                svc.submit("grid", W)
            second = svc.submit("grid", good[1])
            for fut, Wg in zip((first, second), good, strict=True):
                np.testing.assert_allclose(fut.result(30),
                                           hmatrix_2d.matmul(Wg),
                                           atol=1e-12)
            assert svc.stats()["served"] == 2

    def test_shape_reporting(self, service, points_2d):
        assert service.shape("grid") == (len(points_2d), len(points_2d))
        with pytest.raises(KeyError):
            service.shape("nope")

    def test_bad_construction_args(self):
        with pytest.raises(ValueError, match="max_batch"):
            KernelService(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            KernelService(max_wait_ms=-1)

    def test_close_drains_pending(self, points_2d, gaussian_kernel):
        svc = KernelService(plan=PLAN, max_batch=4)
        svc.register("grid", points_2d, kernel=gaussian_kernel, warm=True)
        futs = [svc.submit("grid", np.ones(len(points_2d)))
                for _ in range(6)]
        svc.close()
        for f in futs:
            assert f.result(timeout=1) is not None

    def test_submit_after_close_raises(self, points_2d, gaussian_kernel):
        svc = KernelService(plan=PLAN)
        svc.register("grid", points_2d, kernel=gaussian_kernel)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit("grid", np.ones(len(points_2d)))
        with pytest.raises(ServiceClosed):
            svc.register("again", points_2d)
        svc.close()  # idempotent

    def test_drain_completes_queued_futures(self, points_2d,
                                            gaussian_kernel, hmatrix_2d):
        """Queued Futures must COMPLETE during drain — drain() stops
        intake, it never abandons accepted work with ServiceClosed."""
        svc = KernelService(plan=PLAN, max_batch=2, max_wait_ms=50.0)
        try:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            panels = [np.random.default_rng(i).random((len(points_2d), 2))
                      for i in range(6)]
            futs = [svc.submit("grid", W) for W in panels]
            assert svc.drain(timeout=60) is True
            for W, f in zip(panels, futs, strict=True):
                Y = f.result(timeout=1)  # already done, no ServiceClosed
                np.testing.assert_allclose(Y, hmatrix_2d.matmul(W),
                                           atol=1e-12)
            stats = svc.stats()
            assert stats["served"] == len(panels)
            assert stats["errors"] == 0
            assert stats["queue_depth"] == 0
            assert stats["inflight"] == 0
            assert stats["draining"] is True
            assert stats["dispatcher_alive"] is True  # close() not yet run
        finally:
            svc.close()

    def test_drain_refuses_new_work_but_keeps_stats(self, points_2d,
                                                    gaussian_kernel):
        svc = KernelService(plan=PLAN)
        try:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            svc.request("grid", np.ones(len(points_2d)), timeout=30)
            assert svc.drain(timeout=30) is True
            with pytest.raises(ServiceClosed):
                svc.submit("grid", np.ones(len(points_2d)))
            with pytest.raises(ServiceClosed):
                svc.register("other", points_2d)
            assert svc.drain(timeout=1) is True  # idempotent
            assert svc.stats()["served"] == 1  # post-drain stats still work
        finally:
            svc.close()

    def test_drain_timeout_returns_false_then_succeeds(self, points_2d,
                                                       gaussian_kernel):
        """A 0-timeout drain with work in flight reports False; the
        drain state persists and a later wait finishes cleanly."""
        release = threading.Event()
        started = threading.Event()

        from repro.kernels.gaussian import GaussianKernel

        class _SlowKernel(GaussianKernel):
            def block(self, X, Y):
                started.set()
                release.wait(30)
                return super().block(X, Y)

        svc = KernelService(plan=PLAN, max_wait_ms=0.0)
        try:
            svc.register("grid", points_2d,
                         kernel=_SlowKernel(bandwidth=0.5))
            fut = svc.submit("grid", np.ones(len(points_2d)))
            assert started.wait(30)  # the batch is inside the dispatcher
            assert svc.drain(timeout=0.01) is False
            release.set()
            assert svc.drain(timeout=60) is True
            assert fut.result(timeout=1) is not None
        finally:
            release.set()
            svc.close()

    def test_borrowed_session_left_open(self, points_2d, gaussian_kernel):
        with Session(plan=PLAN) as session:
            with KernelService(session=session) as svc:
                svc.register("grid", points_2d, kernel=gaussian_kernel)
                svc.request("grid", np.ones(len(points_2d)), timeout=30)
            # service closed; the borrowed session must still work
            H = session.inspect(points_2d, kernel=gaussian_kernel)
            assert session.matmul(H, np.ones(len(points_2d))) is not None


class TestStats:
    def test_latency_and_queue_stats_exposed(self, service, points_2d):
        for _ in range(3):
            service.request("grid", np.ones(len(points_2d)), timeout=30)
        stats = service.stats()
        assert stats["served"] == 3
        assert stats["errors"] == 0
        assert stats["p99_ms"] >= stats["p50_ms"] > 0
        assert stats["mean_ms"] > 0
        assert stats["queue_depth"] == 0
        assert stats["max_queue_depth"] >= 1
        assert stats["batches"] >= 1

    def test_execution_errors_counted_and_raised(self, points_2d,
                                                 monkeypatch):
        with KernelService(plan=PLAN, max_wait_ms=0.0) as svc:
            svc.register("grid", points_2d, warm=True)

            def boom(*a, **k):
                raise RuntimeError("injected")

            monkeypatch.setattr(svc.session, "matmul", boom)
            fut = svc.submit("grid", np.ones(len(points_2d)))
            with pytest.raises(RuntimeError, match="injected"):
                fut.result(30)
            assert svc.stats()["errors"] == 1


class TestRegisterReturnValue:
    def test_register_reports_built_vs_cached(self, tmp_path, points_2d,
                                              gaussian_kernel):
        """register(warm=True) says whether *this* call built the plan —
        the server's `compiled` response field rides on it, so a cache
        or store hit must come back False."""
        store = tmp_path / "store"
        with KernelService(plan=PLAN, store=store) as svc:
            assert svc.register("grid", points_2d, kernel=gaussian_kernel,
                                warm=True) is True
            # same artifact, fresh id: session cache hit, not a build
            assert svc.register("grid2", points_2d, kernel=gaussian_kernel,
                                warm=True) is False
            # no warm: nothing materialized, so nothing was built
            assert svc.register("lazy", points_2d,
                                kernel=gaussian_kernel) is False
        with KernelService(plan=PLAN, store=store) as svc2:
            # fresh session over the same store: disk hit, still False
            assert svc2.register("grid", points_2d, kernel=gaussian_kernel,
                                 warm=True) is False


class TestReRegistration:
    def test_queued_requests_keep_their_binding(self, points_2d, points_hd,
                                                gaussian_kernel,
                                                hmatrix_2d):
        """Re-registering a points_id must not reroute already-queued
        requests to the new endpoint (they were validated against the
        old one)."""
        with KernelService(plan=PLAN, max_batch=8, max_wait_ms=50.0) as svc:
            svc.register("t", points_2d, kernel=gaussian_kernel, warm=True)
            W = np.random.default_rng(7).random((len(points_2d), 2))
            fut = svc.submit("t", W)
            # Swap the endpoint while the request may still be queued.
            svc.register("t", points_hd, kernel=gaussian_kernel)
            Y = fut.result(30)
        np.testing.assert_allclose(Y, hmatrix_2d.matmul(W), atol=1e-12)
        # New submissions bind to the new endpoint (different n).
        with KernelService(plan=PLAN) as svc2:
            svc2.register("t", points_hd, kernel=gaussian_kernel)
            assert svc2.shape("t") == (len(points_hd), len(points_hd))


class TestBufferAndCallbackSafety:
    def test_caller_mutating_w_after_submit_is_safe(self, points_2d,
                                                    gaussian_kernel,
                                                    hmatrix_2d):
        """submit() snapshots the panel: reusing the buffer afterwards
        must not corrupt the served product."""
        with KernelService(plan=PLAN, max_batch=4, max_wait_ms=30.0) as svc:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            W = np.random.default_rng(11).random((len(points_2d), 2))
            expected = hmatrix_2d.matmul(W)
            fut = svc.submit("grid", W)
            W[:] = -1.0  # dispatcher may not have run yet
            np.testing.assert_allclose(fut.result(30), expected,
                                       atol=1e-12)

    def test_done_callback_may_submit_followup(self, points_2d,
                                               gaussian_kernel):
        """Futures resolve outside the service lock, so a done-callback
        (which runs on the dispatcher thread) can call submit() for a
        follow-up request without deadlocking the service. (Blocking
        *inside* a callback is still forbidden, as for any
        concurrent.futures executor.)"""
        import concurrent.futures

        with KernelService(plan=PLAN, max_batch=2, max_wait_ms=0.0) as svc:
            svc.register("grid", points_2d, kernel=gaussian_kernel,
                         warm=True)
            chained: concurrent.futures.Future = concurrent.futures.Future()

            def chain(fut):
                chained.set_result(
                    svc.submit("grid", np.ones(len(points_2d))))

            first = svc.submit("grid", np.ones(len(points_2d)))
            first.add_done_callback(chain)
            followup = chained.result(30)   # submit() did not block
            assert followup.result(30) is not None


def test_cancelled_future_does_not_kill_dispatcher(points_2d,
                                                   gaussian_kernel):
    """Cancelling a queued request must not crash the dispatcher or
    starve the other requests in its batch."""
    with KernelService(plan=PLAN, max_batch=4, max_wait_ms=50.0) as svc:
        svc.register("grid", points_2d, kernel=gaussian_kernel, warm=True)
        n = len(points_2d)
        first = svc.submit("grid", np.ones(n))
        second = svc.submit("grid", np.ones(n))
        cancelled = second.cancel()  # may lose the race with the batcher
        assert first.result(30) is not None
        if cancelled:
            assert second.cancelled()
        else:
            assert second.result(30) is not None
        # The service must still be alive and serving.
        assert svc.request("grid", np.ones(n), timeout=30) is not None


class TestDispatcherCrash:
    """Regression: a dispatcher-machinery exception during drain used to
    kill the thread silently, leaving every queued Future hung forever.
    The service must fail closed instead: pending futures complete with
    ServiceClosed (chained to the crash), the crash is counted, and
    close() returns promptly."""

    def _crashing_service(self, points_2d, gaussian_kernel):
        svc = KernelService(plan=PLAN, max_batch=4, max_wait_ms=200.0)
        svc.register("grid", points_2d, kernel=gaussian_kernel, warm=True)

        def broken_take_batch():
            raise RuntimeError("injected dispatch defect")

        # Patch the dispatch machinery itself (not the per-batch execute
        # path, which already fences errors into Futures).
        svc._take_batch = broken_take_batch
        return svc

    def test_queued_futures_fail_not_hang(self, points_2d,
                                          gaussian_kernel):
        svc = self._crashing_service(points_2d, gaussian_kernel)
        try:
            fut = svc.submit("grid", np.ones(len(points_2d)))
            with pytest.raises(ServiceClosed, match="dispatcher crashed"):
                fut.result(timeout=30)  # would hang forever before the fix
            assert isinstance(fut.exception(), ServiceClosed)
            assert isinstance(fut.exception().__cause__, RuntimeError)
            # The Future completes *before* the crashing thread unwinds;
            # wait for the unwind so liveness is settled.
            svc._dispatcher.join(timeout=30)
            stats = svc.stats()
            assert stats["dispatcher_crashes"] == 1
            assert stats["dispatcher_alive"] is False
            assert stats["errors"] == 1
            with pytest.raises(ServiceClosed):
                svc.submit("grid", np.ones(len(points_2d)))
        finally:
            svc.close(timeout=30)

    def test_close_completes_leftover_queue(self, points_2d,
                                            gaussian_kernel):
        """Even a Future that slipped into the queue around the crash is
        completed with ServiceClosed by close()'s safety net."""
        svc = self._crashing_service(points_2d, gaussian_kernel)
        fut = svc.submit("grid", np.ones(len(points_2d)))
        svc.close(timeout=30)
        with pytest.raises(ServiceClosed):
            fut.result(timeout=1)
        assert svc.stats()["queue_depth"] == 0

    def test_healthy_service_reports_no_crashes(self, service, points_2d):
        service.request("grid", np.ones(len(points_2d)), timeout=30)
        stats = service.stats()
        assert stats["dispatcher_crashes"] == 0
        assert stats["dispatcher_alive"] is True
