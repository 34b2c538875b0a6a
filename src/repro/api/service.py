"""KernelService: a thread-safe, micro-batching serving façade.

One :class:`~repro.api.session.Session` is not a server: its caches are
single-owner and every caller pays a full ``matmul`` per request.
:class:`KernelService` turns it into one:

* **registration** binds a ``points_id`` to a point set + kernel + plan
  (the tenant's compiled artifact — warm-started from the session's
  :class:`~repro.api.store.PlanStore` when one is attached);
* **submit(points_id, W)** is safe from any thread and returns a
  :class:`concurrent.futures.Future`;
* a single **dispatcher thread** owns all Session access (the
  concurrency-safe request path: callers only touch the queue) and
  **micro-batches** compatible requests — queued requests for the same
  HMatrix are stacked column-wise into ONE ``matmul`` call, amortizing
  the batched-GEMM engine (and, with ``backend="process"``, the worker
  pool) across tenants; per-request results are split back out of the
  stacked product and equal a solo evaluation of the same columns to
  rounding (bit-identical only when BLAS runs GEMMs of the same widths:
  it may pick another kernel for a narrower product);
* per-request **latency and queue-depth stats** (p50/p99, batch sizes)
  make the serving behaviour observable.

The protocol is documented in DESIGN.md section 8; the CLI front-end is
``repro serve --requests`` and the benchmark is
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.plan import PlanConfig
from repro.api.policy import ExecutionPolicy
from repro.api.session import Session
from repro.observability.sync import make_condition, make_lock
from repro.utils.validation import check_finite

if TYPE_CHECKING:  # annotation-only: the session owns the store import
    from repro.api.store import PlanStore

__all__ = ["KernelService", "ServiceClosed"]


class ServiceClosed(RuntimeError):
    """Raised by submit()/register() after the service has been closed."""


@dataclass
class _Endpoint:
    """A registered tenant: the immutable inputs of one compiled plan."""

    points: np.ndarray[Any, np.dtype[Any]]
    kernel: Any
    plan: PlanConfig
    n: int


@dataclass
class _Pending:
    """One queued request (W normalized to a 2-D column panel).

    The endpoint is captured *at submit time*: re-registering a
    points_id never reroutes requests that were validated against the
    earlier binding.
    """

    points_id: str
    endpoint: _Endpoint
    W: np.ndarray[Any, np.dtype[Any]]
    cols: int
    squeeze: bool
    future: Future[Any]
    t_submit: float


class KernelService:
    """Concurrent request front-end over one Session.

    Parameters
    ----------
    session:
        An existing :class:`Session` to serve from (not closed on service
        close). Omitted, the service owns a fresh one built from
        ``store``/``plan``/``policy``/``num_threads``.
    store:
        Forwarded to the owned Session — a
        :class:`~repro.api.store.PlanStore` (or directory path) so
        registration warm-starts from compiled artifacts.
    max_batch:
        Most requests merged into one stacked ``matmul`` (>= 1; 1
        disables micro-batching entirely).
    max_wait_ms:
        How long the dispatcher lingers for stragglers when fewer than
        ``max_batch`` compatible requests are queued. 0 batches only
        what is already queued.
    manifest:
        Write a :class:`~repro.observability.RunManifest` at
        :meth:`close` (best-effort — a failed write never fails the
        close). ``True`` writes under ``manifests/`` next to the
        session's store (requires a disk-backed one); a path writes
        there instead (a ``.json`` path names the exact file).

    Thread-safety contract: ``submit``/``request``/``stats`` may be
    called from any thread; all Session/Executor access happens on the
    dispatcher thread (plus ``register(warm=True)``/``warm()``, which
    serialize against it with a lock).
    """

    def __init__(self, session: Session | None = None, *,
                 store: PlanStore | str | Path | None = None,
                 plan: PlanConfig | None = None,
                 policy: ExecutionPolicy | None = None,
                 num_threads: int | None = None,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 latency_window: int = 10_000,
                 manifest: bool | str | Path = False):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._owns_session = session is None
        if session is None:
            session = Session(plan=plan, policy=policy,
                              num_threads=num_threads, store=store)
        self.session = session
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1e3
        self._manifest_target: Path | None = None
        self._manifest_written = False
        #: Where close() actually wrote the run manifest (None until
        #: then, and still None when the best-effort write failed).
        self.manifest_path: Path | None = None
        if manifest:
            if manifest is True:
                if self.session.store.directory is None:
                    raise ValueError(
                        "manifest=True writes next to the store and needs "
                        "a disk-backed one; pass manifest=<path> for a "
                        "memory-only service"
                    )
                self._manifest_target = (
                    self.session.store.directory / "manifests")
            else:
                self._manifest_target = Path(manifest)

        self._endpoints: dict[str, _Endpoint] = {}
        self._queue: deque[_Pending] = deque()  # guarded-by: self._cv
        self._cv = make_condition("KernelService._cv")
        self._closed = False  # guarded-by: self._cv
        self._draining = False  # guarded-by: self._cv
        # requests taken off the queue, not yet resolved
        self._inflight = 0  # guarded-by: self._cv
        # register()/warm() run session.inspect on caller threads; the
        # dispatcher runs inspect+matmul. This lock serializes them.
        self._session_lock = make_lock("KernelService._session_lock")

        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._batch_sizes: deque[int] = deque(maxlen=latency_window)
        self._max_queue_depth = 0  # guarded-by: self._cv
        self._served = 0  # guarded-by: self._cv
        self._errors = 0  # guarded-by: self._cv
        self._dispatcher_crashes = 0  # guarded-by: self._cv

        self._dispatcher = threading.Thread(
            target=self._loop, name="kernel-service-dispatcher", daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------- endpoints
    def register(self, points_id: str, points: Any,
                 kernel: Any = "gaussian",
                 plan: PlanConfig | None = None, bacc: float | None = None,
                 warm: bool = False) -> bool:
        """Bind ``points_id`` to a point set + kernel + plan.

        ``warm=True`` inspects (or loads from the plan store) immediately,
        so the first request pays no build latency. Returns whether a
        fresh plan build happened (always ``False`` without ``warm``;
        ``False`` with it means the artifact came from the session cache
        or the plan store).
        """
        with self._cv:
            if self._closed or self._draining:
                raise ServiceClosed(
                    "cannot register on a closed or draining service")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        plan = self.session._resolve_plan(plan, bacc)
        self._endpoints[points_id] = _Endpoint(
            points=pts, kernel=kernel, plan=plan, n=len(pts))
        return self.warm(points_id) if warm else False

    def warm(self, points_id: str | None = None) -> bool:
        """Materialize one endpoint (or all) now, through the plan store.

        Returns whether any fresh plan build happened; the build counter
        is read under the session lock, so the answer is about *this*
        call even with the dispatcher (or other warmers) running.
        """
        ids = [points_id] if points_id is not None else list(self._endpoints)
        built = False
        for pid in ids:
            ep = self._endpoints[pid]
            with self._session_lock:
                before = self.session.stats.p2_builds
                self.session.inspect(ep.points, kernel=ep.kernel,
                                     plan=ep.plan)
                built = built or self.session.stats.p2_builds > before
        return built

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def shape(self, points_id: str) -> tuple[int, int]:
        """Operator shape served under ``points_id``."""
        ep = self._endpoints.get(points_id)
        if ep is None:
            raise KeyError(f"unknown points_id {points_id!r}")
        return (ep.n, ep.n)

    # -------------------------------------------------------------- requests
    def submit(self, points_id: str, W: Any) -> Future[Any]:
        """Enqueue ``Y = K[points_id] @ W``; returns a Future of Y.

        Safe from any thread. Shape errors and non-finite entries raise
        ``ValueError`` immediately (here, not in the Future), before the
        request is queued, so one bad panel never fails a micro-batch of
        others; execution errors surface through the Future.
        """
        ep = self._endpoints.get(points_id)
        if ep is None:
            raise KeyError(
                f"unknown points_id {points_id!r}; register() it first "
                f"(known: {self.endpoints()})")
        # Always copy: the dispatcher reads the panel asynchronously (up
        # to max_wait_ms later), so a caller reusing its buffer after
        # submit() must not be able to corrupt the served product.
        W = np.array(W, dtype=np.float64, order="C", copy=True)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        if W.ndim != 2 or W.shape[0] != ep.n:
            raise ValueError(
                f"W must have {ep.n} rows for {points_id!r}, got shape "
                f"{W.shape}")
        check_finite(W)
        item = _Pending(points_id, ep, W, W.shape[1], squeeze, Future(),
                        time.perf_counter())
        with self._cv:
            if self._closed or self._draining:
                raise ServiceClosed(
                    "cannot submit to a closed or draining service")
            self._queue.append(item)
            self._max_queue_depth = max(self._max_queue_depth,
                                        len(self._queue))
            self._cv.notify()
        return item.future

    def request(self, points_id: str, W: Any,
                timeout: float | None = None) -> Any:
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(points_id, W).result(timeout)

    # ------------------------------------------------------------ dispatcher
    def _take_batch(self) -> list[_Pending]:
        """Pop the head request plus up to ``max_batch - 1`` queued
        requests for the same endpoint (callers hold ``self._cv``).
        Skipped (incompatible) requests keep their queue order."""
        head = self._queue.popleft()
        batch = [head]
        if self.max_batch > 1:
            skipped: list[_Pending] = []
            while self._queue and len(batch) < self.max_batch:
                item = self._queue.popleft()
                # Same *endpoint object*, not just the same name: requests
                # validated against a superseded registration never share
                # a stacked product with the new one.
                if item.endpoint is head.endpoint:
                    batch.append(item)
                else:
                    skipped.append(item)
            self._queue.extendleft(reversed(skipped))
        return batch

    def _loop(self) -> None:
        # _execute already fences per-batch errors into Futures, so
        # anything escaping to here is a defect in the dispatch machinery
        # itself (e.g. _take_batch). Without the except, the thread would
        # die silently and every queued Future would hang forever;
        # instead the service fails closed: pending requests complete
        # with ServiceClosed and later submits are refused.
        try:
            while True:
                with self._cv:
                    while not self._queue and not self._closed:
                        self._cv.wait()
                    if not self._queue:
                        return  # closed and fully drained
                    if (self.max_batch > 1 and self.max_wait > 0
                            and not self._closed and not self._draining
                            and len(self._queue) < self.max_batch):
                        # Linger briefly so a burst coalesces into one
                        # batch. (Never during drain: nothing new can
                        # arrive, so lingering only delays completion.)
                        deadline = time.perf_counter() + self.max_wait
                        while (len(self._queue) < self.max_batch
                               and not self._closed and not self._draining):
                            remaining = deadline - time.perf_counter()
                            if remaining <= 0:
                                break
                            self._cv.wait(remaining)
                    batch = self._take_batch()
                    self._inflight += len(batch)
                try:
                    self._execute(batch)
                finally:
                    with self._cv:
                        self._inflight -= len(batch)
                        self._cv.notify_all()
        except BaseException as exc:
            self._dispatcher_failed(exc)
            raise

    def _dispatcher_failed(self, exc: BaseException) -> None:
        """Fail closed after a dispatcher crash: refuse new requests and
        complete every still-queued Future with ServiceClosed (chained to
        the crash) rather than leaving callers hung on result()."""
        with self._cv:
            self._dispatcher_crashes += 1
            self._closed = True
            pending = list(self._queue)
            self._queue.clear()
            self._errors += len(pending)
            self._cv.notify_all()
        wrapped = ServiceClosed(
            f"dispatcher crashed ({type(exc).__name__}: {exc}); "
            f"queued request abandoned")
        wrapped.__cause__ = exc
        for p in pending:
            if p.future.set_running_or_notify_cancel():
                p.future.set_exception(wrapped)

    def _execute(self, batch: list[_Pending]) -> None:
        # Transition every future to RUNNING, dropping any the caller
        # cancelled while queued: after this, set_result/set_exception
        # can never raise InvalidStateError and kill the dispatcher.
        batch = [p for p in batch
                 if p.future.set_running_or_notify_cancel()]
        if not batch:
            return
        ep = batch[0].endpoint  # submit-time binding, see _Pending
        try:
            with self._session_lock:
                H = self.session.inspect(ep.points, kernel=ep.kernel,
                                         plan=ep.plan)
                W = (batch[0].W if len(batch) == 1
                     else np.hstack([p.W for p in batch]))
                Y = self.session.matmul(H, W)
        except BaseException as exc:
            with self._cv:
                self._errors += len(batch)
            for p in batch:
                p.future.set_exception(exc)
            return
        done = time.perf_counter()
        with self._cv:
            for p in batch:
                self._latencies.append(done - p.t_submit)
            self._batch_sizes.append(len(batch))
            self._served += len(batch)
        # Resolve Futures OUTSIDE the lock: set_result runs user
        # done-callbacks synchronously, and a blocking callback must not
        # stall submit()/stats() or deadlock the dispatcher.
        offset = 0
        for p in batch:
            y = np.ascontiguousarray(Y[:, offset:offset + p.cols])
            offset += p.cols
            p.future.set_result(y[:, 0] if p.squeeze else y)

    # --------------------------------------------------------------- metrics
    def stats(self, include_autotune: bool = True) -> dict[str, Any]:
        """Serving metrics: latency percentiles, batching, queue depth.

        ``include_autotune=False`` omits the nested tuner dict — the
        manifest builder records tuner counters under their own key and
        must not double-count them here.
        """
        with self._cv:
            lat = np.asarray(self._latencies, dtype=float)
            sizes = np.asarray(self._batch_sizes, dtype=float)
            out: dict[str, Any] = {
                "served": self._served,
                "errors": self._errors,
                "queue_depth": len(self._queue),
                "max_queue_depth": self._max_queue_depth,
                "batches": int(len(sizes)),
                "mean_batch": float(sizes.mean()) if len(sizes) else 0.0,
                "max_batch_observed": int(sizes.max()) if len(sizes) else 0,
                "dispatcher_crashes": self._dispatcher_crashes,
                "dispatcher_alive": self._dispatcher.is_alive(),
                "draining": self._draining and not self._closed,
                "inflight": self._inflight,
            }
        for name, q in (("p50_ms", 50), ("p99_ms", 99)):
            out[name] = (float(np.percentile(lat, q) * 1e3)
                         if len(lat) else 0.0)
        out["mean_ms"] = float(lat.mean() * 1e3) if len(lat) else 0.0
        if include_autotune:
            # Auto-policy visibility: with order="auto", each stacked
            # batch resolves through the session's tuner, and a batch
            # whose total width drifts into a different bucket tunes a
            # fresh profile — `tunes` counts exactly those drift re-tunes.
            out["autotune"] = self.session._executor.autotune_stats()
        return out

    # ------------------------------------------------------------- lifecycle
    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting new requests; wait for accepted ones to finish.

        The SIGTERM-friendly half of shutdown, separate from
        :meth:`close`: after ``drain()`` returns ``True``, every Future
        accepted before the drain began has *completed* (the dispatcher
        keeps running them — nothing is abandoned with
        :class:`ServiceClosed`), while ``submit``/``register`` refuse new
        work immediately. The session and dispatcher stay up, so
        ``stats()``/manifest collection still work; call :meth:`close`
        afterwards to tear down.

        Returns ``False`` if ``timeout`` elapsed with work still in
        flight (the drain state persists; a later call can keep
        waiting). Idempotent and safe from any thread.
        """
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._cv:
            self._draining = True
            self._cv.notify_all()  # wake a lingering dispatcher now
            while self._queue or self._inflight:
                if not self._dispatcher.is_alive():
                    # A crashed dispatcher already failed the queue; the
                    # drain itself is then complete (nothing can run).
                    return True
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    return False
                # Bounded waits so a dispatcher that dies without
                # notifying (SIGKILLed interpreter thread, debugger) is
                # still noticed by the aliveness check above.
                self._cv.wait(0.1 if remaining is None
                              else min(remaining, 0.1))
        return True

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the queue, join the dispatcher.

        Owned sessions (constructed by the service) are closed too;
        borrowed ones are left running.
        """
        with self._cv:
            already_down = self._closed and not self._dispatcher.is_alive()
            self._closed = True
            self._cv.notify_all()
        if not already_down:
            self._dispatcher.join(timeout)
        if not self._dispatcher.is_alive():
            # Safety net: anything still queued can never run now (the
            # dispatcher is gone) — complete it with ServiceClosed
            # rather than leaving the caller hung on result().
            with self._cv:
                pending = list(self._queue)
                self._queue.clear()
                self._errors += len(pending)
            for p in pending:
                if p.future.set_running_or_notify_cancel():
                    p.future.set_exception(ServiceClosed(
                        "service closed before the request was dispatched"))
            if self._manifest_target is not None \
                    and not self._manifest_written:
                # Stats must be collected while the (possibly owned)
                # session is still open; the write itself is best-effort.
                self._manifest_written = True
                from repro.observability.manifest import (
                    build_run_manifest,
                    write_run_manifest,
                )
                self.manifest_path = write_run_manifest(
                    build_run_manifest(service=self), self._manifest_target)
        # Only tear the session (pools, process engines) down once the
        # dispatcher has actually exited — a timed-out join means a batch
        # is still inside session.matmul.
        if self._owns_session and not self._dispatcher.is_alive():
            self.session.close()

    def __enter__(self) -> "KernelService":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
