"""The MatRox executor: runs the generated code against the CDS storage.

``matmul(H, W)`` is the paper's Figure 2 executor call. :class:`Executor`
additionally owns a thread pool so repeated evaluations (the common case the
inspector amortises against) reuse worker threads. NumPy's BLAS releases the
GIL inside GEMM, so sub-tree and block tasks overlap on real cores.

All execution knobs travel as one :class:`~repro.api.policy.ExecutionPolicy`
(order, num_threads, q_chunk). There is a single documented default,
:data:`~repro.api.policy.DEFAULT_POLICY` (``order="batched"``): the bucketed
batched-GEMM engine (one stacked GEMM per CDS shape bucket; see DESIGN.md
section 3), falling back to the thread-pool per-block code when the cost
model rejected batch lowering. :func:`matmul_many` streams wide or
many-panel right-hand sides through cache-sized column chunks.

``order="auto"`` resolves through the profile-guided autotuner
(:mod:`repro.tuning`, DESIGN.md section 9) before any evaluator runs: an
Executor carries its own :class:`~repro.tuning.Autotuner` (persisted
through the ``store`` it was given, so profiles warm-start across
processes), while the free functions share the process-global tuner.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.api.policy import (
    DEFAULT_Q_CHUNK,
    ExecutionPolicy,
    resolve_policy,
)
from repro.core.hmatrix import HMatrix

if TYPE_CHECKING:  # annotation-only: the real imports stay lazy
    from repro.api.store import PlanStore
    from repro.tuning.autotune import Autotuner

__all__ = ["Executor", "matmul", "matmul_many", "DEFAULT_Q_CHUNK"]


def _evict_engine(executor_ref, key) -> None:
    """weakref.finalize callback: an HMatrix died, so its cached process
    engine must go — CPython reuses ids, and a stale entry under a
    recycled id would hand a *different* HMatrix another matrix's
    engine. Module-level (not a bound method) so the finalizer itself
    never keeps the executor alive."""
    executor = executor_ref()
    if executor is None:
        return
    entry = executor._engines.pop(key, None)
    if entry is not None:
        executor.engines_evicted += 1
        entry[0].close()


class Executor:
    """Reusable evaluation context with an optional thread pool.

    ``Executor(num_threads=4)`` keeps the legacy shorthand;
    ``Executor(policy=ExecutionPolicy(...))`` carries every knob at once.
    An explicit ``num_threads`` overrides the policy's.

    With ``policy.backend == "process"`` the executor owns one persistent
    :class:`~repro.core.parallel.ProcessEngine` per HMatrix it has seen
    (shared-memory pool, reused across ``matmul``/``matmul_many`` calls)
    and tears them all down on :meth:`close` / context-manager exit.

    ``store`` (a :class:`~repro.api.store.PlanStore`) backs the
    executor's autotuner: ``order="auto"`` profiles persist there and
    warm-start later processes. Without one, auto resolution falls back
    to the process-global tuner (memory-only).
    """

    def __init__(self, num_threads: int | None = None,
                 policy: ExecutionPolicy | None = None,
                 store: PlanStore | None = None,
                 autotuner: Autotuner | None = None):
        """``num_threads=None`` or 1 runs serially (no pool)."""
        self.policy = resolve_policy(policy, num_threads=num_threads)
        self.num_threads = self.policy.num_threads
        self._pool = (
            ThreadPoolExecutor(max_workers=self.num_threads)
            if self.num_threads and self.num_threads > 1
            and self.policy.backend == "thread"
            else None
        )
        # Process engines keyed by the HMatrix identity (plus the knobs
        # that shape the pool); populated lazily, closed with the
        # executor. The identity is weakref-guarded: each entry carries a
        # finalizer that evicts (and closes) it the moment its HMatrix is
        # collected, so a recycled id can never alias another matrix's
        # engine. Bounded: each engine pins worker processes, their
        # share of the batched tables and shared-memory scratch, so an
        # unbounded map would defeat a Session's HMatrix LRU in
        # long-lived serving use.
        self._engines: dict = {}
        self._max_engines = 4
        self._store = store
        self._autotuner = autotuner
        # Engine-cache lifecycle counters (the observability layer's
        # window into pool behaviour; a respawn is the recovery proof
        # after a WorkerCrashError closed an engine).
        self.engines_built = 0
        self.engine_respawns = 0
        self.engines_evicted = 0

    # -------------------------------------------------------------- tuning
    @property
    def autotuner(self) -> Autotuner:
        """This executor's :class:`~repro.tuning.Autotuner` (lazy).

        Backed by the executor's ``store`` when one was given (profiles
        persist and warm-start); otherwise the process-global tuner, so
        repeated auto resolutions amortize across short-lived executors.
        """
        if self._autotuner is None:
            from repro.tuning import Autotuner, default_autotuner
            self._autotuner = (Autotuner(store=self._store)
                               if self._store is not None
                               else default_autotuner())
        return self._autotuner

    def autotune_stats(self) -> dict:
        """Tuner counters (empty dict until auto resolution first runs)."""
        return (self._autotuner.stats_dict()
                if self._autotuner is not None else {})

    def _resolve_auto(self, H: HMatrix, W,
                      pol: ExecutionPolicy) -> ExecutionPolicy:
        if not pol.is_auto:
            return pol
        q = W.shape[1] if getattr(W, "ndim", 1) == 2 else 1
        return self.autotuner.resolve(H, q, pol)

    # ------------------------------------------------------------- engines
    def engine_for(self, H: HMatrix,
                   policy: ExecutionPolicy | None = None):
        """The persistent process engine for ``H`` (created on first use).

        At most ``_max_engines`` engines are kept; the least recently
        used one is closed (workers + segments) to admit a new one.
        Entries are keyed by weakref-guarded identity: the finalizer
        registered on ``H`` evicts the entry when ``H`` is collected,
        and a cache hit additionally verifies ``engine.H is H`` — an id
        recycled by CPython can never serve a stale engine.
        """
        from repro.core.parallel import ProcessEngine

        pol = resolve_policy(policy, fallback=self.policy)
        key = (id(H), pol.num_workers, pol.q_chunk)
        entry = self._engines.pop(key, None)
        if entry is not None:
            engine, finalizer = entry
            if engine.closed or engine.H is not H:
                if engine.closed and engine.H is H:
                    # Same matrix, dead pool (a WorkerCrashError closed
                    # it): the rebuild below IS the recovery respawn.
                    self.engine_respawns += 1
                finalizer.detach()
                engine.close()
                entry = None
        if entry is None:
            engine = ProcessEngine(H, num_workers=pol.num_workers,
                                   q_chunk=pol.q_chunk)
            self.engines_built += 1
            finalizer = weakref.finalize(
                H, _evict_engine, weakref.ref(self), key)
            entry = (engine, finalizer)
        self._engines[key] = entry  # re-insert = move to MRU position
        while len(self._engines) > self._max_engines:
            oldest = next(iter(self._engines))
            old_engine, old_finalizer = self._engines.pop(oldest)
            # Detach first: the old H dying later must not evict (and
            # close) a successor entry that reused its id.
            old_finalizer.detach()
            old_engine.close()
            self.engines_evicted += 1
        return entry[0]

    def engine_stats(self) -> dict:
        """Engine-cache lifecycle counters (stats export / manifests)."""
        return {
            "active": len(self._engines),
            "built": self.engines_built,
            "respawns": self.engine_respawns,
            "evicted": self.engines_evicted,
        }

    def matmul(self, H: HMatrix, W: np.ndarray, order: str | None = None,
               q_chunk: int | None = None,
               policy: ExecutionPolicy | None = None) -> np.ndarray:
        """``Y = H @ W`` under ``policy`` (explicit knobs override it)."""
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk,
                             fallback=self.policy)
        pol = self._resolve_auto(H, W, pol)
        if pol.backend == "process" and pol.order != "original":
            # The process engine implements the batched lowering only;
            # order="original" explicitly asks for the per-block code, so
            # it wins over the backend and runs in-process.
            return self.engine_for(H, pol).matmul(W)
        if self._pool is None and pol.num_threads and pol.num_threads > 1:
            # Per-call thread request on a pool-less executor: honor it
            # with a short-lived pool rather than silently running serial.
            return H.matmul(W, policy=pol)
        return H.matmul(W, pool=self._pool, order=pol.order,
                        q_chunk=pol.q_chunk)

    def matmul_many(self, H: HMatrix, W, order: str | None = None,
                    q_chunk: int | None = None,
                    policy: ExecutionPolicy | None = None):
        """Evaluate ``H @ W`` for a wide or many-panel right-hand side.

        A single ``(N, Q)`` array is streamed through column chunks of at
        most ``q_chunk`` (the generated evaluator's cache-sized default
        when unset) so each pass's panels stay cache-resident, and the
        result is returned as one ``(N, Q)`` array. Any other iterable is
        treated as a stream of independent right-hand-side panels and a
        list of results is returned. Chunking happens once, inside the
        selected evaluator — ``q_chunk`` is honored exactly. An auto
        policy resolves per panel, so a stream whose panel widths drift
        across bucket boundaries re-tunes exactly when the optimum can
        move.
        """
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk,
                             fallback=self.policy)
        if isinstance(W, np.ndarray):
            return self.matmul(H, W, policy=pol)
        return [self.matmul_many(H, w, policy=pol) for w in W]

    def close(self) -> None:
        """Shut the thread pool down and tear down every process engine
        (worker processes + shared-memory segments). Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for engine, finalizer in self._engines.values():
            finalizer.detach()
            engine.close()
        self._engines.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def matmul(H: HMatrix, W: np.ndarray, num_threads: int | None = None,
           order: str | None = None, q_chunk: int | None = None,
           policy: ExecutionPolicy | None = None) -> np.ndarray:
    """``Y = H @ W`` — the executor entry point of the paper's Figure 2.

    Thin shim over the policy layer: knobs resolve against
    :data:`~repro.api.policy.DEFAULT_POLICY`; ``order="auto"`` resolves
    through the process-global autotuner, so repeated calls reuse the
    profile tuned on the first one.

    .. versionchanged:: 1.1
       The default ``order`` is now the shared policy default
       (``"batched"``); it was previously ``"original"`` here while
       :func:`matmul_many` already defaulted to ``"batched"``. The batched
       engine falls back to the per-block code when the cost model rejected
       batch lowering, so results only move at rounding level.
    """
    pol = resolve_policy(policy, order=order, num_threads=num_threads,
                         q_chunk=q_chunk)
    if pol.is_auto:
        from repro.tuning import resolve_auto
        pol = resolve_auto(H, W, pol)
    if pol.backend == "process" or (pol.num_threads and pol.num_threads > 1):
        with Executor(policy=pol) as ex:
            return ex.matmul(H, W)
    return H.matmul(W, order=pol.order, q_chunk=pol.q_chunk)


def matmul_many(H: HMatrix, W, num_threads: int | None = None,
                order: str | None = None, q_chunk: int | None = None,
                policy: ExecutionPolicy | None = None):
    """Multi-RHS streaming evaluation (see :meth:`Executor.matmul_many`).

    Thin shim over the policy layer; shares the single
    :data:`~repro.api.policy.DEFAULT_POLICY` default (``order="batched"``)
    with :func:`matmul` — the two entry points no longer disagree.
    """
    pol = resolve_policy(policy, order=order, num_threads=num_threads,
                         q_chunk=q_chunk)
    if pol.is_auto:
        from repro.tuning import default_autotuner
        with Executor(policy=pol, autotuner=default_autotuner()) as ex:
            return ex.matmul_many(H, W)
    with Executor(policy=pol) as ex:
        return ex.matmul_many(H, W)
