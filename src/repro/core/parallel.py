"""Process-parallel sharded execution backend (``backend="process"``).

The batched engine (DESIGN.md section 3) runs its program as four loop
functions over one :class:`~repro.codegen.emit.BatchedTables`. This
module deals the entries of those same tables across a persistent pool
of **worker processes**:

* the tables are the HMatrix's own (``H.batched_tables``, built once per
  plan, whether or not the cost model accepted batching);
* whole entries are dealt to workers with a deterministic LPT
  (longest-processing-time) packing over their sizes: a near super-row
  panel, a coupling-stack member (one output node) or a leaf-bucket
  member. A worker receives its entries at start, by fork inheritance
  (pickled under spawn), and runs the serial engine's near, up, far and
  down loop functions over them; nothing is built in a worker;
* per call, W/Y/T/S live in four shared scratch segments and the product
  runs as three barrier phases (see :class:`ProcessEngine`). Every output
  row slice has exactly one writer, in the serial engine's GEMM
  granularity, so the "reduction" of per-shard partial products is a
  disjoint scatter and the result is **bit-identical** to the serial
  batched *lowering* — not merely within rounding. (On matrices where
  the cost model rejected batching, serial ``order="batched"`` falls
  back to the per-block code, and the process backend agrees with that
  fallback only to rounding, < 1e-12 relative.)

The pool is built once per (HMatrix, worker count) and reused across
calls/chunks — the process analogue of the inspector-executor contract's
"inspect once, execute many". :class:`~repro.core.executor.Executor` and
:class:`~repro.api.session.Session` own engine lifecycles and tear them
down on ``close()``.

:meth:`ProcessEngine.access_trace` writes the barrier protocol as a sync
trace (DESIGN.md §13.2) — pipe messages and each worker's row-interval
accesses to the shared arrays — which the happens-before checker of the
thread tier (:mod:`repro.analysis.happens_before`) certifies.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing as mp
import os
import signal
import sys
import traceback
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.api.policy import DEFAULT_Q_CHUNK, effective_cpu_count
from repro.codegen.emit import (
    BatchedTables,
    _tree_bucket,
    down_pass,
    far_pass,
    near_pass,
    up_pass,
)
from repro.observability.faults import active_fault_plan
from repro.observability.sync import (
    SYNC_TRACE_DIR_ENV,
    SYNC_TRACE_VERSION,
    maybe_dump_sync_trace,
)
from repro.utils.validation import check_finite

__all__ = ["ProcessEngine", "WorkerCrashError", "default_start_method",
           "shard_by_weight"]

# Phases of the barrier protocol (master interleaves the interior tree
# levels, which are cheap and strictly ordered, between worker phases).
_PHASE_NEAR_AND_LEAF_UP = 1
_PHASE_FAR = 2
_PHASE_LEAF_DOWN = 3

#: Public names of the barrier phases (the fault-injection vocabulary:
#: a FaultPlan kills a worker at one of these named points).
PHASE_NAMES = {
    _PHASE_NEAR_AND_LEAF_UP: "near_and_leaf_up",
    _PHASE_FAR: "far",
    _PHASE_LEAF_DOWN: "leaf_down",
}


class WorkerCrashError(RuntimeError):
    """A pool worker died or failed mid-barrier.

    The engine is closed (fail closed: a partially-written shared Y must
    never be served) before this is raised; the owning
    :class:`~repro.core.executor.Executor` builds a fresh engine — pool
    respawn — on the next request for the same HMatrix.
    """


def default_start_method() -> str:
    """The multiprocessing start method the engine uses.

    ``fork`` on Linux (cheap startup, inherits the imported interpreter),
    ``spawn`` everywhere else — macOS has fork available but CPython made
    spawn its default there for a reason (forking after thread/BLAS
    runtime initialization is unsafe on darwin). Override with
    ``MATROX_MP_START``.
    """
    env = os.environ.get("MATROX_MP_START")
    if env:
        return env
    if sys.platform == "linux" and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def shard_by_weight(weights: list[float], num_shards: int) -> list[list[int]]:
    """Deterministic LPT packing: item indices grouped into ``num_shards``.

    Items are placed heaviest-first onto the least-loaded shard (ties
    broken by shard id), so the same inputs always produce the same
    shards and the shard loads stay within one item of balanced.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    loads = [0.0] * num_shards
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for i in order:
        s = min(range(num_shards), key=lambda j: (loads[j], j))
        shards[s].append(i)
        loads[s] += weights[i]
    # Preserve visit order inside each shard (determinism of the panel
    # tables, which concatenate members in order).
    return [sorted(s) for s in shards]


# --------------------------------------------------------------------------
# Dealing the tables' entries to workers.
# --------------------------------------------------------------------------

def _stack_members(stack, sel):
    """Members ``sel`` of a coupling stack ``(P, idx, rows)``."""
    P, idx, rows = stack
    if len(sel) == len(P):
        return stack
    return (P[sel], idx[sel], rows.reshape(len(P), -1)[sel].ravel())


def _bucket_members(bucket, sel):
    """Members ``sel`` of a leaf bucket. They are taken from the
    untransposed stack and :func:`~repro.codegen.emit._tree_bucket`
    takes the transposed view afterwards, so every member GEMM keeps the
    operand layout of the serial engine's call."""
    G, _GT, gather, _flat, _own, own2d, from_w = bucket
    if len(sel) == len(G):
        return bucket
    return _tree_bucket(G[sel], gather[sel], own2d[sel].ravel(), from_w)


def _deal(tables: BatchedTables, shards: int) -> list[BatchedTables]:
    """Deal the tables' worker entries to ``shards`` workers.

    The units are whole near super-row panels, coupling-stack members
    (one output node each) and leaf-bucket members, packed by
    :func:`shard_by_weight` over their generator sizes. Interior tree
    buckets stay with the master. Each worker's share is a
    :class:`BatchedTables` of the same form, with one leaf level.
    """
    def members(stacks, select) -> list[tuple]:
        # Units are (stack, member); a worker's members of one stack
        # stay together, in order, as one smaller stack.
        units = [(e, m) for e, st in enumerate(stacks)
                 for m in range(len(st[0]))]
        picks = shard_by_weight(
            [float(stacks[e][0][0].size) for e, _m in units], shards)
        return [
            tuple(select(stacks[e], np.array([m for _e, m in group]))
                  for e, group in itertools.groupby(
                      (units[i] for i in pick), key=lambda u: u[0]))
            for pick in picks
        ]

    near = shard_by_weight([float(e[0].size) for e in tables.near], shards)
    leaf = members([b for level in tables.levels for b in level if b[-1]],
                   _bucket_members)
    far = members(tables.far, _stack_members)
    return [
        BatchedTables(tables.rank_rows,
                      near=tuple(tables.near[i] for i in near[w]),
                      levels=(leaf[w],), far=far[w])
        for w in range(shards)
    ]


def _run_phase(tables: BatchedTables, phase: int, W, Y, T, S, buf) -> None:
    """One worker's share of one barrier phase."""
    if phase == _PHASE_NEAR_AND_LEAF_UP:
        near_pass(tables.near, W, Y,
                  buf[:tables.max_k * W.shape[1]].reshape(-1, W.shape[1]))
        up_pass(tables.levels, W, T)
    elif phase == _PHASE_FAR:
        far_pass(tables.far, T, S)
    elif phase == _PHASE_LEAF_DOWN:
        down_pass(tables.levels, S, Y)
    else:  # pragma: no cover - protocol bug guard
        raise ValueError(f"unknown phase {phase}")


# --------------------------------------------------------------------------
# The protocol as a sync trace.
# --------------------------------------------------------------------------

def _row_runs(rows) -> list[tuple[int, int]]:
    """The rows of an index array as maximal ``[lo, hi)`` intervals."""
    rows = np.unique(np.asarray(rows))
    if not rows.size:
        return []
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    return [(int(run[0]), int(run[-1]) + 1) for run in np.split(rows, cuts)]


def _worker_accesses(tables: BatchedTables) -> dict[int, list[tuple]]:
    """``phase -> [(mode, array, lo, hi)]`` for one worker's share.

    A near super-row is one panel: a wide product writes all its rows
    with one GEMM, so its Y write is the panel's whole row range, and it
    reads the W rows of its gather runs. A leaf-bucket member reads its
    gather rows and writes its skeleton rows of T (phase 1), and the
    transpose in phase 3; a coupling-stack member writes its output rows
    of S and reads its operand rows of T (phase 2).
    """
    acc: dict[int, set] = {phase: set() for phase in PHASE_NAMES}

    def add(phase, mode, array, runs):
        acc[phase].update((mode, array, lo, hi) for lo, hi in runs)

    for _panel, runs, _k, si, ei, _slices in tables.near:
        add(_PHASE_NEAR_AND_LEAF_UP, "write", "Y", [(si, ei)])
        add(_PHASE_NEAR_AND_LEAF_UP, "read", "W", runs)
    for level in tables.levels:
        for _G, _GT, gather, _flat, own, _own2d, from_w in level:
            add(_PHASE_NEAR_AND_LEAF_UP, "read", "W" if from_w else "T",
                _row_runs(gather))
            add(_PHASE_NEAR_AND_LEAF_UP, "write", "T", _row_runs(own))
            add(_PHASE_LEAF_DOWN, "read", "S", _row_runs(own))
            add(_PHASE_LEAF_DOWN, "write", "Y" if from_w else "S",
                _row_runs(gather))
    for _P, idx, rows in tables.far:
        add(_PHASE_FAR, "write", "S", _row_runs(rows))
        add(_PHASE_FAR, "read", "T", _row_runs(idx))
    return {phase: sorted(a) for phase, a in acc.items()}


#: The master's own accesses after each worker phase, whole arrays: the
#: interior up and down levels, then the read-out of Y.
_MASTER_STEPS = {
    _PHASE_NEAR_AND_LEAF_UP: ("master_up", (("read", "T"), ("write", "T"))),
    _PHASE_FAR: ("master_down", (("read", "S"), ("write", "S"))),
    _PHASE_LEAF_DOWN: ("readout", (("read", "Y"),)),
}


def _protocol_trace(shards, n: int, rank_rows: int) -> dict:
    """One column chunk of the barrier protocol as a sync trace.

    Thread 0 is the master and thread ``w + 1`` worker ``w``. A barrier
    phase is the messages it sends: the master puts the command on each
    worker's command pipe, the worker takes it, makes its accesses and
    puts its reply on its reply pipe, and the master takes every reply.
    Each pipe direction is its own object with one producer, so the
    checker's queue rule adds no edge the protocol does not have. Array
    accesses are ``read``/``write`` events on ``W``/``Y``/``T``/``S``
    with their ``rows``; the guard names the phase.
    """
    arrays = {"W": (0, n), "Y": (1, n), "T": (2, rank_rows),
              "S": (3, rank_rows)}
    events: list[dict] = []

    def emit(op, thread, **fields):
        events.append({"seq": len(events) + 1, "op": op, "thread": thread,
                       **fields})

    def access(thread, phase, mode, array, lo, hi):
        emit(mode, thread, obj=arrays[array][0], name=array,
             guard=f"barrier:{phase}", rows=[int(lo), int(hi)])

    def master_step(phase, accesses):
        for mode, array in accesses:
            access(0, phase, mode, array, 0, arrays[array][1])

    master_step("setup", (("write", "W"), ("write", "Y"), ("write", "S")))
    workers = [(w + 1, _worker_accesses(t)) for w, t in enumerate(shards)]
    command, reply = 4, 4 + len(workers)
    for phase, (step, accesses) in _MASTER_STEPS.items():
        for thread, _acc in workers:
            emit("q_put", 0, obj=command + thread)
        for thread, acc in workers:
            emit("q_get", thread, obj=command + thread)
            for mode, array, lo, hi in acc[phase]:
                access(thread, PHASE_NAMES[phase], mode, array, lo, hi)
            emit("q_put", thread, obj=reply + thread)
        for thread, _acc in workers:
            emit("q_get", 0, obj=reply + thread)
        master_step(step, accesses)
    threads = {"0": "master"}
    threads.update({str(t): f"worker{t - 1}" for t, _acc in workers})
    return {"sync_trace_version": SYNC_TRACE_VERSION, "name": "engine",
            "threads": threads, "events": events}


# --------------------------------------------------------------------------
# Worker process entry point.
# --------------------------------------------------------------------------

def _attach(name: str):
    """Attach an existing shared segment without taking ownership.

    On Python >= 3.13 ``track=False`` skips resource-tracker registration
    outright. Earlier versions register on attach, but worker processes
    share the engine's tracker, so the duplicate register is a no-op
    set-add and the engine's ``unlink()`` performs the single unregister —
    attaching must NOT unregister, or it would strip the owner's entry.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 signature has no ``track``
        return shared_memory.SharedMemory(name=name)


def _worker_main(conn, wid: int, tables: BatchedTables, shm_names: dict,
                 n: int, q_cap: int) -> None:
    """Worker loop: attach the shared scratch, serve phase requests."""
    segs = {key: _attach(name) for key, name in shm_names.items()}
    try:
        r = max(tables.rank_rows, 1)
        buf = np.empty(tables.max_k * q_cap)
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                conn.send(("bye", wid))
                break
            phase, q = msg
            try:
                W = np.ndarray((n, q), dtype=np.float64,
                               buffer=segs["W"].buf)
                Y = np.ndarray((n, q), dtype=np.float64,
                               buffer=segs["Y"].buf)
                T = np.ndarray((r, q), dtype=np.float64,
                               buffer=segs["T"].buf)
                S = np.ndarray((r, q), dtype=np.float64,
                               buffer=segs["S"].buf)
                _run_phase(tables, phase, W, Y, T, S, buf)
                conn.send(("ok", wid))
            except Exception:
                conn.send(("err", wid, traceback.format_exc()))
    finally:
        for seg in segs.values():
            seg.close()
        conn.close()


# --------------------------------------------------------------------------
# The engine.
# --------------------------------------------------------------------------

class ProcessEngine:
    """Persistent process pool evaluating ``Y = H @ W`` over the batched
    tables' entries.

    Protocol per column chunk (master = the calling process):

    1. master writes the permuted W chunk into shared scratch and zeroes
       Y/S; **phase 1**: workers run their near super-row panels into Y
       and their leaf-bucket members into T (both read only W);
    2. master runs the interior upward levels (strictly ordered, small);
       **phase 2**: workers run their coupling-stack members into S
       (read T);
    3. master runs the interior downward levels; **phase 3**: workers
       scatter their leaf-bucket members' ``G @ S`` into Y.

    Each Y/T/S row slice is written by exactly one worker with the same
    GEMMs the serial batched engine issues, so results are
    bit-identical to ``order="batched"`` on one process whenever the cost
    model accepted batch lowering (when it rejected it, the serial path
    falls back to per-block code and agreement is < 1e-12, not bitwise).

    ``num_workers=0`` keeps the exact sharded code path but runs every
    shard inline (no pool, no shared memory) — the degenerate case tests
    pin. Use as a context manager or call :meth:`close`; an
    :class:`~repro.core.executor.Executor` or
    :class:`~repro.api.session.Session` does this for you.
    """

    def __init__(self, H, num_workers: int | None = None,
                 q_chunk: int | None = None,
                 start_method: str | None = None):
        # The engine holds H *weakly* plus direct references to the
        # arrays it actually needs (the permutation and the batched
        # tables), so caching an engine in an Executor never pins an
        # HMatrix past its own lifetime — its collection is the eviction
        # signal.
        self._H_ref = weakref.ref(H)
        self._perm = np.asarray(H.tree.perm)
        self.n = H.dim
        self.q_cap = int(q_chunk or DEFAULT_Q_CHUNK)
        if num_workers is None:
            # Affinity/cgroup-aware: os.cpu_count() reports the machine,
            # not the process, and oversubscribing a restricted CI
            # container stalls the pool on workers that never run.
            num_workers = effective_cpu_count()
        self.num_workers = int(num_workers)
        self.calls = 0
        self.chunks = 0
        self._closed = False
        self._workers: list = []
        self._conns: list = []
        self._segments: list = []

        # The plan's own tables (the serial engine's when it batches).
        tables = H.batched_tables
        self.rank_rows = tables.rank_rows
        # Interior tree levels stay in the master: they are strictly
        # level-ordered and tiny next to the near/far panels.
        self._interior = tuple(
            tuple(b for b in level if not b[-1]) for level in tables.levels
        )
        # Retained for access_trace(): these tables *are* the engine's
        # accesses — workers run exactly these entries, every call.
        self._shards = _deal(tables, max(self.num_workers, 1))
        if self.num_workers == 0:
            # Inline mode: same shard, no pool, plain scratch arrays.
            self._W = np.empty((self.n, self.q_cap))
            self._Y = np.empty((self.n, self.q_cap))
            self._T = np.empty((max(self.rank_rows, 1), self.q_cap))
            self._S = np.empty((max(self.rank_rows, 1), self.q_cap))
            self._buf = np.empty(tables.max_k * self.q_cap)
            self._finalizer = None
            return

        # Per-call scratch, mapped by every worker.
        shm_names: dict[str, str] = {}
        scratch_rows = {"W": self.n, "Y": self.n,
                        "T": self.rank_rows, "S": self.rank_rows}
        for key, rows in scratch_rows.items():
            seg = shared_memory.SharedMemory(
                create=True, size=max(rows, 1) * self.q_cap * 8)
            self._segments.append(seg)
            shm_names[key] = seg.name
        self._seg_by_key = dict(zip(shm_names, self._segments, strict=True))

        ctx = mp.get_context(start_method or default_start_method())
        try:
            for wid, shard in enumerate(self._shards):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, wid, shard, shm_names, self.n, self.q_cap),
                    daemon=True)
                proc.start()
                child.close()
                self._workers.append(proc)
                self._conns.append(parent)
        except Exception:
            # A mid-spawn failure (fork EAGAIN, spawn pickling error)
            # must not leak the already-created scratch segments.
            _shutdown_pool(self._workers, self._conns, self._segments)
            raise
        self._finalizer = weakref.finalize(self, _shutdown_pool,
                                           self._workers, self._conns,
                                           self._segments)

    # ------------------------------------------------------------- protocol
    def _scratch(self, key: str, rows: int, q: int) -> np.ndarray:
        if self.num_workers == 0:
            return getattr(self, f"_{key}")[:max(rows, 1), :q]
        seg = self._seg_by_key[key]
        return np.ndarray((max(rows, 1), q), dtype=np.float64, buffer=seg.buf)

    def _barrier(self, phase: int, q: int) -> None:
        if self.num_workers == 0:
            _run_phase(self._shards[0], phase,
                       self._scratch("W", self.n, q),
                       self._scratch("Y", self.n, q),
                       self._scratch("T", self.rank_rows, q),
                       self._scratch("S", self.rank_rows, q), self._buf)
            return
        self._maybe_inject_kill(phase)
        errors = []
        for wid, conn in enumerate(self._conns):
            try:
                conn.send((phase, q))
            except (OSError, ValueError):
                errors.append(f"worker {wid}: pipe closed (worker died?)")
        for wid, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                errors.append(f"worker {wid}: died without replying")
                continue
            if reply[0] == "err":
                errors.append(f"worker {reply[1]}:\n{reply[2]}")
        if errors:
            self.close()
            raise WorkerCrashError(
                "process backend worker failed:\n" + "\n".join(errors)
            )

    def _maybe_inject_kill(self, phase: int) -> None:
        """Chaos hook: SIGKILL the FaultPlan's named worker at the start
        of its named barrier phase (no plan installed -> one None check).
        The kill lands *before* the phase commands go out, so the barrier
        observes exactly what a mid-protocol worker death looks like: a
        pipe that goes EOF instead of replying."""
        plan = active_fault_plan()
        if plan is None or not self._workers:
            return
        wid = plan.take_kill(PHASE_NAMES[phase])
        if wid is None:
            return
        proc = self._workers[wid % len(self._workers)]
        if proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)

    def _matmul_tree_chunk(self, W_chunk: np.ndarray,
                           out: np.ndarray) -> None:
        """One chunk (tree order, q <= q_cap) through the 3-phase protocol.

        Writes the result into ``out`` (a caller-owned array slice) — the
        shared Y view is reused by the next chunk, so exactly one copy out
        of shared memory happens, with no intermediate allocation.
        """
        q = W_chunk.shape[1]
        W = self._scratch("W", self.n, q)
        Y = self._scratch("Y", self.n, q)
        T = self._scratch("T", self.rank_rows, q)
        S = self._scratch("S", self.rank_rows, q)
        W[:] = W_chunk
        Y[:] = 0.0
        S[:] = 0.0
        self._barrier(_PHASE_NEAR_AND_LEAF_UP, q)
        up_pass(self._interior, W, T)
        self._barrier(_PHASE_FAR, q)
        down_pass(self._interior, S, Y)
        self._barrier(_PHASE_LEAF_DOWN, q)
        out[:] = Y

    # ------------------------------------------------------------------ API
    def matmul(self, W: np.ndarray) -> np.ndarray:
        """``Y = H @ W`` on the pool (W rows in user point order)."""
        if self._closed:
            raise RuntimeError("ProcessEngine is closed")
        W = np.ascontiguousarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        if W.shape[0] != self.n:
            raise ValueError(
                f"W has {W.shape[0]} rows but the HMatrix dimension is "
                f"{self.n}"
            )
        check_finite(W)
        self.calls += 1
        Wt = W[self._perm]
        Yt = np.empty_like(Wt)
        for q0 in range(0, max(Wt.shape[1], 1), self.q_cap):
            chunk = Wt[:, q0:q0 + self.q_cap]
            if chunk.shape[1] == 0:
                break
            self.chunks += 1
            self._matmul_tree_chunk(np.ascontiguousarray(chunk),
                                    Yt[:, q0:q0 + self.q_cap])
        Y = np.empty_like(Yt)
        Y[self._perm] = Yt
        return Y[:, 0] if squeeze else Y

    @property
    def H(self):
        """The engine's HMatrix, or ``None`` once it has been collected.

        Held weakly (see ``__init__``); cache layers compare this
        against the matrix they were asked about (``engine.H is H``) so
        a CPython-recycled id can never alias another matrix's engine.
        """
        return self._H_ref()

    def access_trace(self) -> dict:
        """The engine's barrier protocol as a sync trace (DESIGN.md §13.2).

        Derived from the table entries each worker runs, so it covers
        every call: feed it to
        :func:`repro.analysis.happens_before.certify_sync_trace` to prove
        that the protocol orders every conflicting shared-array access.
        """
        return _protocol_trace(self._shards, self.n, self.rank_rows)

    def _maybe_dump_trace(self) -> None:
        """Best-effort trace dump at close when ``MATROX_SYNC_TRACE_DIR``
        is set and the engine actually ran — the CI analyze job replays
        these with the thread tier's traces through ``repro analyze
        --sync-traces``."""
        if self.calls and os.environ.get(SYNC_TRACE_DIR_ENV):
            # A full/read-only trace dir must not fail close().
            with contextlib.suppress(OSError):
                maybe_dump_sync_trace(self.access_trace())

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self._workers]

    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop workers and unlink every shared-memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._maybe_dump_trace()
        if self._finalizer is not None:
            self._finalizer.detach()
        _shutdown_pool(self._workers, self._conns, self._segments)
        self._workers, self._conns, self._segments = [], [], []

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _shutdown_pool(workers, conns, segments) -> None:
    """Best-effort orderly stop; module-level so a GC finalizer can run it."""
    for conn in conns:
        with contextlib.suppress(OSError, ValueError):
            conn.send(("stop",))
    for proc in workers:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - deadlock guard
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        with contextlib.suppress(OSError):  # pragma: no cover
            conn.close()
    for seg in segments:
        with contextlib.suppress(FileNotFoundError):  # already unlinked
            seg.close()
            seg.unlink()
