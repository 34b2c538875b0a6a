"""Process-parallel sharded execution backend (``backend="process"``).

The batched engine (DESIGN.md section 3) turns the four evaluation loops
into row-panel and stacked GEMMs over the CDS shape buckets. This module
shards that work across a persistent pool of **worker processes**:

* the three CDS buffers (``basis_buf``/``near_buf``/``far_buf``) are
  exported once into ``multiprocessing.shared_memory`` segments, and every
  worker maps them zero-copy — block and basis views are reconstructed in
  the worker from the same offsets the serial engine uses;
* the near panels are sharded by *super-row* (the sibling-leaf row groups
  of the batched engine's near loop, each one panel), the far panels by
  *output node* (all interactions writing one node's rows stay together),
  and the leaf basis buckets by member, all with a deterministic LPT
  (longest-processing-time) packing over a flop estimate;
* per call, W/Y/T/S live in four shared scratch segments and the product
  runs as three barrier phases (see :class:`ProcessEngine`). Every output
  row slice has exactly one writer, in the serial engine's GEMM
  granularity, so the "reduction" of per-shard partial products is a
  disjoint scatter and the result is **bit-identical** to the serial
  batched *lowering* — not merely within rounding. (The engine builds the
  batched tables unconditionally; on matrices where the cost model
  rejected batching, serial ``order="batched"`` falls back to the
  per-block code, and the process backend agrees with that fallback only
  to rounding, < 1e-12 relative.)

The pool is built once per (HMatrix, worker count) and reused across
calls/chunks — the process analogue of the inspector-executor contract's
"inspect once, execute many". :class:`~repro.core.executor.Executor` and
:class:`~repro.api.session.Session` own engine lifecycles and tear them
down on ``close()``.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import sys
import traceback
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.api.policy import DEFAULT_Q_CHUNK, effective_cpu_count
from repro.codegen.emit import (
    WIDE_Q_MIN,
    _batched_tree_tables,
    _rank_offsets,
    _row_panel_tables,
    _stacked_panels,
    _super_rows,
)
from repro.observability.faults import active_fault_plan

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


#: Monotone suffix for ``MATROX_TRACE_DIR`` dump filenames (several
#: engines may close within one process; pid alone would collide).
_trace_dump_seq = 0


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
# Shard plan: everything a worker needs, in picklable form.
# --------------------------------------------------------------------------

@dataclass
class _ShardPlan:
    """One worker's slice of the batched engine's tables.

    All fields are plain ints/tuples/dicts so the plan survives ``spawn``
    pickling; the heavy data stays in the shared CDS buffers and is
    re-viewed inside the worker.
    """

    wid: int
    n: int
    rank_rows: int
    q_cap: int
    shm_names: dict = field(default_factory=dict)
    buf_len: dict = field(default_factory=dict)
    # Near shard: whole super-rows (leaf ids per group, in row order),
    # their pairs, and the point-row/offset maps.
    near_groups: list = field(default_factory=list)
    near_pairs: list = field(default_factory=list)
    point_rows: dict = field(default_factory=dict)
    near_off: dict = field(default_factory=dict)
    # Far shard: pairs + skeleton-row ranges in the T/S panels.
    far_pairs: list = field(default_factory=list)
    skel_rows: dict = field(default_factory=dict)
    far_off: dict = field(default_factory=dict)
    # Leaf basis shard: (basis offset, rows, cols, point start, T offset).
    leaf_specs: list = field(default_factory=list)


class _ShardState:
    """A worker's compiled tables: built once, applied every phase.

    Mirrors the serial batched engine exactly: near row panels via
    :func:`repro.codegen.emit._row_panel_tables` (same super-rows, same
    padding/run merging), the shard's coupling panels as same-shape
    stacks via :func:`repro.codegen.emit._stacked_panels`, leaf buckets
    as stacked GEMMs grouped by shape.
    """

    def __init__(self, plan: _ShardPlan, basis_buf: np.ndarray,
                 near_buf: np.ndarray, far_buf: np.ndarray):
        self.plan = plan
        self.near_panels = _row_panel_tables(
            plan.near_pairs, plan.point_rows, near_buf, plan.near_off,
            groups=plan.near_groups,
        ) if plan.near_pairs else ()
        self.far_stacks = _stacked_panels(_row_panel_tables(
            plan.far_pairs, plan.skel_rows, far_buf, plan.far_off,
        )) if plan.far_pairs else ()
        max_k = max((e[2] for e in self.near_panels if len(e[1]) > 1),
                    default=1)
        self._gather_buf = np.empty((max_k, plan.q_cap))

        # Leaf basis buckets: group this shard's leaves by generator shape
        # and assemble (G, GT, point-row gather, T-row scatter) stacks from
        # views into the shared basis buffer.
        groups: dict[tuple[int, int], list] = {}
        for spec in plan.leaf_specs:
            off, rows, cols, start, t0 = spec
            groups.setdefault((rows, cols), []).append((off, start, t0))
        self.leaf_buckets = []
        for (rows, cols), members in groups.items():
            G = np.stack([
                basis_buf[off:off + rows * cols].reshape(rows, cols)
                for off, _s, _t in members
            ])
            GT = G.transpose(0, 2, 1)
            gather = np.stack([
                np.arange(s, s + rows) for _o, s, _t in members
            ])
            own = np.concatenate([
                t0 + np.arange(cols) for _o, _s, t0 in members
            ])
            self.leaf_buckets.append(
                (G, GT, gather, own, own.reshape(len(members), cols))
            )

    # ------------------------------------------------------------- phases
    def run_phase(self, phase: int, W, Y, T, S) -> None:
        q = W.shape[1]
        if phase == _PHASE_NEAR_AND_LEAF_UP:
            # Same loop as the generated batched code's near loop.
            buf = self._gather_buf
            for panel, runs, k, si, ei, slices in self.near_panels:
                if len(runs) == 1:
                    opnd = W[runs[0][0]:runs[0][1]]
                else:
                    opnd = buf[:k, :q]
                    o = 0
                    for a, b in runs:
                        opnd[o:o + b - a] = W[a:b]
                        o += b - a
                if q >= WIDE_Q_MIN:
                    Y[si:ei] += panel @ opnd
                else:
                    for rows, a, b in slices:
                        Y[a:b] += rows @ opnd
            for _G, GT, gather, own, _own2d in self.leaf_buckets:
                T[own] = np.matmul(GT, W[gather]).reshape(-1, q)
        elif phase == _PHASE_FAR:
            for P, idx, rows in self.far_stacks:
                S[rows] += np.matmul(P, T[idx]).reshape(-1, q)
        elif phase == _PHASE_LEAF_DOWN:
            for G, _GT, gather, _own, own2d in self.leaf_buckets:
                Y[gather.ravel()] += np.matmul(G, S[own2d]).reshape(-1, q)
        else:  # pragma: no cover - protocol bug guard
            raise ValueError(f"unknown phase {phase}")


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


def _worker_main(conn, plan: _ShardPlan) -> None:
    """Worker loop: attach the shared CDS + scratch, serve phase requests."""
    segs = {key: _attach(name) for key, name in plan.shm_names.items()}
    try:
        def buf(key):
            return np.ndarray((plan.buf_len[key],), dtype=np.float64,
                              buffer=segs[key].buf)

        state = _ShardState(plan, buf("basis"), buf("near"), buf("far"))
        n, r = plan.n, plan.rank_rows
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                conn.send(("bye", plan.wid))
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
                state.run_phase(phase, W, Y, T, S)
                conn.send(("ok", plan.wid))
            except Exception:
                conn.send(("err", plan.wid, traceback.format_exc()))
    finally:
        for seg in segs.values():
            seg.close()
        conn.close()


# --------------------------------------------------------------------------
# The engine.
# --------------------------------------------------------------------------

class ProcessEngine:
    """Persistent process pool evaluating ``Y = H @ W`` by CDS sharding.

    Protocol per column chunk (master = the calling process):

    1. master writes the permuted W chunk into shared scratch and zeroes
       Y/S; **phase 1**: workers apply their near row panels into Y and
       their leaf basis buckets into T (both read only W);
    2. master runs the interior upward levels (strictly ordered, small);
       **phase 2**: workers apply their far row panels into S (read T);
    3. master runs the interior downward levels; **phase 3**: workers
       scatter their leaf buckets' ``G @ S`` into Y.

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
        # arrays it actually needs (the permutation here; the CDS
        # buffers through the shard plans / shared-memory copies), so
        # caching an engine in an Executor never pins an HMatrix past
        # its own lifetime — its collection is the eviction signal.
        self._H_ref = weakref.ref(H)
        cds = H.cds
        self._perm = np.asarray(H.tree.perm)
        self.n = cds.dim
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

        toff, self.rank_rows = _rank_offsets(cds)
        up_levels, down_levels = _batched_tree_tables(cds, toff)
        # Interior tree levels stay in the master: they are strictly
        # level-ordered and tiny next to the near/far panels.
        self._up_interior = tuple(
            tuple(e for e in level if not e[3]) for level in up_levels
        )
        self._down_interior = tuple(
            tuple(e for e in level if not e[3]) for level in down_levels
        )

        plans = self._build_plans(cds, toff)
        # Retained for the race certifier (repro.analysis.races): the
        # plans *are* the engine's access trace — workers execute
        # exactly the panels listed here, every call.
        self._plans = plans
        if self.num_workers == 0:
            # Inline mode: same shards, no pool, plain scratch arrays.
            self._inline_states = [
                _ShardState(p, cds.basis_buf, cds.near_buf, cds.far_buf)
                for p in plans
            ]
            self._W = np.empty((self.n, self.q_cap))
            self._Y = np.empty((self.n, self.q_cap))
            self._T = np.empty((max(self.rank_rows, 1), self.q_cap))
            self._S = np.empty((max(self.rank_rows, 1), self.q_cap))
            self._finalizer = None
            return

        # Shared CDS buffers (copied once at pool startup, mapped
        # zero-copy in every worker thereafter) + per-call scratch.
        shm_names: dict[str, str] = {}
        buf_len: dict[str, int] = {}

        def share(key, length):
            seg = shared_memory.SharedMemory(
                create=True, size=max(int(length), 1) * 8)
            self._segments.append(seg)
            shm_names[key] = seg.name
            buf_len[key] = int(length)
            return np.ndarray((max(int(length), 1),), dtype=np.float64,
                              buffer=seg.buf)

        for key, src in (("basis", cds.basis_buf), ("near", cds.near_buf),
                         ("far", cds.far_buf)):
            view = share(key, src.size)
            view[:src.size] = src
        scratch_rows = {"W": self.n, "Y": self.n,
                        "T": self.rank_rows, "S": self.rank_rows}
        for key, rows in scratch_rows.items():
            share(key, max(rows, 1) * self.q_cap)
        # Master-side scratch views (the interior levels run here).
        self._seg_by_key = dict(zip(shm_names, self._segments, strict=True))

        ctx = mp.get_context(start_method or default_start_method())
        try:
            for plan in plans:
                plan.shm_names = shm_names
                plan.buf_len = buf_len
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(target=_worker_main, args=(child, plan),
                                   daemon=True)
                proc.start()
                child.close()
                self._workers.append(proc)
                self._conns.append(parent)
        except Exception:
            # A mid-spawn failure (fork EAGAIN, spawn pickling error)
            # must not leak the already-created segments — by this point
            # a full CDS copy plus four scratch panels sit in /dev/shm.
            _shutdown_pool(self._workers, self._conns, self._segments)
            raise
        self._finalizer = weakref.finalize(self, _shutdown_pool,
                                           self._workers, self._conns,
                                           self._segments)

    # ---------------------------------------------------------------- plans
    def _build_plans(self, cds, toff) -> list[_ShardPlan]:
        t = cds.tree
        srank = cds.factors.srank
        shards = max(self.num_workers, 1)

        def point_range(v):
            return (int(t.start[v]), int(t.stop[v]))

        def skel_range(v):
            return (int(toff[v]), int(toff[v] + srank(v)))

        # Group pairs by row panel, which is indivisible: a super-row of
        # leaves for near pairs, one output node for far pairs.
        def by_row(pairs):
            rows: dict[int, list] = {}
            for (i, j) in pairs:
                rows.setdefault(i, []).append((i, j))
            return rows

        near_rows = by_row(cds.near_visit_order())
        near_groups = [(g, [p for i in g for p in near_rows[i]])
                       for g in _super_rows(cds)]
        far_groups = list(by_row(cds.far_visit_order()).items())
        near_w = [
            float(sum(t.node_size(i) * t.node_size(j) for i, j in g))
            for _group, g in near_groups
        ]
        far_w = [
            float(sum(srank(i) * srank(j) for _i, j in g))
            for i, g in far_groups
        ]
        leaves = [
            v for v in cds.basis_nodes()
            if t.is_leaf(v) and srank(v) > 0
        ]
        leaf_w = [float(t.node_size(v) * srank(v)) for v in leaves]

        near_shards = shard_by_weight(near_w, shards)
        far_shards = shard_by_weight(far_w, shards)
        leaf_shards = shard_by_weight(leaf_w, shards)

        plans = []
        for wid in range(shards):
            plan = _ShardPlan(wid=wid, n=self.n, rank_rows=self.rank_rows,
                              q_cap=self.q_cap)
            for gi in near_shards[wid]:
                group, pairs = near_groups[gi]
                plan.near_groups.append(group)
                plan.near_pairs.extend(pairs)
            for (i, j) in plan.near_pairs:
                plan.point_rows[i] = point_range(i)
                plan.point_rows[j] = point_range(j)
                plan.near_off[(i, j)] = int(cds.near_offset[(i, j)])
            for gi in far_shards[wid]:
                _i, pairs = far_groups[gi]
                plan.far_pairs.extend(pairs)
            for (i, j) in plan.far_pairs:
                plan.skel_rows[i] = skel_range(i)
                plan.skel_rows[j] = skel_range(j)
                plan.far_off[(i, j)] = int(cds.far_offset[(i, j)])
            for li in leaf_shards[wid]:
                v = leaves[li]
                rows, cols = cds.basis_shape[v]
                plan.leaf_specs.append(
                    (int(cds.basis_offset[v]), int(rows), int(cols),
                     int(t.start[v]), int(toff[v]))
                )
            plans.append(plan)
        return plans

    # ------------------------------------------------------------- protocol
    def _scratch(self, key: str, rows: int, q: int) -> np.ndarray:
        if self.num_workers == 0:
            return getattr(self, f"_{key}")[:max(rows, 1), :q]
        seg = self._seg_by_key[key]
        return np.ndarray((max(rows, 1), q), dtype=np.float64, buffer=seg.buf)

    def _barrier(self, phase: int, q: int) -> None:
        if self.num_workers == 0:
            W = self._scratch("W", self.n, q)
            Y = self._scratch("Y", self.n, q)
            T = self._scratch("T", self.rank_rows, q)
            S = self._scratch("S", self.rank_rows, q)
            for state in self._inline_states:
                state.run_phase(phase, W, Y, T, S)
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
        for level in self._up_interior:
            for GT, gather, t_rows, _from_w in level:
                T[t_rows] = np.matmul(GT, T[gather]).reshape(-1, q)
        self._barrier(_PHASE_FAR, q)
        for level in self._down_interior:
            for G, s_rows, scatter, _to_y in level:
                S[scatter] += np.matmul(G, S[s_rows]).reshape(-1, q)
        self._barrier(_PHASE_LEAF_DOWN, q)
        out[:] = Y

    # ------------------------------------------------------------------ API
    def matmul(self, W: np.ndarray, order: str = "batched") -> np.ndarray:
        """``Y = H @ W`` on the pool (W rows in user point order, or in
        tree order with ``order="tree"``)."""
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
        self.calls += 1
        perm = None if order == "tree" else self._perm
        Wt = W if perm is None else W[perm]
        Yt = np.empty_like(Wt)
        for q0 in range(0, max(Wt.shape[1], 1), self.q_cap):
            chunk = Wt[:, q0:q0 + self.q_cap]
            if chunk.shape[1] == 0:
                break
            self.chunks += 1
            self._matmul_tree_chunk(np.ascontiguousarray(chunk),
                                    Yt[:, q0:q0 + self.q_cap])
        if perm is None:
            Y = Yt
        else:
            Y = np.empty_like(Yt)
            Y[perm] = Yt
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
        """The engine's shared-memory access trace (DESIGN.md §13).

        A JSON-able record of every (actor, phase, array, row-interval,
        read/write) access the 3-phase protocol performs, derived from
        the shard plans — feed it to
        :func:`repro.analysis.races.certify_trace` to prove the
        single-writer-per-row invariant for this engine instance.
        """
        from repro.analysis.races import trace_from_plans

        return trace_from_plans(
            self._plans, n=self.n, rank_rows=self.rank_rows,
            num_workers=self.num_workers, calls=self.calls,
            chunks=self.chunks)

    def _maybe_dump_trace(self) -> None:
        """Best-effort trace dump at close when ``MATROX_TRACE_DIR`` is
        set and the engine actually ran — the CI analyze job replays
        these through ``repro analyze --races`` after the chaos and
        equivalence suites."""
        directory = os.environ.get("MATROX_TRACE_DIR")
        if not directory or self.calls == 0:
            return
        global _trace_dump_seq
        _trace_dump_seq += 1
        name = f"trace-{os.getpid()}-{_trace_dump_seq}.json"
        from repro.analysis.races import save_trace

        # A full/read-only trace dir must not fail close().
        with contextlib.suppress(OSError):
            save_trace(self.access_trace(), os.path.join(directory, name))

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
