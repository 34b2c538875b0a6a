"""Task-graph and phase extraction from structure sets.

Converts one HMatrix-matrix multiplication (with Q right-hand columns) into
the unit the machine simulator executes:

* :func:`matrox_phases`       — the static schedule of the generated code:
  blocked parallel-for phases, coarsen-level phases with pre-assigned
  sub-trees, and a peeled parallel-BLAS phase;
* :func:`matrox_batched_phases` — the schedule of the bucketed batched-GEMM
  executor: every loop collapses into a few fat BLAS kernels (row panels
  for the reduction loops, shape buckets per tree level for the sweeps);
* :func:`gofmm_taskgraph`     — a dependency task graph consumed by a
  dynamic (central-queue) scheduler, the GOFMM execution model;
* :func:`levelbylevel_phases` — barrier-per-tree-level phases with atomic
  reductions, the STRUMPACK/SMASH execution model.

Every task carries flop and byte counts derived from the real generator
shapes, so simulated times reflect the actual compressed structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression.factors import Factors
from repro.storage.cds import CDSMatrix


@dataclass
class Task:
    """One GEMM-ish unit of work.

    ``affinity`` identifies the data region the task touches (used by the
    dynamic scheduler to charge cache-migration penalties); ``deps`` are
    indices into the owning graph's task list. ``out_elems`` is the number
    of output elements the task updates and ``atomic`` marks updates that
    must be atomic because another task writes the same output rows (the
    ``#pragma omp atomic`` of the library reduction loops — blocking exists
    precisely to remove this).
    """

    name: str
    flops: float
    bytes: float
    affinity: int = 0
    deps: tuple[int, ...] = ()
    out_elems: float = 0.0
    atomic: bool = False


@dataclass
class Phase:
    """One static-schedule phase executed between barriers.

    kind:
      * ``parallel_for``   — units chunked contiguously over workers
        (OpenMP static), barrier at the end;
      * ``parallel_units`` — units pre-assigned one-per-worker (coarsen
        sub-trees), barrier at the end;
      * ``serial``         — one worker, no barrier;
      * ``blas``           — one fat kernel using all workers at BLAS
        efficiency (the peeled root iteration).

    ``atomic_per_task`` adds the reduction-atomic overhead library loops pay.
    """

    name: str
    kind: str
    units: list[list[Task]] = field(default_factory=list)
    atomic_per_task: bool = False

    def total_flops(self) -> float:
        return sum(t.flops for u in self.units for t in u)

    def total_bytes(self) -> float:
        return sum(t.bytes for u in self.units for t in u)

    def num_tasks(self) -> int:
        return sum(len(u) for u in self.units)


# --------------------------------------------------------------------------
# Per-operation cost helpers. A GEMM C(m,n) += A(m,k) B(k,n) does 2mkn flops.
# Only the *generator* block A streams from DRAM (it is visited once per
# evaluation); the vector panels B and C are reused across many tasks and
# live in cache, so they are charged at a small residual fraction.
# --------------------------------------------------------------------------

_PANEL_MISS_FRACTION = 0.05


def _gemm(m: int, k: int, n: int) -> tuple[float, float]:
    flops = 2.0 * m * k * n
    nbytes = 8.0 * (m * k + _PANEL_MISS_FRACTION * (k * n + m * n))
    return flops, nbytes


def _near_task(factors: Factors, i: int, j: int, q: int) -> Task:
    t = factors.tree
    flops, nbytes = _gemm(t.node_size(i), t.node_size(j), q)
    return Task(f"near({i},{j})", flops, nbytes, affinity=i,
                out_elems=float(t.node_size(i)) * q)


def _coupling_task(factors: Factors, i: int, j: int, q: int) -> Task:
    flops, nbytes = _gemm(factors.srank(i), factors.srank(j), q)
    return Task(f"coupling({i},{j})", flops, nbytes, affinity=i,
                out_elems=float(factors.srank(i)) * q)


def _mark_atomics(tasks_with_targets: list[tuple[Task, int]]) -> None:
    """Set ``atomic`` on tasks whose output node has multiple writers.

    Single-writer rows (e.g. the diagonal-only near list of HSS) need no
    synchronization even in the naive loop, which is why the paper's HSS
    executor stays fast without block lowering.
    """
    writers: dict[int, int] = {}
    for _t, i in tasks_with_targets:
        writers[i] = writers.get(i, 0) + 1
    for t, i in tasks_with_targets:
        t.atomic = writers[i] > 1


def _basis_task(factors: Factors, v: int, q: int, direction: str) -> Task:
    t = factors.tree
    if t.is_leaf(v):
        m, k = t.node_size(v), factors.srank(v)
    else:
        lc, rc = int(t.lchild[v]), int(t.rchild[v])
        m, k = factors.srank(lc) + factors.srank(rc), factors.srank(v)
    flops, nbytes = _gemm(m, k, q)
    return Task(f"{direction}({v})", flops, nbytes, affinity=v)


# --------------------------------------------------------------------------
# MatRox static phases.
# --------------------------------------------------------------------------

def matrox_phases(cds: CDSMatrix, q: int, decision=None) -> list[Phase]:
    """Phases of the MatRox generated code for one evaluation."""
    factors = cds.factors
    phases: list[Phase] = []

    # Near loop. Without block lowering the loop is still the generic
    # parallel reduction loop of Fig. 1d (parallel for + atomic); block
    # lowering removes the atomics by making blocks conflict-free.
    near_blocks = cds.near_blockset.blocks or (
        [sorted(factors.near_blocks)] if factors.near_blocks else []
    )
    blocked_near = decision.block_near if decision is not None else True
    if near_blocks:
        if blocked_near:
            units = [
                [_near_task(factors, i, j, q) for (i, j) in block]
                for block in near_blocks
            ]
            phases.append(Phase("near", "parallel_for", units))
        else:
            pairs = [(i, j) for block in near_blocks for (i, j) in block]
            tasks = [_near_task(factors, i, j, q) for (i, j) in pairs]
            _mark_atomics(list(zip(tasks, (i for (i, _j) in pairs),
                                   strict=True)))
            phases.append(Phase("near", "parallel_for",
                                [[t] for t in tasks], atomic_per_task=True))

    # Upward coarsen levels.
    coarsen = decision.coarsen if decision is not None else True
    peel = decision.peel_root if decision is not None else True
    levels = cds.coarsenset.levels
    if not coarsen or not levels:
        order = [v for v in factors.tree.postorder()
                 if v != 0 and factors.srank(v) > 0]
        up_phases = [Phase("upward", "serial",
                           [[_basis_task(factors, v, q, "up") for v in order]])]
        down_phases = [Phase("downward", "serial",
                             [[_basis_task(factors, v, q, "down")
                               for v in reversed(order)]])]
        peel = False
    else:
        up_phases = []
        for idx, cl in enumerate(levels):
            units = [
                [_basis_task(factors, v, q, "up") for v in st.nodes]
                for st in cl.subtrees
            ]
            up_phases.append(Phase(f"upward[{idx}]", "parallel_units", units))
        down_phases = []
        for idx, cl in enumerate(reversed(levels)):
            units = [
                [_basis_task(factors, v, q, "down") for v in reversed(st.nodes)]
                for st in cl.subtrees
            ]
            down_phases.append(
                Phase(f"downward[{idx}]", "parallel_units", units)
            )
        if peel and up_phases:
            top = up_phases.pop()
            phases_top_tasks = [t for u in top.units for t in u]
            up_phases.append(Phase("upward[peeled]", "blas",
                                   [phases_top_tasks]))
            bot = down_phases.pop(0)
            down_phases.insert(
                0,
                Phase("downward[peeled]", "blas",
                      [[t for u in bot.units for t in u]]),
            )
    phases.extend(up_phases)

    # Coupling loop — same blocked/atomic dichotomy as the near loop.
    far_blocks = cds.far_blockset.blocks or (
        [sorted(factors.coupling)] if factors.coupling else []
    )
    blocked_far = decision.block_far if decision is not None else True
    if far_blocks:
        if blocked_far:
            units = [
                [_coupling_task(factors, i, j, q) for (i, j) in block]
                for block in far_blocks
            ]
            phases.append(Phase("coupling", "parallel_for", units))
        else:
            pairs = [(i, j) for block in far_blocks for (i, j) in block]
            tasks = [_coupling_task(factors, i, j, q) for (i, j) in pairs]
            _mark_atomics(list(zip(tasks, (i for (i, _j) in pairs),
                                   strict=True)))
            phases.append(Phase("coupling", "parallel_for",
                                [[t] for t in tasks], atomic_per_task=True))

    phases.extend(down_phases)
    return phases


# --------------------------------------------------------------------------
# MatRox batched (bucketed batched-GEMM) phases.
# --------------------------------------------------------------------------

def matrox_batched_phases(cds: CDSMatrix, q: int,
                          q_chunk: int | None = None) -> list[Phase]:
    """Phases of the batched executor for one evaluation.

    Each reduction loop prices as one "blas" phase (its row-panel GEMMs are
    fat, layout-insensitive kernels), and each tree level prices one "blas"
    phase per shape bucket — mirroring exactly the kernel launches the
    batched loop functions perform. ``q_chunk`` repeats the schedule per
    streamed column chunk, charging the extra barriers the streaming loop
    pays in exchange for cache-resident panels.
    """
    if q_chunk and q > q_chunk:
        n_full, rem = divmod(q, q_chunk)
        chunk_phases = matrox_batched_phases(cds, q_chunk)
        out = []
        for _ in range(n_full):
            out.extend(chunk_phases)
        if rem:
            out.extend(matrox_batched_phases(cds, rem))
        return out

    factors = cds.factors
    phases: list[Phase] = []

    near_pairs = cds.near_visit_order() or sorted(factors.near_blocks)
    if near_pairs:
        units = [[_near_task(factors, i, j, q) for (i, j) in near_pairs]]
        phases.append(Phase("near-batched", "blas", units))

    levels = cds.basis_level_buckets()
    for idx, level in enumerate(levels):
        for bucket in level:
            units = [[_basis_task(factors, v, q, "up") for v in bucket.keys]]
            phases.append(Phase(
                f"up-batched[{idx}][{bucket.kind}"
                f"{bucket.shape[0]}x{bucket.shape[1]}]", "blas", units))

    far_pairs = cds.far_visit_order() or sorted(factors.coupling)
    if far_pairs:
        units = [[_coupling_task(factors, i, j, q) for (i, j) in far_pairs]]
        phases.append(Phase("coupling-batched", "blas", units))

    for idx, level in enumerate(reversed(levels)):
        for bucket in level:
            units = [[_basis_task(factors, v, q, "down") for v in bucket.keys]]
            phases.append(Phase(
                f"down-batched[{idx}][{bucket.kind}"
                f"{bucket.shape[0]}x{bucket.shape[1]}]", "blas", units))
    return phases


# --------------------------------------------------------------------------
# GOFMM-style dynamic task graph.
# --------------------------------------------------------------------------

def gofmm_taskgraph(factors: Factors, q: int) -> list[Task]:
    """All evaluation tasks with dependencies, for the dynamic scheduler."""
    tree = factors.tree
    tasks: list[Task] = []
    up_id: dict[int, int] = {}
    down_id: dict[int, int] = {}
    coupling_into: dict[int, list[int]] = {}

    # Upward tasks, children before parents.
    for v in tree.postorder():
        if v == 0 or factors.srank(v) == 0:
            continue
        t = _basis_task(factors, v, q, "up")
        if not tree.is_leaf(v):
            deps = []
            for c in (int(tree.lchild[v]), int(tree.rchild[v])):
                if c in up_id:
                    deps.append(up_id[c])
            t.deps = tuple(deps)
        up_id[v] = len(tasks)
        tasks.append(t)

    # Near tasks (independent).
    for (i, j) in sorted(factors.near_blocks):
        tasks.append(_near_task(factors, i, j, q))

    # Coupling tasks: need T_j.
    for (i, j) in sorted(factors.coupling):
        t = _coupling_task(factors, i, j, q)
        t.deps = (up_id[j],) if j in up_id else ()
        coupling_into.setdefault(i, []).append(len(tasks))
        tasks.append(t)

    # Downward tasks: need own couplings + parent's downward, top-down.
    for level_nodes in tree.levels():
        for v in level_nodes:
            v = int(v)
            if v == 0 or factors.srank(v) == 0:
                continue
            t = _basis_task(factors, v, q, "down")
            deps = list(coupling_into.get(v, ()))
            par = int(tree.parent[v])
            if par in down_id:
                deps.append(down_id[par])
            t.deps = tuple(deps)
            down_id[v] = len(tasks)
            tasks.append(t)
    return tasks


# --------------------------------------------------------------------------
# STRUMPACK / SMASH level-by-level phases.
# --------------------------------------------------------------------------

def levelbylevel_phases(factors: Factors, q: int) -> list[Phase]:
    """Barrier-per-level schedule with atomic reductions (library style)."""
    tree = factors.tree
    phases: list[Phase] = []

    # Near loop with atomics (Fig. 1d lines 3-6).
    near_pairs = sorted(factors.near_blocks)
    near_tasks = [_near_task(factors, i, j, q) for (i, j) in near_pairs]
    _mark_atomics(list(zip(near_tasks, (i for (i, _j) in near_pairs),
                           strict=True)))
    if near_tasks:
        phases.append(Phase("near", "parallel_for",
                            [[t] for t in near_tasks], atomic_per_task=True))

    by_level: list[list[int]] = [[] for _ in range(tree.height + 1)]
    for v in range(tree.num_nodes):
        if factors.srank(v) > 0:
            by_level[int(tree.level[v])].append(v)

    # Upward: one barrier per tree level.
    for lvl in range(tree.height, -1, -1):
        nodes = by_level[lvl]
        if not nodes:
            continue
        units = [[_basis_task(factors, v, q, "up")] for v in nodes]
        phases.append(Phase(f"up-level[{lvl}]", "parallel_for", units))

    # Coupling with atomics.
    far_pairs = sorted(factors.coupling)
    far_tasks = [_coupling_task(factors, i, j, q) for (i, j) in far_pairs]
    _mark_atomics(list(zip(far_tasks, (i for (i, _j) in far_pairs),
                           strict=True)))
    if far_tasks:
        phases.append(Phase("coupling", "parallel_for",
                            [[t] for t in far_tasks], atomic_per_task=True))

    # Downward: one barrier per tree level, top-down.
    for lvl in range(0, tree.height + 1):
        nodes = by_level[lvl]
        if not nodes:
            continue
        units = [[_basis_task(factors, v, q, "down")] for v in nodes]
        phases.append(Phase(f"down-level[{lvl}]", "parallel_for", units))
    return phases
