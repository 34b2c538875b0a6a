"""Emission of specialized evaluation programs.

MatRox emits C code fitted to one HMatrix. Here the fitting lives in the
tables a program runs instead of in source text: each evaluator is four
plain loop functions over one set of tables built at most once per plan.

``generate_evaluator`` returns the per-block program with its lowering
decision; its :class:`BlockTables` are built on the first run
(:func:`build_block_tables`, held by a :class:`Program` that every copy
of the evaluator shares), so a plan served only by the batched program
never builds them. They bind the structure sets as *views into the CDS
buffers*, shaped by the decision (blocked or serial reduction loops,
coarsen levels or the whole post-order for the tree loops, a peeled root
iteration). :func:`near_loop`, :func:`up_loop`, :func:`coupling_loop` and
:func:`down_loop` run them serially or over a thread pool (NumPy's BLAS
releases the GIL inside GEMMs, so block/sub-tree tasks genuinely overlap).

``generate_batched_evaluator`` builds one :class:`BatchedTables`, run by
:func:`near_pass`, :func:`up_pass`, :func:`far_pass` and
:func:`down_pass`, the same functions a process worker runs over its share
of the entries. Which form a pass takes for a group (one stacked GEMM, or
one GEMM per member on row slices) is read from the tables and the width.

Both programs compute ``Y += K~ @ W`` in tree order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.analysis.structure_sets import CoarsenSet
from repro.api.policy import DEFAULT_Q_CHUNK
from repro.codegen.ir import EvaluationIR
from repro.codegen.lowering import (
    LoweringDecision,
    decide_lowering,
    lower_batched,
)
from repro.storage.cds import CDSMatrix

# Opcodes for tree-loop operations (kept as plain ints for dispatch speed).
OP_LEAF = 0
OP_INTERIOR = 1


def _run_parallel(pool, fn, items):
    """Execute ``fn`` over ``items`` — serially or on the supplied pool."""
    if pool is None:
        for it in items:
            fn(it)
    else:
        list(pool.map(fn, items))


class Program:
    """One plan's tables, built by ``build()`` on first access and kept.

    Every copy of an evaluator holds the same ``Program`` (a
    ``dataclasses.replace`` for a ``q_chunk`` override among them), so
    the tables are built once per plan. There is no lock: two first runs
    racing may both build, and the later one's tables are kept.
    """

    def __init__(self, build) -> None:
        self._build = build
        self._tables: BlockTables | BatchedTables | None = None

    @property
    def tables(self) -> BlockTables | BatchedTables:
        tables = self._tables
        if tables is None:
            tables = self._tables = self._build()
        return tables


@dataclass
class GeneratedEvaluator:
    """A specialized HMatrix-matrix multiplication.

    ``tables`` are the program: :class:`BlockTables` run by
    :func:`run_blocks` (the per-block evaluator) or :class:`BatchedTables`
    run by :func:`run_batched` (the batched one), held by ``program`` and
    built on first access (the per-block ones on the first run; the
    batched ones when the evaluator is generated). ``q_chunk`` (when set)
    streams right-hand sides through the program in column panels of at
    most that width, so the W/Y/T/S panels of one pass stay cache-resident
    for arbitrarily wide Q (the batched engine's multi-RHS path; see
    DESIGN.md section 3).
    """

    decision: LoweringDecision
    cds: CDSMatrix
    program: Program = field(repr=False)
    q_chunk: int | None = None

    @property
    def tables(self) -> BlockTables | BatchedTables:
        return self.program.tables

    def __call__(self, W: np.ndarray, pool=None) -> np.ndarray:
        """Evaluate ``Y = K~ W`` (tree order). W: (N, Q) or (N,)."""
        W = np.ascontiguousarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        n = self.cds.dim
        if W.shape[0] != n:
            raise ValueError(f"W has {W.shape[0]} rows, HMatrix dim is {n}")
        tables = self.tables
        run = (run_batched if isinstance(tables, BatchedTables)
               else run_blocks)
        Y = run(tables, W, np.zeros_like(W), pool, self.q_chunk)
        return Y[:, 0] if squeeze else Y


def _column_chunks(W, Y, q_chunk):
    """``(W columns, Y columns)`` panels of at most ``q_chunk`` columns;
    one panel when ``q_chunk`` is unset or W is no wider. A panel's W
    columns are copied into one contiguous buffer, since a GEMM's rounding
    can depend on its operands' strides; its Y columns are a view, since
    the programs write Y only by elementwise adds."""
    n, q = W.shape
    if not q_chunk or q <= q_chunk:
        yield W, Y
        return
    buf = np.empty(n * q_chunk)
    for q0 in range(0, q, q_chunk):
        w = min(q_chunk, q - q0)
        Wc = buf[:n * w].reshape(n, w)
        Wc[:] = W[:, q0:q0 + w]
        yield Wc, Y[:, q0:q0 + w]


# --------------------------------------------------------------------------
# The per-block program: structure sets bound to CDS views.
# --------------------------------------------------------------------------

def _near_tables(cds: CDSMatrix, blocked: bool):
    """Near-loop task tables: blocked → list of blocks, serial → one list."""
    t = cds.tree
    def entry(i, j):
        return (cds.near(i, j), int(t.start[i]), int(t.stop[i]),
                int(t.start[j]), int(t.stop[j]))
    if blocked:
        return [
            tuple(entry(i, j) for (i, j) in block)
            for block in cds.near_blockset.blocks
        ]
    pairs = sorted(cds.factors.near_blocks)
    return [tuple(entry(i, j) for (i, j) in pairs)]


def _far_tables(cds: CDSMatrix, blocked: bool):
    """Coupling-loop task tables; entries are (B, i, j)."""
    def entry(i, j):
        return (cds.far(i, j), int(i), int(j))
    if blocked:
        return [
            tuple(entry(i, j) for (i, j) in block)
            for block in cds.far_blockset.blocks
        ]
    pairs = sorted(cds.factors.coupling)
    return [tuple(entry(i, j) for (i, j) in pairs)]


def _node_op(cds: CDSMatrix, v: int):
    """Encode one tree-loop op for node v."""
    t = cds.tree
    gen = cds.basis(v)
    if t.is_leaf(v):
        return (OP_LEAF, v, gen, int(t.start[v]), int(t.stop[v]), 0)
    lc, rc = int(t.lchild[v]), int(t.rchild[v])
    return (OP_INTERIOR, v, gen, lc, rc, int(cds.factors.srank(lc)))


def _coarsen_tables(cds: CDSMatrix, coarsenset: CoarsenSet, peel: bool):
    """Upward-pass tables: list of levels, each a list of sub-tree op tuples.

    With peeling, the last coarsen level is returned separately as a flat op
    list run on the calling thread instead of as sub-tree tasks (standing
    in for the paper's parallel-BLAS peeled root iteration).
    """
    levels = [
        [tuple(_node_op(cds, v) for v in st.nodes) for st in cl.subtrees]
        for cl in coarsenset.levels
    ]
    peeled: tuple = ()
    if peel and levels:
        last = levels.pop()
        peeled = tuple(op for st in last for op in st)
    return levels, peeled


def _serial_tree_tables(cds: CDSMatrix):
    """Un-coarsened upward table: one subtree holding the whole post-order."""
    order = [
        v for v in cds.tree.postorder()
        if v != 0 and cds.factors.srank(v) > 0
    ]
    return [[tuple(_node_op(cds, v) for v in order)]], ()


@dataclass
class BlockTables:
    """The per-block program's tables, built on its first run, once per
    plan (:func:`build_block_tables`).

    ``near`` holds the near loop's tasks, each a tuple of ``(D, si, ei,
    sj, ej)`` interactions, and ``far`` the coupling loop's, each a tuple
    of ``(B, i, j)``: one task per block of the blockset when the loop is
    blocked (``block_near``/``block_far``; blocks write disjoint outputs,
    so they run in parallel), else one task holding every interaction in
    order. ``up`` holds the upward pass's levels, each a list of sub-tree
    op lists (:func:`_node_op`): the coarsenset's levels when the tree
    loops are coarsened, else one level holding the whole post-order.
    ``down`` is ``up`` reversed, levels and ops alike (parents before
    children). ``up_peeled``/``down_peeled`` hold the peeled root
    iteration's ops, empty unless the root is peeled.
    """

    num_nodes: int
    near: list
    far: list
    up: list
    down: list
    up_peeled: tuple
    down_peeled: tuple
    block_near: bool
    block_far: bool


def generate_evaluator(
    cds: CDSMatrix,
    ir: EvaluationIR | None = None,
    decision: LoweringDecision | None = None,
    block_threshold: int | None = None,
    far_block_threshold: int | None = None,
    coarsen_threshold: int = 4,
    low_level: bool = True,
) -> GeneratedEvaluator:
    """Return the per-block program for ``cds`` under ``decision``.

    Without a decision, the IR (built when not given) is lowered here.
    The program's :class:`BlockTables` are built on its first run, or
    first read of ``tables``, once per plan: a plan served by the
    batched program never builds them.
    """
    from repro.codegen.ir import build_ir

    if decision is None:
        if ir is None:
            ir = build_ir(
                cds.factors,
                coarsenset=cds.coarsenset,
                near_blockset=cds.near_blockset,
                far_blockset=cds.far_blockset,
            )
        decision = decide_lowering(
            ir,
            block_threshold=block_threshold,
            far_block_threshold=far_block_threshold,
            coarsen_threshold=coarsen_threshold,
            low_level=low_level,
        )

    return GeneratedEvaluator(
        decision=decision, cds=cds,
        program=Program(partial(build_block_tables, cds, decision)))


def build_block_tables(cds: CDSMatrix,
                       decision: LoweringDecision) -> BlockTables:
    """Build the per-block program's tables for ``cds`` under ``decision``."""
    if decision.coarsen:
        up, up_peeled = _coarsen_tables(
            cds, cds.coarsenset, decision.peel_root
        )
    else:
        up, up_peeled = _serial_tree_tables(cds)
    return BlockTables(
        num_nodes=cds.tree.num_nodes,
        near=_near_tables(cds, decision.block_near),
        far=_far_tables(cds, decision.block_far),
        up=up,
        down=[[tuple(reversed(st)) for st in level]
              for level in reversed(up)],
        up_peeled=up_peeled,
        down_peeled=tuple(reversed(up_peeled)),
        block_near=decision.block_near,
        block_far=decision.block_far,
    )


# --------------------------------------------------------------------------
# The batched program.
#
# The reduction loops (near, coupling) lower to *row panels*: all blocks
# written by one row group concatenate into one wide generator panel, so
# the group's whole reduction is a single 2-D GEMM against gathered
# operand rows, scattered back by a plain slice add (single writer, no
# atomics, no ``np.add.at``). Coupling panels hold one output node each
# and run as same-shape stacks; near panels are *super-rows* of sibling
# leaves (see ``_super_rows``). The tree loops lower to *stacked GEMMs*
# over the CDS shape buckets, one ``np.matmul`` per (level, role, shape)
# group. A tree bucket or coupling stack whose members each read and
# write one run of rows can also run member by member on row slices. The
# tables are built once per plan (:class:`BatchedTables`) and run by four
# loop functions, in the serial engine and, each over its share of the
# entries, in every process worker.
# --------------------------------------------------------------------------

#: Right-hand sides at least this many columns wide run one GEMM per
#: super-row panel; narrower ones run one GEMM per leaf-row slice of it.
#: Below this width a whole-panel GEMM is big enough for BLAS to go
#: multi-threaded without being big enough to gain from it (DESIGN.md
#: section 3 has the measurement).
WIDE_Q_MIN = 32

#: A tree bucket or coupling stack with member slices (:func:`_member_slices`)
#: runs them, one plain GEMM per member, when each member's product takes
#: at least this many multiply-adds (generator rows x cols x Q), and always
#: when it has one member. Smaller members run as one stacked GEMM: its
#: gathered copy and fancy-indexed scatter then cost less than a Python
#: call per member (DESIGN.md section 3 has the measurement).
MEMBER_MIN_MACS = 4096

# A row panel may hold at most this many times the entries of the blocks
# it carries. Within the bound, a panel whose gather runs nearly tile
# their span is zero-padded to the full span (its operand becomes a pure
# view of the source: no gather copy), and sibling near rows merge into
# one super-row panel over the union of their columns.
_PAD_LIMIT = 1.3


def _runs(segments: list[tuple[int, int]]):
    """Merge sorted ``[start, stop)`` segments into maximal contiguous runs.

    The gather of a row panel's operand rows then executes as a handful of
    ``memcpy``-speed slice copies instead of per-element fancy indexing —
    in tree order, a node's near/far neighbours are mostly contiguous.
    """
    merged: list[list[int]] = []
    for a, b in segments:
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((int(a), int(b)) for a, b in merged)


def _row_panel_tables(pairs, ranges, buf, offsets, groups=None):
    """Row panels for one reduction loop.

    ``ranges[v]`` is node v's ``[start, stop)`` in the output/operand
    panel (both loops index rows and columns the same way), and the block
    of pair ``(i, j)`` is ``buf[offsets[(i, j)]:]`` shaped by the two
    ranges. ``groups`` lists the row nodes of each panel, each group a
    contiguous row range in order; ``None`` gives one panel per output
    node. Every entry is ``(panel, runs, k, si, ei, slices)``: the panel
    covers rows ``[si, ei)`` and the ``k`` operand rows of its gather
    ``runs``, zero wherever a row node and a column node do not interact;
    ``slices`` holds ``(rows_view, a, b)`` per row node, the leaf-row
    GEMMs of the narrow path. Panels whose runs almost tile their span
    are zero-padded over the holes, so the operand is a view of the
    source (``_PAD_LIMIT`` bounds the panel against the entries its
    blocks carry). A panel of one block is that block's view of ``buf``.
    """
    by_row: dict[int, list[int]] = {}
    for (i, j) in pairs:
        by_row.setdefault(i, []).append(j)
    if groups is None:
        groups = [(i,) for i in by_row]

    def size(v):
        a, b = ranges[v]
        return b - a

    table = []
    for group in groups:
        si, ei = ranges[group[0]][0], ranges[group[-1]][1]
        m = ei - si
        if len(group) == 1:
            cols = sorted(by_row[group[0]], key=lambda j: ranges[j][0])
        else:
            cols = sorted({j for i in group for j in by_row[i]},
                          key=lambda j: ranges[j][0])
        runs = _runs([ranges[j] for j in cols])
        k = sum(b - a for a, b in runs)
        lo, hi = runs[0][0], runs[-1][1]
        carried = m * k if len(group) == 1 else sum(
            size(i) * sum(size(j) for j in by_row[i]) for i in group)
        padded = len(runs) > 1 and m * (hi - lo) <= _PAD_LIMIT * carried
        if len(group) == 1 and not padded:
            i = group[0]
            blocks = [buf[offsets[(i, j)]:offsets[(i, j)] + m * size(j)]
                      .reshape(m, size(j)) for j in cols]
            panel = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        else:
            if padded:
                runs = ((lo, hi),)
                k = hi - lo
                pos = {j: ranges[j][0] - lo for j in cols}
            else:
                pos, c = {}, 0
                for j in cols:
                    pos[j] = c
                    c += size(j)
            panel = np.zeros((m, k))
            for i in group:
                r0, r1 = ranges[i][0] - si, ranges[i][1] - si
                for j in by_row[i]:
                    c, w = pos[j], size(j)
                    o = offsets[(i, j)]
                    panel[r0:r1, c:c + w] = (
                        buf[o:o + (r1 - r0) * w].reshape(r1 - r0, w))
        table.append(_panel_entry(panel, runs, si, ei,
                                  [ranges[i] for i in group]))
    return tuple(table)


def _panel_entry(panel, runs, si, ei, bounds):
    """A row panel entry ``(panel, runs, k, si, ei, slices)`` whose
    narrow-path slices are bound as views of ``panel``, one per
    ``[a, b)`` row range in ``bounds``."""
    return (panel, runs, panel.shape[1], si, ei,
            tuple((panel[a - si:b - si], a, b) for a, b in bounds))


def _super_rows(cds: CDSMatrix) -> list[tuple[int, ...]]:
    """Near row groups: sibling leaves merged bottom-up into super-rows.

    Starts from one group per leaf and replaces the groups of a node's two
    children by one group of the node's leaves while the merged panel
    (the node's rows by the union of its leaves' near columns) holds at
    most ``_PAD_LIMIT`` times the entries of the D blocks it carries.
    Works on the leaf-level near incidence, one tree level at a time.
    Returns the groups' leaf ids in tree (row) order.
    """
    t = cds.tree
    pairs = np.asarray(cds.near_visit_order(), dtype=np.intp).reshape(-1, 2)
    leaves = np.flatnonzero(t.lchild < 0)
    leaves = leaves[np.argsort(t.start[leaves], kind="stable")]
    lpos = np.full(t.num_nodes, -1, dtype=np.intp)
    lpos[leaves] = np.arange(len(leaves))
    near = np.zeros((t.num_nodes, len(leaves)), dtype=bool)
    near[pairs[:, 0], lpos[pairs[:, 1]]] = True
    size = (t.stop - t.start).astype(np.int64)
    carried = np.zeros(t.num_nodes, dtype=np.int64)
    np.add.at(carried, pairs[:, 0], size[pairs[:, 0]] * size[pairs[:, 1]])
    whole = np.zeros(t.num_nodes, dtype=bool)
    whole[leaves] = carried[leaves] > 0
    interior = np.flatnonzero(t.lchild >= 0)
    for level in range(int(t.level.max()) - 1, -1, -1):
        nodes = interior[t.level[interior] == level]
        if not nodes.size:
            continue
        lc, rc = t.lchild[nodes], t.rchild[nodes]
        near[nodes] = near[lc] | near[rc]
        carried[nodes] = carried[lc] + carried[rc]
        k = near[nodes] @ size[leaves]
        whole[nodes] = (whole[lc] & whole[rc]
                        & (size[nodes] * k <= _PAD_LIMIT * carried[nodes]))
    parent_whole = np.zeros(t.num_nodes, dtype=bool)
    parent_whole[1:] = whole[t.parent[1:]]
    tops = np.flatnonzero(whole & ~parent_whole)
    tops = tops[np.argsort(t.start[tops], kind="stable")]
    bounds = np.searchsorted(t.start[leaves], np.stack([t.start[tops],
                                                        t.stop[tops]]))
    return [tuple(leaves[a:b].tolist()) for a, b in bounds.T.tolist()]


def _batched_near_tables(cds: CDSMatrix):
    t = cds.tree
    ranges = dict(enumerate(zip(t.start.tolist(), t.stop.tolist(),
                                strict=True)))
    return _row_panel_tables(cds.near_visit_order(), ranges, cds.near_buf,
                             cds.near_offset, groups=_super_rows(cds))


def _rank_offsets(cds: CDSMatrix) -> tuple[np.ndarray, int]:
    """Row offset of each basis node's skeleton block in the flat T/S
    panels (indexed by node), and the panels' height.

    The blocks go level by level, deepest first, and left to right inside
    a level. Two siblings' blocks are then adjacent, so an interior
    transfer reads its children's rows as one run.
    """
    t = cds.tree
    sranks = cds.factors.sranks
    nodes = np.flatnonzero(sranks[1:] > 0) + 1
    nodes = nodes[np.lexsort((t.start[nodes], -t.level[nodes]))]
    toff = np.zeros(t.num_nodes, dtype=np.intp)
    toff[nodes] = np.cumsum(sranks[nodes]) - sranks[nodes]
    return toff, int(sranks[nodes].sum())


def _member_slices(stack, gather, own):
    """``(stack[k], a, b, o, p)`` per member ``k`` of a group whose every
    member reads one run ``[a, b)`` of source rows (``gather[k]``) and
    writes one run ``[o, p)`` (``own[k]``). Such a group can run each
    member as a plain 2-D GEMM on row slices: the call the stacked
    ``np.matmul`` makes for that member, on a view instead of a gathered
    copy, so the products keep their bits.
    """
    m, r = gather.shape[1], own.shape[1]
    return tuple((Gk, a, a + m, o, o + r) for Gk, a, o in zip(
        stack, gather[:, 0].tolist(), own[:, 0].tolist(), strict=True))


def _tree_bucket(G, gather, own, from_w):
    """One basis bucket of the tree loops, with its views bound.

    ``G`` is the bucket's ``g×rows×cols`` generator stack, ``gather`` the
    ``g×rows`` source rows of its members (W rows for a leaf bucket, the
    children's skeleton rows of T in lc-then-rc order for an interior
    one) and ``own`` the ``g·cols`` skeleton rows it owns. The upward
    pass runs ``T[own] = (G^T @ src[gather]).reshape(-1, Q)`` through a
    transposed *view* of the stack (np.matmul lowers it to BLAS transpose
    flags, so the generators are stored once); the downward pass runs
    the transpose, ``dst[gather] += (G @ S[own]).reshape(-1, Q)``. Every
    member's gather and own rows are one run each (a leaf's points; the
    children's adjacent skeleton rows, :func:`_rank_offsets`), so both
    passes can also run member by member on row slices
    (:func:`_member_slices`). Returns ``(G, G^T, gather, gather flat,
    own, own per member, member slices, from_w)``.
    """
    own2d = own.reshape(len(G), -1)
    return (G, G.transpose(0, 2, 1), gather, gather.ravel(), own, own2d,
            _member_slices(G, gather, own2d), from_w)


def _batched_tree_tables(cds: CDSMatrix, toff: np.ndarray):
    """Tree-loop levels over the basis shape buckets, deepest level first
    (:func:`_tree_bucket`). The upward pass runs them in order, the
    downward pass in reverse. Interior transfers read the children's
    skeleton rows in lc-then-rc order, which keeps a bucket well-shaped
    even when the lc/rc rank split differs between its members.
    """
    t = cds.tree
    sranks = cds.factors.sranks
    # The first source row of each node's gather: a leaf's first point,
    # an interior node's left child's first skeleton row, which the right
    # child's rows continue (:func:`_rank_offsets`).
    first = t.start.astype(np.intp)
    inner = np.flatnonzero((t.lchild >= 0) & (sranks > 0))
    inner = inner[inner != 0]
    lc, rc = t.lchild[inner], t.rchild[inner]
    if (toff[rc] != toff[lc] + sranks[lc]).any():
        raise ValueError("sibling skeleton rows are not adjacent")
    first[inner] = toff[lc]
    levels = []
    for level in cds.basis_level_buckets():
        buckets = []
        for bucket in level:
            keys = np.asarray(bucket.keys, dtype=np.intp)
            rows, cols = bucket.shape
            gather = first[keys][:, None] + np.arange(rows)
            own = (toff[keys][:, None] + np.arange(cols)).ravel()
            buckets.append(_tree_bucket(bucket.gather(cds.basis_buf),
                                        gather, own, bucket.kind == "leaf"))
        levels.append(tuple(buckets))
    return tuple(levels)


def _stacked_panels(panels):
    """Row panels grouped by shape ``(m, k)`` into stacked GEMM operands.

    Every entry is ``(P, idx, rows)`` for the ``g`` panels of one shape,
    in order of each shape's first panel: ``P`` is their ``g×m×k``
    stack (a view of a lone panel), ``idx`` the ``g×k`` operand rows
    (each panel's gather runs, expanded) and ``rows`` the ``g·m`` output
    rows, so ``out[rows] += np.matmul(P, src[idx]).reshape(-1, Q)`` runs
    every panel of the group in one call. NumPy runs a stack as one BLAS
    call per member, the same call as the member's 2-D product, so the
    products keep their bits. Output rows must not overlap across panels
    (a fancy-indexed ``+=`` would drop the repeats), and this is checked.
    """
    by_shape: dict[tuple[int, int], list] = {}
    for panel, runs, _k, si, ei, _slices in panels:
        by_shape.setdefault(panel.shape, []).append((panel, runs, si, ei))
    stacks = []
    for members in by_shape.values():
        P = (members[0][0][None] if len(members) == 1
             else np.stack([panel for panel, _runs, _si, _ei in members]))
        idx = np.stack([
            np.concatenate([np.arange(a, b) for a, b in runs])
            for _panel, runs, _si, _ei in members
        ])
        rows = np.concatenate([
            np.arange(si, ei) for _panel, _runs, si, ei in members
        ])
        stacks.append((P, idx, rows))
    if stacks:
        written = np.concatenate([rows for _P, _idx, rows in stacks])
        seen = np.zeros(int(written.max()) + 1, dtype=bool)
        seen[written] = True
        if np.count_nonzero(seen) != written.size:
            raise ValueError("row panels write overlapping output rows")
    return tuple(stacks)


def _coupling_stack(P, idx, rows):
    """One coupling stack ``(P, idx, rows, member slices)``. A member's
    output rows are its node's skeleton rows, one run; the stack has
    member slices (:func:`_member_slices`) when every member's operand
    rows ``idx`` are one run too, else ``()``."""
    runs = not (idx[:, 1:] - idx[:, :-1] != 1).any()
    return (P, idx, rows,
            _member_slices(P, idx, rows.reshape(len(P), -1)) if runs else ())


def _batched_far_tables(cds: CDSMatrix, toff: np.ndarray):
    """Coupling-loop stacks: one row panel per output node, grouped by
    shape (:func:`_stacked_panels`), each ``(P, idx, rows, member
    slices)`` (:func:`_coupling_stack`). A panel's columns and padding
    are decided on the skeleton rows in post order, as before T/S went
    level by level, and only the rows it gathers and writes are mapped
    to ``toff``'s layout: the column order is its GEMM's order of sums.
    """
    sranks = cds.factors.sranks
    nodes = np.asarray(cds.basis_nodes(), dtype=np.intp)
    size = sranks[nodes]
    post = np.cumsum(size) - size
    remap = (np.repeat(toff[nodes] - post, size)
             + np.arange(int(size.sum())))
    ranges = dict(zip(nodes.tolist(), zip(post.tolist(),
                                          (post + size).tolist(),
                                          strict=True), strict=True))
    stacks = _stacked_panels(_row_panel_tables(
        cds.far_visit_order(), ranges, cds.far_buf, cds.far_offset))
    return tuple(_coupling_stack(P, remap[idx], remap[rows])
                 for P, idx, rows in stacks)


@dataclass
class BatchedTables:
    """The batched program's tables, built once per plan.

    ``near`` holds the super-row panels ``(panel, runs, k, si, ei,
    slices)`` (:func:`_row_panel_tables`), ``levels`` the tree loops'
    basis buckets per level (:func:`_tree_bucket`) and ``far`` the
    coupling stacks ``(P, idx, rows, member slices)``
    (:func:`_coupling_stack`). ``rank_rows`` is the height of the T/S
    skeleton panels (:func:`_rank_offsets`). The serial
    engine runs every entry (:func:`run_batched`); a process worker runs
    a ``BatchedTables`` holding its share of them (DESIGN.md section 7).
    """

    rank_rows: int
    near: tuple = ()
    levels: tuple = ()
    far: tuple = ()
    #: Rows of the near loop's gather buffer (its widest gathered panel).
    max_k: int = field(init=False)

    def __post_init__(self) -> None:
        self.max_k = max((e[2] for e in self.near if len(e[1]) > 1),
                         default=1)

    def __reduce__(self):
        # Pickling copies each array it meets on its own, so a row slice,
        # a member of a stack or a transposed stack would come back as a
        # separate copy in a new layout: ship the bases and bind the views
        # again on load.
        near = tuple(
            (panel, runs, si, ei, tuple((a, b) for _rows, a, b in slices))
            for panel, runs, _k, si, ei, slices in self.near)
        levels = tuple(
            tuple((G, gather, own, from_w)
                  for G, _GT, gather, _flat, own, _own2d, _members, from_w
                  in level)
            for level in self.levels)
        far = tuple((P, idx, rows) for P, idx, rows, _members in self.far)
        return (_bind_tables, (self.rank_rows, near, levels, far))


def _bind_tables(rank_rows, near, levels, far) -> BatchedTables:
    """Unpickle :class:`BatchedTables`, binding its views again."""
    return BatchedTables(
        rank_rows,
        near=tuple(_panel_entry(*e) for e in near),
        levels=tuple(tuple(_tree_bucket(*b) for b in level)
                     for level in levels),
        far=tuple(_coupling_stack(*e) for e in far))


def near_loop(blocks, W, Y, pool=None) -> None:
    """Per-block near loop: ``Y[si:ei] += D @ W[sj:ej]`` per interaction.
    Blocks write disjoint Y rows, so with a pool they run in parallel (no
    reductions); a serial loop passes no pool."""
    def block(entries):
        for D, si, ei, sj, ej in entries:
            Y[si:ei] += D @ W[sj:ej]
    _run_parallel(pool, block, blocks)


def up_loop(levels, peeled, W, T, pool=None) -> None:
    """Per-block upward pass: levels in order, the sub-trees of a level in
    parallel, then the peeled root iteration's ops on the calling thread
    (the top level has little task parallelism, so its GEMMs run as one
    op list instead of sub-tree tasks)."""
    def subtree(ops):
        for op, v, G, a, b, rlc in ops:
            if op == OP_LEAF:
                T[v] = G.T @ W[a:b]
            else:
                T[v] = G[:rlc].T @ T[a] + G[rlc:].T @ T[b]
    for level in levels:
        _run_parallel(pool, subtree, level)
    subtree(peeled)


def coupling_loop(blocks, T, S, pool=None) -> None:
    """Per-block coupling loop: ``S[i] += B @ T[j]`` per interaction.
    Same-output interactions share a block, so with a pool the blocks run
    in parallel (no reduction across blocks); a serial loop passes no
    pool."""
    def block(entries):
        for B, i, j in entries:
            contrib = B @ T[j]
            if S[i] is None:
                S[i] = contrib
            else:
                S[i] += contrib
    _run_parallel(pool, block, blocks)


def down_loop(levels, peeled, S, Y, pool=None) -> None:
    """Per-block downward pass: the peeled root iteration first (top of
    the tree), then the levels top-down with their sub-trees in
    parallel; ``levels`` and ``peeled`` already list parents before
    children."""
    def subtree(ops):
        for op, v, G, a, b, rlc in ops:
            sv = S[v]
            if sv is None:
                continue
            if op == OP_LEAF:
                Y[a:b] += G @ sv
            else:
                top = G[:rlc] @ sv
                bot = G[rlc:] @ sv
                S[a] = top if S[a] is None else S[a] + top
                S[b] = bot if S[b] is None else S[b] + bot
    subtree(peeled)
    for level in levels:
        _run_parallel(pool, subtree, level)


def run_blocks(tables: BlockTables, W, Y, pool=None, q_chunk=None):
    """The per-block product ``Y += K~ @ W`` in tree order, in column
    panels of at most ``q_chunk`` (:func:`_column_chunks`). The tree loops
    use ``pool`` whenever one is given, each reduction loop only when it
    is blocked."""
    for Wc, Yc in _column_chunks(W, Y, q_chunk):
        T = [None] * tables.num_nodes
        S = [None] * tables.num_nodes
        near_loop(tables.near, Wc, Yc, pool if tables.block_near else None)
        up_loop(tables.up, tables.up_peeled, Wc, T, pool)
        coupling_loop(tables.far, T, S, pool if tables.block_far else None)
        down_loop(tables.down, tables.down_peeled, S, Yc, pool)
    return Y


def near_pass(panels, W, Y, buf) -> None:
    """Near loop: one row panel per super-row, ``Y += D @ W``.

    A single writer owns each output range, so the update is a plain
    slice add; a single-run gather is a view of W, scattered gathers copy
    their few contiguous runs into ``buf`` (at least ``max_k`` rows, Q
    columns) once per panel. Wide products run one GEMM per panel,
    narrow ones one GEMM per leaf-row slice of it.
    """
    wide = W.shape[1] >= WIDE_Q_MIN
    for panel, runs, k, si, ei, slices in panels:
        if len(runs) == 1:
            opnd = W[runs[0][0]:runs[0][1]]
        else:
            opnd = buf[:k]
            o = 0
            for a, b in runs:
                opnd[o:o + b - a] = W[a:b]
                o += b - a
        if wide:
            Y[si:ei] += panel @ opnd
        else:
            for rows, a, b in slices:
                Y[a:b] += rows @ opnd


def _by_members(stack, members, q: int) -> bool:
    """Whether a group (generator or panel ``stack``, with ``members``)
    runs by member slices at width ``q`` (:data:`MEMBER_MIN_MACS`). Every
    member gets the same BLAS call either way, so the bytes do not depend
    on the path."""
    g, m, k = stack.shape
    return bool(members) and (g == 1 or m * k * q >= MEMBER_MIN_MACS)


def up_pass(levels, W, T) -> None:
    """Upward pass: levels bottom-up; every bucket writes disjoint
    skeleton rows of T, by one stacked GEMM or by member slices."""
    q = W.shape[1]
    for level in levels:
        for G, GT, gather, _flat, own, _own2d, members, from_w in level:
            src = W if from_w else T
            if _by_members(G, members, q):
                for Gk, a, b, o, p in members:
                    np.matmul(Gk.T, src[a:b], out=T[o:p])
            else:
                T[own] = np.matmul(GT, src[gather]).reshape(-1, q)


def far_pass(stacks, T, S) -> None:
    """Coupling loop: one stacked GEMM per panel shape, or its member
    slices, storing into the S panel. Each S row has one writer here;
    storing instead of adding into zeros changes only a zero's sign,
    which never reaches Y (Y starts at +0.0 and is only added to)."""
    q = T.shape[1]
    for P, idx, rows, members in stacks:
        if _by_members(P, members, q):
            for Pk, a, b, o, p in members:
                np.matmul(Pk, T[a:b], out=S[o:p])
        else:
            S[rows] = np.matmul(P, T[idx]).reshape(-1, q)


def down_pass(levels, S, Y) -> None:
    """Downward pass: levels top-down; leaf buckets add into Y rows,
    interior buckets into the children's S rows (disjoint per level), by
    one stacked GEMM and a fancy-indexed scatter or by member slices.
    Both add the same values to the same rows."""
    q = S.shape[1]
    for level in reversed(levels):
        for G, _GT, _gather, flat, _own, own2d, members, to_y in level:
            dst = Y if to_y else S
            if _by_members(G, members, q):
                for Gk, a, b, o, p in members:
                    dst[a:b] += Gk @ S[o:p]
            else:
                dst[flat] += np.matmul(G, S[own2d]).reshape(-1, q)


def run_batched(tables: BatchedTables, W, Y, pool=None, q_chunk=None):
    """The batched product ``Y += K~ @ W`` in tree order, in one process,
    in column panels of at most ``q_chunk`` (:func:`_column_chunks`).

    The T/S panels and the near gather buffer are allocated once per
    call, for the widest panel, and every panel reuses them. ``pool`` is
    accepted for interface parity and ignored: the fat kernels already
    saturate BLAS without task-level threading.
    """
    q = W.shape[1]
    if q == 0:
        return Y
    width = min(q, q_chunk or q)
    t, s = np.empty(tables.rank_rows * width), np.empty(tables.rank_rows * width)
    g = np.empty(tables.max_k * width)
    for Wc, Yc in _column_chunks(W, Y, q_chunk):
        w = Wc.shape[1]
        T = t[:tables.rank_rows * w].reshape(-1, w)
        S = s[:tables.rank_rows * w].reshape(-1, w)
        S[:] = 0.0
        near_pass(tables.near, Wc, Yc, g[:tables.max_k * w].reshape(-1, w))
        up_pass(tables.levels, Wc, T)
        far_pass(tables.far, T, S)
        down_pass(tables.levels, S, Yc)
    return Y


def build_batched_tables(cds: CDSMatrix) -> BatchedTables:
    """Build the batched program's tables for ``cds``."""
    toff, rank_rows = _rank_offsets(cds)
    return BatchedTables(
        rank_rows,
        near=_batched_near_tables(cds),
        levels=_batched_tree_tables(cds, toff),
        far=_batched_far_tables(cds, toff),
    )


def generate_batched_evaluator(
    cds: CDSMatrix,
    ir: EvaluationIR | None = None,
    decision: LoweringDecision | None = None,
    q_chunk: int | None = DEFAULT_Q_CHUNK,
) -> GeneratedEvaluator:
    """Build the bucketed batched-GEMM evaluator for ``cds``.

    The returned evaluator computes what :func:`generate_evaluator`
    computes, to rounding, but runs :func:`run_batched` over the plan's
    :class:`BatchedTables`. ``decision`` is the plan's lowering decision
    (``H.evaluator.decision``), recorded with the batch lowering on top;
    without one, the IR is built and decided with default thresholds.
    ``q_chunk`` bounds the panel width of one pass (``None`` disables
    streaming and runs any Q in a single pass); its default is the width
    the process engine sizes its scratch by, so both engines split a
    wide product into the same passes.
    """
    from repro.codegen.ir import build_ir

    if decision is None:
        if ir is None:
            ir = build_ir(
                cds.factors,
                coarsenset=cds.coarsenset,
                near_blockset=cds.near_blockset,
                far_blockset=cds.far_blockset,
            )
        decision = decide_lowering(ir)
    tables = build_batched_tables(cds)
    return GeneratedEvaluator(
        decision=lower_batched(ir, decision), cds=cds,
        program=Program(lambda: tables), q_chunk=q_chunk,
    )
