"""Bottom-up nested-basis skeletonization of the cluster tree.

Leaves are skeletonized by a column ID of the sampled far-field block
``K(samples, I_v)``; interior nodes skeletonize the union of their
children's skeletons, producing the transfer matrices that make the basis
*nested* (the defining property of H2). Every node's srank is adaptively
tuned to the requested block accuracy, exactly as in the paper's low-rank
approximation module.
"""

from __future__ import annotations

import numpy as np

from repro.compression.factors import Factors
from repro.compression.interp_decomp import (
    interpolative_decomposition,
    single_threaded_lapack,
)
from repro.htree.htree import HTree
from repro.kernels.base import Kernel
from repro.sampling.plan import SamplingPlan
from repro.utils.validation import require


def _node_sample_points(tree, plan: SamplingPlan, v: int, min_rows: int) -> np.ndarray:
    """Sample coordinates for node ``v``, topped up from ancestors if thin.

    The ID needs at least as many sample rows as the rank it may select;
    when a node's own sample list is shorter (tiny datasets), merge in the
    parent's samples that fall outside the node.
    """
    own = set(tree.node_point_indices(v).tolist())
    picked = [s for s in plan.for_node(v).tolist() if s not in own]
    u = v
    while len(picked) < min_rows and tree.parent[u] >= 0:
        u = int(tree.parent[u])
        extra = [s for s in plan.for_node(u).tolist()
                 if s not in own and s not in picked]
        picked.extend(extra)
    return tree.points[np.asarray(picked[: max(min_rows, len(picked))], dtype=np.intp)]


def skeletonize_tree(
    htree: HTree,
    kernel: Kernel,
    plan: SamplingPlan,
    bacc: float = 1e-5,
    max_rank: int = 256,
) -> Factors:
    """Build U/V (leaf bases), transfer matrices, couplings, and near blocks."""
    require(bacc > 0, "bacc must be positive")
    require(max_rank >= 1, "max_rank must be >= 1")
    tree = htree.tree
    points = tree.points

    needs_basis = set(htree.nodes_with_basis())
    factors = Factors(htree=htree)
    sranks = np.zeros(tree.num_nodes, dtype=np.intp)
    skeleton: dict[int, np.ndarray] = {}

    # Bottom-up: children before parents (post-order guarantees this). The
    # IDs run on one LAPACK thread: see single_threaded_lapack.
    with single_threaded_lapack():
        for v in tree.postorder():
            if v == 0 or v not in needs_basis:
                continue
            if tree.is_leaf(v):
                cand_idx = tree.node_point_indices(v)  # original order
            else:
                lc, rc = int(tree.lchild[v]), int(tree.rchild[v])
                cand_idx = np.concatenate([skeleton[lc], skeleton[rc]])

            min_rows = min(2 * max_rank, max(2 * len(cand_idx), 8))
            samples = _node_sample_points(tree, plan, v, min_rows)
            G = (kernel.block(samples, points[cand_idx]) if len(samples)
                 else np.zeros((0, len(cand_idx))))
            decomp = interpolative_decomposition(G, bacc=bacc, max_rank=max_rank)

            skeleton[v] = cand_idx[decomp.skeleton]
            sranks[v] = decomp.rank
            if tree.is_leaf(v):
                factors.leaf_basis[v] = np.ascontiguousarray(decomp.interp.T)
            else:
                factors.transfer[v] = np.ascontiguousarray(decomp.interp.T)

    factors.skeleton = skeleton
    factors.sranks = sranks

    # Coupling blocks for far pairs, B_ij = K(sk(i), sk(j)), and near blocks,
    # D_ij = K(I_i, I_j) kept exact in *tree order* so the executor can index
    # Y/W with contiguous slices. Both come from one kernel evaluation per
    # row node i over its partners' columns, concatenated; each block is a
    # column slice of that row block. build_cds copies every slice into its
    # CDS slot, after which the row blocks are freed. A row block is not
    # block(X, X), so each D_ii gets the kernel's diagonal shift here.
    for i, partners in sorted(htree.far.items()):
        if partners:
            cols = [skeleton[j] for j in partners]
            row = kernel.block(points[skeleton[i]], points[np.concatenate(cols)])
            _split_columns(factors.coupling, i, partners, row, map(len, cols))
    shift = kernel.diagonal_shift
    for i, partners in sorted(htree.near.items()):
        if partners:
            row = kernel.block(tree.node_points(i), np.concatenate(
                [tree.node_points(j) for j in partners]))
            _split_columns(factors.near_blocks, i, partners, row,
                           map(tree.node_size, partners))
            if shift and i in partners:
                D = factors.near_blocks[(i, i)]
                D[np.diag_indices_from(D)] += shift
    return factors


def _split_columns(blocks: dict, i: int, partners, row: np.ndarray, widths) -> None:
    """Store consecutive column slices of ``row``, one per partner ``j`` of
    the given widths, as ``blocks[(i, j)]``."""
    start = 0
    for j, width in zip(partners, widths, strict=True):
        blocks[(i, j)] = row[:, start : start + width]
        start += width
