"""Lowering decisions: when block / coarsen / low-level / batch lowering apply.

The paper gates each lowering on a threshold so thread-launch overhead is
amortised: block lowering requires more interactions than ``block_threshold``
(default: the number of leaf nodes), coarsen lowering requires more tree
levels than ``coarsen_threshold`` (default 4). Root peeling (the low-level
transform) applies whenever coarsen lowering does and the top of the tree
has too little task parallelism.

Batch lowering (``lowered_to="batched"``) rewrites every loop to fuse its
small GEMMs: the reduction loops run one GEMM per row panel (a near
super-row, or one coupling output node, stacked by shape) and the tree
loops one stacked GEMM per basis shape bucket, eliminating the per-block
dispatch overhead of the interpreted executor. Its cost-model gate is
*fusion occupancy* (:func:`batch_occupancy`): batching only pays when the
mean number of GEMMs fused per kernel reaches ``batch_threshold``
(default 2), otherwise the gather/scatter traffic buys no kernel-launch
amortisation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codegen.ir import EvaluationIR


@dataclass(frozen=True)
class LoweringDecision:
    """Which lowerings the generated code will contain, and why."""

    block_near: bool
    block_far: bool
    coarsen: bool
    peel_root: bool
    block_threshold: int
    far_block_threshold: int
    coarsen_threshold: int
    reasons: tuple[str, ...] = ()
    batch: bool = False
    batch_threshold: float = 2.0


def batch_occupancy(ir: EvaluationIR) -> float:
    """Mean GEMMs fused per batched kernel across all four loops.

    The reduction loops fuse all interactions sharing an output node into
    one row-panel GEMM, so their fusion factor is interactions per distinct
    output node; the tree loops fuse each (level, role, shape) bucket into
    one stacked GEMM. Near 1.0 (e.g. HSS: a diagonal-only near list and
    sibling-only coupling, one block per output node) batching degenerates
    to the serial loop plus gather traffic and is not worth compiling.
    """
    factors = ir.factors
    tree = factors.tree
    kernels = 0
    gemms = 0
    for loop in ("near", "coupling"):
        rows = {i for (i, _j) in ir.loop(loop).iterations}
        kernels += len(rows)
        gemms += ir.loop(loop).trip_count
    buckets: dict[tuple, int] = {}
    for v in ir.loop("upward").iterations:
        if v == 0:
            continue
        gen = factors.leaf_basis[v] if tree.is_leaf(v) else factors.transfer[v]
        key = (int(tree.level[v]), tree.is_leaf(v), gen.shape)
        buckets[key] = buckets.get(key, 0) + 1
    kernels += len(buckets)
    gemms += sum(buckets.values())
    return gemms / kernels if kernels else 0.0


def lower_batched(ir: EvaluationIR | None,
                  base: LoweringDecision) -> LoweringDecision:
    """``base`` with the batch lowering recorded on top; the IR's four
    loop annotations (when an IR is given) are rewritten to match."""
    if ir is not None:
        for name in ("near", "upward", "coupling", "downward"):
            ir.loop(name).lowered_to = "batched"
    return replace(
        base,
        batch=True,
        reasons=base.reasons + ("all loops lowered to bucketed batched GEMMs",),
    )


def decide_lowering(
    ir: EvaluationIR,
    block_threshold: int | None = None,
    far_block_threshold: int | None = None,
    coarsen_threshold: int = 4,
    low_level: bool = True,
    batch_threshold: float = 2.0,
) -> LoweringDecision:
    """Apply the paper's threshold rules to the IR.

    ``block_threshold`` defaults to the number of leaf nodes (the paper's
    architecture-derived default); with HSS structures the number of near
    interactions equals the number of leaves and never *exceeds* it, so
    block lowering stays off — reproducing "block lowering is never
    activated for HSS". The far loop gets its own threshold defaulting to
    twice the node count: HSS's sibling-only coupling list (about one B per
    node) stays below it and remains fused with the tree sweep, while the
    denser far lists of geometric/budget H2 structures exceed it.
    """
    tree = ir.factors.tree
    n_leaves = len(tree.leaves)
    if block_threshold is None:
        block_threshold = n_leaves
    if far_block_threshold is None:
        far_block_threshold = 2 * tree.num_nodes

    reasons = []
    near_n = ir.loop("near").trip_count
    far_n = ir.loop("coupling").trip_count
    block_near = near_n > block_threshold and ir.near_blockset is not None
    block_far = far_n > far_block_threshold and ir.far_blockset is not None
    reasons.append(
        f"near interactions {near_n} {'>' if block_near else '<='} "
        f"block_threshold {block_threshold}"
    )
    reasons.append(
        f"far interactions {far_n} {'>' if block_far else '<='} "
        f"far_block_threshold {far_block_threshold}"
    )

    n_levels = tree.height + 1
    coarsen = n_levels > coarsen_threshold and ir.coarsenset is not None
    reasons.append(
        f"tree levels {n_levels} {'>' if coarsen else '<='} "
        f"coarsen_threshold {coarsen_threshold}"
    )

    peel = bool(low_level and coarsen and ir.coarsenset.num_levels >= 1)
    if peel:
        reasons.append("root iteration peeled for BLAS-level parallelism")

    # Batch gate: is a bucketed batched-GEMM executor worth compiling?
    # (The standard lowering annotations below are unaffected — the batched
    # evaluator records this decision with ``lower_batched`` on top.)
    occupancy = batch_occupancy(ir)
    batch = occupancy >= batch_threshold
    reasons.append(
        f"bucket occupancy {occupancy:.1f} "
        f"{'>=' if batch else '<'} batch_threshold {batch_threshold}"
    )

    # Record the decision on the IR loops.
    ir.loop("near").lowered_to = "blocked" if block_near else "serial"
    ir.loop("coupling").lowered_to = "blocked" if block_far else "serial"
    ir.loop("upward").lowered_to = "coarsened" if coarsen else "serial"
    ir.loop("downward").lowered_to = "coarsened" if coarsen else "serial"

    return LoweringDecision(
        block_near=block_near,
        block_far=block_far,
        coarsen=coarsen,
        peel_root=peel,
        block_threshold=block_threshold,
        far_block_threshold=far_block_threshold,
        coarsen_threshold=coarsen_threshold,
        reasons=tuple(reasons),
        batch=batch,
        batch_threshold=batch_threshold,
    )
