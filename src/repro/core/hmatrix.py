"""The HMatrix: compressed kernel matrix + structure sets + CDS + code.

This is the object the MatRox inspector hands to the executor (the ``H`` of
the paper's Figure 2). It owns the CDS-packed generators, the structure sets
that produced the layout, and the generated specialized evaluator, and maps
between the user's point order and the internal tree order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.structure_sets import BlockSet, CoarsenSet
from repro.api.policy import ExecutionPolicy, resolve_policy
from repro.codegen.emit import GeneratedEvaluator
from repro.compression.factors import Factors
from repro.storage.cds import CDSMatrix
from repro.utils.validation import check_finite


@dataclass
class HMatrix:
    """Compressed H2 approximation of a kernel matrix."""

    cds: CDSMatrix
    evaluator: GeneratedEvaluator
    metadata: dict = field(default_factory=dict)
    _batched: GeneratedEvaluator | None = field(default=None, repr=False)

    @property
    def factors(self) -> Factors:
        return self.cds.factors

    @property
    def tree(self):
        return self.cds.tree

    @property
    def dim(self) -> int:
        """Matrix dimension N."""
        return self.cds.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def sranks(self) -> np.ndarray:
        return self.factors.sranks

    @property
    def coarsenset(self) -> CoarsenSet:
        return self.cds.coarsenset

    @property
    def near_blockset(self) -> BlockSet:
        return self.cds.near_blockset

    @property
    def far_blockset(self) -> BlockSet:
        return self.cds.far_blockset

    # ------------------------------------------------------------- evaluation
    @property
    def batched_evaluator(self) -> GeneratedEvaluator:
        """The batched program: its :class:`~repro.codegen.emit.BatchedTables`,
        built on first use and kept, dealt out by the process engine and
        run by ``order="batched"`` when the cost model accepted batch
        lowering (``evaluator.decision.batch``). The inspector already
        paid for the structure analysis and the lowering decision, so this
        is just table gathering."""
        if self._batched is None:
            from repro.codegen.emit import generate_batched_evaluator
            self._batched = generate_batched_evaluator(
                self.cds, decision=self.evaluator.decision)
        return self._batched

    def matmul(self, W: np.ndarray, pool=None, order: str | None = None,
               q_chunk: int | None = None,
               policy: "ExecutionPolicy | None" = None) -> np.ndarray:
        """``Y = K~ @ W`` with the generated specialized code.

        Knobs resolve through one :class:`~repro.api.policy.ExecutionPolicy`
        (explicit ``order``/``q_chunk`` win over ``policy``, which wins over
        :data:`~repro.api.policy.DEFAULT_POLICY`). ``order="batched"`` (the
        shared default) executes through the bucketed batched-GEMM engine,
        falling back to the per-block code (with ``pool``) when the cost
        model rejected batch lowering; ``order="original"`` forces the
        per-block code. W rows are in the user's input point order either
        way, and must be finite (``ValueError`` otherwise). ``q_chunk``
        overrides the selected evaluator's streaming panel width (the
        single chunking layer — callers never chunk on top of it). When no
        ``pool`` is given and the policy asks for threads, a short-lived
        pool is created for this call.
        """
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk)
        W = np.ascontiguousarray(W, dtype=np.float64)
        check_finite(W)
        if pol.is_auto:
            # Profile-guided resolution (DESIGN.md section 9) through the
            # process-global tuner: repeated bare H.matmul(W) calls reuse
            # the profile tuned on the first one. Executor/Session carry
            # their own (PlanStore-persisted) tuner instead.
            from repro.tuning import resolve_auto
            pol = resolve_auto(self, W, pol)
        order, q_chunk = pol.order, pol.q_chunk
        if pol.backend == "process" and pool is None and order != "original":
            # Convenience path: a short-lived pool for this one call. For
            # the persistent pool the backend is designed around, route
            # through an Executor or Session, which cache one
            # ProcessEngine per HMatrix and close it deterministically.
            # order="original" asks for the per-block code by name, so it
            # wins over the backend and runs in-process below.
            from repro.core.parallel import ProcessEngine
            with ProcessEngine(self, num_workers=pol.num_workers,
                               q_chunk=q_chunk) as engine:
                return engine.matmul(W)
        if pool is None and pol.num_threads and pol.num_threads > 1:
            with ThreadPoolExecutor(max_workers=pol.num_threads) as tmp:
                return self.matmul(W, pool=tmp, order=order, q_chunk=q_chunk)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        if W.shape[0] != self.dim:
            raise ValueError(
                f"W has {W.shape[0]} rows but the HMatrix dimension is "
                f"{self.dim}"
            )
        if order not in ("original", "batched"):
            raise ValueError(
                f"order must be 'original' or 'batched', got {order!r}")
        # Degradation: batched -> per-block code. Both give the same
        # results, so a rejected batch lowering is a performance event
        # (recorded in the lowering decision), never an error.
        ev = self.evaluator
        if order == "batched" and ev.decision.batch:
            ev = self.batched_evaluator
        if q_chunk is not None and ev.q_chunk != q_chunk:
            ev = replace(ev, q_chunk=q_chunk)
        perm = self.tree.perm
        Y_tree = ev(W[perm], pool=pool)
        Y = np.empty_like(Y_tree)
        Y[perm] = Y_tree
        return Y[:, 0] if squeeze else Y

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        return self.matmul(W)

    # -------------------------------------------------------------- reporting
    def memory_bytes(self) -> int:
        return self.cds.total_bytes()

    def compression_ratio(self) -> float:
        dense = self.dim * self.dim * 8
        stored = self.memory_bytes()
        return dense / stored if stored else float("inf")

    def evaluation_flops(self, q: int) -> int:
        return self.factors.evaluation_flops(q)

    def summary(self) -> dict:
        """Human-readable structural summary (used by examples and logs)."""
        f = self.factors
        active = f.sranks[f.sranks > 0]
        return {
            "N": self.dim,
            "structure": f.htree.structure,
            "tree_height": self.tree.height,
            "num_leaves": int(len(self.tree.leaves)),
            "near_interactions": f.htree.num_near(),
            "far_interactions": f.htree.num_far(),
            "mean_srank": float(active.mean()) if len(active) else 0.0,
            "max_srank": int(active.max()) if len(active) else 0,
            "memory_mb": self.memory_bytes() / 2**20,
            "compression_ratio": self.compression_ratio(),
            "lowering": {
                "block_near": self.evaluator.decision.block_near,
                "block_far": self.evaluator.decision.block_far,
                "coarsen": self.evaluator.decision.coarsen,
                "peel_root": self.evaluator.decision.peel_root,
                "batch": self.evaluator.decision.batch,
            },
        }
