"""Container for the compression output: the U/V/B/D generators and sranks.

This is the "structure information" handed from the compression phase to
structure analysis and data-layout construction. Submatrices are stored in
plain per-node / per-pair dicts here (near and coupling blocks as column
slices of one kernel block per row node); the CDS layer (repro.storage.cds)
repacks them into flat visit-order buffers and then re-points these dicts
at views into those buffers, so each generator is held once. A loaded
plan's dicts are views into the decoded buffers, which the CDS keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.htree.htree import HTree


@dataclass
class Factors:
    """Generators of the compressed HMatrix.

    Attributes
    ----------
    htree:
        The interaction structure these factors were built for.
    skeleton:
        Per node: original-order point indices of the node's skeleton.
    leaf_basis:
        Per leaf node v: ``V_v`` of shape (|I_v|, r_v). Symmetric kernels
        share U = V, so one array serves both the upward projection
        (``V^T W``) and the downward interpolation (``V S``).
    transfer:
        Per interior node v: ``E_v`` of shape (r_lc + r_rc, r_v), the nested
        basis transfer matrix.
    coupling:
        Per far pair (i, j): ``B_ij = K(sk(i), sk(j))`` of shape (r_i, r_j).
    near_blocks:
        Per near pair (i, j): exact dense ``D_ij = K(I_i, I_j)``.
    sranks:
        Per node: skeleton rank r_v (0 for nodes without a basis).
    """

    htree: HTree
    skeleton: dict[int, np.ndarray] = field(default_factory=dict)
    leaf_basis: dict[int, np.ndarray] = field(default_factory=dict)
    transfer: dict[int, np.ndarray] = field(default_factory=dict)
    coupling: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    near_blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    sranks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    @property
    def tree(self):
        return self.htree.tree

    def srank(self, v: int) -> int:
        return int(self.sranks[v])

    def memory_bytes(self) -> int:
        """Total bytes held by all generators (float64)."""
        total = 0
        for d in (self.leaf_basis, self.transfer):
            total += sum(a.nbytes for a in d.values())
        for d in (self.coupling, self.near_blocks):
            total += sum(a.nbytes for a in d.values())
        return total

    def compression_ratio(self) -> float:
        """Dense matrix bytes / compressed bytes."""
        n = self.tree.num_points
        dense = n * n * 8
        stored = self.memory_bytes()
        return dense / stored if stored else float("inf")

    def evaluation_flops(self, q: int) -> int:
        """Flops of one HMatrix-matrix multiply with Q = ``q`` columns.

        Counts 2*m*n*q per GEMM: near D blocks, leaf V (up + down),
        transfer E (up + down), and coupling B applications.
        """
        t = self.tree
        flops = 0
        for (i, j) in self.near_blocks:
            flops += 2 * t.node_size(i) * t.node_size(j) * q
        for _v, V in self.leaf_basis.items():
            flops += 2 * 2 * V.shape[0] * V.shape[1] * q
        for _v, E in self.transfer.items():
            flops += 2 * 2 * E.shape[0] * E.shape[1] * q
        for (_i, _j), B in self.coupling.items():
            flops += 2 * B.shape[0] * B.shape[1] * q
        return flops

    def validate(self) -> None:
        """Shape consistency of all generators; raises AssertionError."""
        t = self.tree
        for v, V in self.leaf_basis.items():
            assert t.is_leaf(v), f"leaf basis on interior node {v}"
            assert V.shape == (t.node_size(v), self.srank(v)), (
                f"leaf basis {v}: {V.shape} != ({t.node_size(v)}, {self.srank(v)})"
            )
        for v, E in self.transfer.items():
            assert not t.is_leaf(v), f"transfer on leaf node {v}"
            lc, rc = int(t.lchild[v]), int(t.rchild[v])
            assert E.shape == (self.srank(lc) + self.srank(rc), self.srank(v)), (
                f"transfer {v}: {E.shape}"
            )
        for (i, j), B in self.coupling.items():
            assert B.shape == (self.srank(i), self.srank(j)), f"coupling {(i, j)}"
        for (i, j), D in self.near_blocks.items():
            assert D.shape == (t.node_size(i), t.node_size(j)), f"near {(i, j)}"
