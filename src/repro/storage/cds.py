"""Compressed Data-Sparse (CDS) storage format.

CDS packs the submatrices into three flat buffers in *visit order*:

* ``basis_buf``  — leaf V and interior transfer E matrices, in coarsenset
  order (bottom coarsen level first, sub-tree by sub-tree, post-order inside
  each sub-tree) — the order of the upward pass;
* ``near_buf``   — D blocks in near-blockset order;
* ``far_buf``    — B blocks in far-blockset order.

Offsets are derived from sranks/block sizes, so a generator is addressed as
``buf[offset[key] : offset[key] + rows*cols].reshape(rows, cols)`` — these
reshapes are NumPy views into the flat buffer, never copies, preserving the
format's locality in the executor. The buffers own the generators: after
packing, the :class:`Factors` dicts hold these same views. A loaded plan's
buffers are already in this order, so its decoded buffers are kept as the
CDS buffers instead of being packed into a second copy.

On top of the flat buffers the CDS also exposes *basis shape buckets*:
the V/E generators of one tree level grouped by role and ``(rows, cols)``
in visit order, each bucket carrying the buffer offsets of its members so
the batched executor's tree loops gather one ``(batch, rows, cols)`` stack
and run a single stacked GEMM per bucket instead of one small GEMM per
generator (see DESIGN.md section 3). The near and coupling loops run on
row panels built from the block offsets instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.structure_sets import BlockSet, CoarsenSet
from repro.compression.factors import Factors


@dataclass
class ShapeBucket:
    """Basis generators of one ``(rows, cols)`` shape, in visit order.

    ``keys`` are node ids; ``offsets[b]`` is the flat-buffer offset of
    ``keys[b]``. The gather indices are derived, not stored: member ``b``
    occupies ``buf[offsets[b] : offsets[b] + rows*cols]``. ``kind``
    distinguishes leaf from interior buckets (their batched ops differ).
    """

    shape: tuple[int, int]
    keys: list
    offsets: np.ndarray
    kind: str = ""

    @property
    def batch(self) -> int:
        return len(self.keys)

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """Stack the bucket's generators as one ``(batch, rows, cols)`` array."""
        rows, cols = self.shape
        idx = self.offsets[:, None] + np.arange(rows * cols)
        return buf[idx].reshape(self.batch, rows, cols)


@dataclass
class CDSMatrix:
    """The HMatrix in CDS layout, ready for the generated executor."""

    factors: Factors
    coarsenset: CoarsenSet
    near_blockset: BlockSet
    far_blockset: BlockSet

    basis_buf: np.ndarray = field(default_factory=lambda: np.empty(0))
    near_buf: np.ndarray = field(default_factory=lambda: np.empty(0))
    far_buf: np.ndarray = field(default_factory=lambda: np.empty(0))

    basis_offset: dict[int, int] = field(default_factory=dict)
    basis_shape: dict[int, tuple[int, int]] = field(default_factory=dict)
    near_offset: dict[tuple[int, int], int] = field(default_factory=dict)
    far_offset: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def tree(self):
        return self.factors.tree

    @property
    def dim(self) -> int:
        return self.factors.tree.num_points

    # -------------------------------------------------------------- accessors
    def basis(self, v: int) -> np.ndarray:
        """View of node v's V (leaf) or E (interior) generator."""
        rows, cols = self.basis_shape[v]
        off = self.basis_offset[v]
        return self.basis_buf[off : off + rows * cols].reshape(rows, cols)

    def near(self, i: int, j: int) -> np.ndarray:
        """View of the D block for near pair (i, j)."""
        t = self.tree
        rows, cols = t.node_size(i), t.node_size(j)
        off = self.near_offset[(i, j)]
        return self.near_buf[off : off + rows * cols].reshape(rows, cols)

    def far(self, i: int, j: int) -> np.ndarray:
        """View of the B block for far pair (i, j)."""
        rows = self.factors.srank(i)
        cols = self.factors.srank(j)
        off = self.far_offset[(i, j)]
        return self.far_buf[off : off + rows * cols].reshape(rows, cols)

    def total_bytes(self) -> int:
        return self.basis_buf.nbytes + self.near_buf.nbytes + self.far_buf.nbytes

    # ---------------------------------------------------------- shape buckets
    def basis_nodes(self) -> list[int]:
        """All non-root nodes carrying a basis generator, post-ordered."""
        return [
            v for v in self.tree.postorder()
            if v != 0 and self.factors.srank(v) > 0
        ]

    def basis_level_buckets(self) -> list[list[ShapeBucket]]:
        """Basis (V/E) buckets per tree level, deepest level first.

        Within a level, leaf and interior generators land in separate
        buckets (``kind`` is ``"leaf"`` or ``"interior"``): a leaf op reads
        point rows of W/Y while an interior op reads the children's
        skeleton rows, so they cannot share a stacked GEMM. Level grouping
        preserves the only real dependency (parent after children), letting
        the batched sweep replace the coarsen-set schedule wholesale.
        """
        t = self.tree
        by_level: dict[int, list[int]] = {}
        for v in self.basis_nodes():
            by_level.setdefault(int(t.level[v]), []).append(v)
        out: list[list[ShapeBucket]] = []
        for lvl in sorted(by_level, reverse=True):
            nodes = by_level[lvl]
            leaves = [v for v in nodes if t.is_leaf(v)]
            interior = [v for v in nodes if not t.is_leaf(v)]
            buckets = _bucketize(leaves, self.basis_shape.__getitem__,
                                 self.basis_offset, kind="leaf")
            buckets += _bucketize(interior, self.basis_shape.__getitem__,
                                  self.basis_offset, kind="interior")
            out.append(buckets)
        return out

    # ------------------------------------------------------------ trace hooks
    def basis_visit_order(self) -> list[int]:
        """Node ids in upward-pass (coarsenset) visit order."""
        return self.coarsenset.all_nodes()

    def near_visit_order(self) -> list[tuple[int, int]]:
        return self.near_blockset.all_interactions()

    def far_visit_order(self) -> list[tuple[int, int]]:
        return self.far_blockset.all_interactions()


def _bucketize(keys, shape_of, offsets, kind: str = "") -> list[ShapeBucket]:
    """Group ``keys`` by shape, preserving visit order inside each bucket."""
    grouped: dict[tuple[int, int], list] = {}
    for k in keys:
        grouped.setdefault(tuple(shape_of(k)), []).append(k)
    return [
        ShapeBucket(
            shape=shape,
            keys=members,
            offsets=np.asarray([offsets[k] for k in members], dtype=np.intp),
            kind=kind,
        )
        for shape, members in grouped.items()
    ]


def build_cds(
    factors: Factors,
    coarsenset: CoarsenSet,
    near_blockset: BlockSet,
    far_blockset: BlockSet,
    stored: dict[str, tuple[np.ndarray, dict]] | None = None,
) -> CDSMatrix:
    """Pack the generators into CDS buffers following the structure sets.

    Packing is linear in the number of generators. Afterwards the buffers
    own every generator: each entry of ``factors.leaf_basis``,
    ``factors.transfer``, ``factors.near_blocks`` and ``factors.coupling``
    is replaced by its view into the CDS buffer (bit-identical values), so
    the arrays those dicts held before, and the row blocks the near and
    coupling blocks were sliced from, are freed instead of living beside a
    second copy.

    ``stored`` maps ``"basis"``, ``"near"`` and ``"far"`` to the
    ``(buf, offsets)`` a loaded plan's generators are already views of
    (``buf[offsets[key]:]``). A buffer whose offsets are the pack order's
    becomes the CDS buffer as it is, with no copy: the generators already
    tile it in visit order. Any other is packed as above.
    """
    cds = CDSMatrix(
        factors=factors,
        coarsenset=coarsenset,
        near_blockset=near_blockset,
        far_blockset=far_blockset,
    )
    tree = factors.tree

    # --- basis buffer in coarsenset (upward visit) order -------------------
    order = coarsenset.all_nodes()
    # Nodes carrying a basis but not reached by the coarsenset (possible when
    # srank>0 nodes sit above the last coarsen level) are appended at the end.
    covered = set(order)
    extras = [
        v
        for v in range(tree.num_nodes)
        if factors.srank(v) > 0 and v not in covered
    ]
    basis = [
        (factors.leaf_basis if tree.is_leaf(v) else factors.transfer, v)
        for v in order + extras
    ]
    stored = stored or {}
    cds.basis_buf, cds.basis_offset = _pack(basis, stored.get("basis"))
    cds.basis_shape = {v: gens[v].shape for gens, v in basis}

    # --- near buffer in near-blockset order ---------------------------------
    near = factors.near_blocks
    cds.near_buf, cds.near_offset = _pack(
        [(near, p) for p in _pair_order(near_blockset, near, "near")],
        stored.get("near"))

    # --- far buffer in far-blockset order ------------------------------------
    far = factors.coupling
    cds.far_buf, cds.far_offset = _pack(
        [(far, p) for p in _pair_order(far_blockset, far, "far")],
        stored.get("far"))
    return cds


def _pair_order(blockset: BlockSet, blocks: dict, which: str) -> list:
    """The blockset's pairs in visit order, then the pairs it does not
    reach, sorted."""
    order = blockset.all_interactions()
    missing = [p for p in order if p not in blocks]
    if missing:
        raise ValueError(f"{which} blockset references missing blocks: {missing[:5]}")
    visited = set(order)
    return order + sorted(p for p in blocks if p not in visited)


def _pack(slots: list[tuple[dict, object]],
          stored: tuple[np.ndarray, dict] | None = None,
          ) -> tuple[np.ndarray, dict]:
    """Copy each generator ``gens[key]`` of ``slots``, in order, into one
    flat float64 buffer and re-point ``gens[key]`` at its view there.
    Returns the buffer and the offset of each key.

    ``stored`` is a ``(buf, offsets)`` whose views the generators already
    are. When those offsets are the pack order's, as plain integers, and
    ``buf`` is a flat float64 buffer of exactly their extent, it is
    returned as it is and nothing is copied."""
    offsets = {}
    off = 0
    for gens, key in slots:
        offsets[key] = off
        off += gens[key].size
    if stored is not None:
        buf, stored_offsets = stored
        if (buf.dtype == np.float64 and buf.shape == (off,)
                and stored_offsets == offsets):
            return buf, offsets
    buf = np.empty(off)
    for gens, key in slots:
        gen = gens[key]
        o = offsets[key]
        view = buf[o : o + gen.size].reshape(gen.shape)
        view[...] = gen
        gens[key] = view
    return buf, offsets
