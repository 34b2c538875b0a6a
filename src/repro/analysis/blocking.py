"""Blocking algorithm (the paper's Algorithm 1).

Maps each (i, j) interaction to grid cell ``((i-1)//blocksize,
(j-1)//blocksize)`` — clustering interactions that share nodes — then
gathers every cell in grid row ``i`` into the same blockset entry, because
all interactions with the same output node i write to the same rows of Y;
keeping them in one block removes the reduction/atomic the library code of
Fig. 1d needs. The same algorithm serves near (D) and far (B) interactions.
"""

from __future__ import annotations

from repro.analysis.structure_sets import BlockSet
from repro.htree.htree import HTree
from repro.utils.validation import require


def build_blockset(
    htree: HTree,
    blocksize: int,
    kind: str = "near",
    interactions: list[tuple[int, int]] | None = None,
) -> BlockSet:
    """Build the blockset for near or far interactions.

    Parameters
    ----------
    htree:
        Interaction structure (source of the near/far pair lists).
    blocksize:
        Grid granularity; the paper uses 2 for near and 4 for far.
    kind:
        ``"near"`` or ``"far"``.
    interactions:
        Explicit pair list override (used by tests).
    """
    require(blocksize >= 1, f"blocksize must be >= 1, got {blocksize}")
    if interactions is None:
        if kind == "near":
            interactions = htree.near_pairs()
        elif kind == "far":
            interactions = htree.far_pairs()
        else:
            raise ValueError(f"kind must be 'near' or 'far', got {kind!r}")

    num_nodes = htree.num_nodes
    block_dim = (num_nodes - 1 + blocksize) // blocksize  # Alg. 1 line 1

    # Lines 3-9: map interaction (i, j) to grid cell (iid, jid). Node ids
    # are shifted by 1: the root takes part in no interaction, except when
    # it is the only node (N at most the leaf size), and then its self
    # pair lands in cell (0, 0).
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (i, j) in interactions:
        iid = max(i - 1, 0) // blocksize
        jid = max(j - 1, 0) // blocksize
        cells.setdefault((iid, jid), []).append((i, j))

    # Lines 10-16: concatenate row i's non-empty cells into blockset[i],
    # so same-output interactions share a block (no write conflicts).
    blocks: list[list[tuple[int, int]]] = []
    for iid in range(block_dim):
        row: list[tuple[int, int]] = []
        for jid in range(block_dim):
            cell = cells.get((iid, jid))
            if cell:
                row.extend(cell)
        if row:
            blocks.append(row)

    return BlockSet(blocks=blocks, blocksize=blocksize, kind=kind)
