"""Exact k-NN (small N) and per-node neighbour-list merging."""

from __future__ import annotations

import numpy as np

from repro.tree.cluster_tree import ClusterTree
from repro.utils.validation import check_points, require


def exact_knn(points, k: int) -> np.ndarray:
    """Exact k-nearest-neighbour indices (excluding self), shape (N, k).

    Each row lists the k nearest *other* points, nearest first; among
    points tied in distance the tree picks which to return. Answered by a
    k-d tree query rather than from the N x N distance matrix; used
    directly for small N and as ground truth for the rp-tree tests.
    """
    # Imported here: scipy.spatial costs about 0.15 s to import, and only
    # set-up needs it.
    from scipy.spatial import cKDTree

    pts = check_points(points)
    n = len(pts)
    require(1 <= k < n, f"k must be in [1, N-1], got k={k}, N={n}")
    _, idx = cKDTree(pts).query(pts, k=k + 1)
    # Drop self by index, not by position: among coincident points self
    # need not come first, or be returned at all (then the farthest goes).
    drop = idx == np.arange(n)[:, None]
    drop[~drop.any(axis=1), -1] = True
    return idx[~drop].reshape(n, k).astype(np.intp, copy=False)


def node_neighbor_lists(tree: ClusterTree, knn: np.ndarray) -> dict[int, np.ndarray]:
    """Per-node candidate sample lists from the point-level k-NN table.

    For node ``v``, the candidates are the union of its member points'
    neighbours minus the node's own points — i.e. the *near field just
    outside the node*, which importance sampling then thins. Indices are in
    original (input) point order, matching ``knn``.
    """
    lists: dict[int, np.ndarray] = {}
    n = tree.num_points
    member = np.zeros(n, dtype=bool)
    for v in range(tree.num_nodes):
        own = tree.node_point_indices(v)
        member[own] = True
        cand = np.unique(knn[own].ravel())
        cand = cand[~member[cand]]
        lists[v] = cand
        member[own] = False
    return lists
