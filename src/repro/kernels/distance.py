"""Vectorised pairwise distance helpers.

The expansion ``||x - y||^2 = ||x||^2 - 2 x.y + ||y||^2`` turns the pairwise
distance computation into one GEMM plus two rank-1 broadcasts, which is the
standard locality-friendly formulation (one pass over each operand, all work
in BLAS3). Negative round-off is clamped so downstream ``sqrt`` stays real.

The expansion cancels catastrophically when the points lie far from the
origin relative to their spread (``||x||^2`` and ``2 x.y`` agree in their
leading digits), so both operands are first shifted by one shared point:
distances are translation-invariant, and the shifted coordinates are of
the order of the spread.
"""

from __future__ import annotations

import numpy as np


def pairwise_sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(len(X), len(Y))``."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"incompatible point arrays: {X.shape} vs {Y.shape} (need matching d)"
        )
    same = Y is X
    shift = X[0] if len(X) else Y[0] if len(Y) else 0.0
    X = X - shift
    Y = X if same else Y - shift
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = x2 if same else np.einsum("ij,ij->i", Y, Y)
    # x2 - 2 X.Y + y2, accumulated in place: one (len(X), len(Y)) buffer.
    d2 = X @ Y.T
    d2 *= -2.0
    d2 += x2[:, None]
    d2 += y2
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distances, shape ``(len(X), len(Y))``."""
    return np.sqrt(pairwise_sq_distances(X, Y))
