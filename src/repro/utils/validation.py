"""Input-validation helpers used across the public API surface.

These raise early with actionable messages instead of letting malformed
inputs surface as cryptic NumPy broadcasting errors deep inside compression.
"""

from __future__ import annotations

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_points(points, *, name: str = "points") -> np.ndarray:
    """Validate and canonicalise a point set to a C-contiguous float64 (N, d) array."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    require(arr.ndim == 2, f"{name} must be a 2-D (N, d) array, got ndim={arr.ndim}")
    require(arr.shape[0] > 0, f"{name} must contain at least one point")
    require(arr.shape[1] > 0, f"{name} must have at least one coordinate per point")
    require(np.isfinite(arr).all(), f"{name} must be finite (no NaN/inf)")
    return arr


def check_finite(arr: np.ndarray, *, name: str = "W") -> None:
    """Require every entry of ``arr`` to be finite: one NaN or inf in a
    right-hand side would spread through the product unannounced."""
    require(bool(np.isfinite(arr).all()),
            f"{name} must be finite (no NaN/inf)")


def check_positive(value, *, name: str) -> None:
    """Require a strictly positive scalar."""
    if not np.isscalar(value) or not value > 0:
        raise ValueError(f"{name} must be a positive scalar, got {value!r}")


def check_probability(value, *, name: str) -> None:
    """Require a scalar in the closed interval [0, 1]."""
    if not np.isscalar(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
