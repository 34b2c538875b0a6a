"""Spectral and trace estimators driven by HMatrix products.

Both estimators accept the operator as a bare mat-vec callable (the legacy
contract) or as anything with ``@`` — a composed
:class:`~repro.api.operator.LinearOperator`, an HMatrix, or an ndarray —
and ``n`` may be omitted for operators that carry their ``shape``.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from repro.api.operator import LinearOperator, as_apply
from repro.utils.rng import as_rng
from repro.utils.validation import require


def _operator_dim(A, n: int | None) -> int:
    if n is None:
        shape = getattr(A, "shape", None)
        if shape is None:
            raise ValueError(
                "n is required when the operator does not expose .shape"
            )
        n = int(shape[0])
    return n


def power_iteration(
    apply_A: Callable[[np.ndarray], np.ndarray] | LinearOperator,
    n: int | None = None,
    tol: float = 1e-6,
    max_iter: int = 200,
    seed=0,
) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue (by magnitude) and eigenvector of a symmetric
    operator (mat-vec callable or composed operator).

    Stops once the Rayleigh quotient changes by at most ``tol`` relative to
    its magnitude (or to 1); if ``max_iter`` runs out first, it warns with
    a :class:`RuntimeWarning` and returns the last iterate.
    """
    n = _operator_dim(apply_A, n)
    apply_A = as_apply(apply_A)
    require(n >= 1, "n must be >= 1")
    rng = as_rng(seed)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = apply_A(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, v
        w /= norm
        lam_new = float(w @ apply_A(w))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            return lam_new, w
        lam, v = lam_new, w
    warnings.warn(
        f"power_iteration did not converge to tol={tol:g} in "
        f"max_iter={max_iter} iterations; returning the last iterate",
        RuntimeWarning, stacklevel=2)
    return lam, v


def estimate_trace(
    apply_A: Callable[[np.ndarray], np.ndarray] | LinearOperator,
    n: int | None = None,
    num_probes: int = 32,
    seed=0,
) -> float:
    """Hutchinson trace estimator with Rademacher probes.

    One batched HMatrix-matrix product evaluates all probes at once —
    exactly the "multiply by a large matrix" usage the paper amortises the
    inspector against.
    """
    n = _operator_dim(apply_A, n)
    apply_A = as_apply(apply_A)
    require(num_probes >= 1, "num_probes must be >= 1")
    rng = as_rng(seed)
    Z = rng.choice((-1.0, 1.0), size=(n, num_probes))
    AZ = apply_A(Z)
    return float(np.einsum("ij,ij->", Z, AZ) / num_probes)
