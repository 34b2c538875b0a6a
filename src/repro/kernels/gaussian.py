"""Gaussian (RBF) kernel — the paper's kernel for GOFMM/STRUMPACK comparisons."""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, register_kernel
from repro.kernels.distance import pairwise_sq_distances
from repro.utils.validation import check_positive


@register_kernel("gaussian")
class GaussianKernel(Kernel):
    """``K(x, y) = exp(-||x - y||^2 / (2 h^2)) + reg * [x == y]``.

    ``h`` is the bandwidth (the paper uses ``h = 5``). A small diagonal
    regulariser keeps the implicit matrix SPD on datasets with duplicate
    points, matching how GOFMM stabilises its test matrices.
    """

    def __init__(self, bandwidth: float = 5.0, regularization: float = 0.0):
        check_positive(bandwidth, name="bandwidth")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.bandwidth = float(bandwidth)
        self.regularization = float(regularization)

    @property
    def diagonal_shift(self) -> float:
        return self.regularization

    def block(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        d2 = pairwise_sq_distances(X, Y)
        out = np.exp(d2 * (-0.5 / self.bandwidth**2))
        if self.regularization and X is Y:
            out[np.diag_indices(min(out.shape))] += self.regularization
        return out

    def params(self) -> dict:
        return {"bandwidth": self.bandwidth, "regularization": self.regularization}
