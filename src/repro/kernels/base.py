"""Kernel ABC and registry.

A :class:`Kernel` maps two point sets to the dense block
``K[i, j] = K(x_i, y_j)``. Compression never assembles the full N x N matrix;
it only requests the sub-blocks it needs (leaf diagonal blocks, sampled
far-field panels, skeleton-skeleton coupling blocks), so ``block`` is the one
primitive every kernel must implement efficiently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import check_points

_REGISTRY: dict[str, type["Kernel"]] = {}


def register_kernel(name: str):
    """Class decorator registering a kernel under ``name`` for lookup by string."""

    def deco(cls):
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"kernel {name!r} already registered")
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return deco


def get_kernel(name: str, **params) -> "Kernel":
    """Instantiate a registered kernel by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key](**params)


class Kernel(ABC):
    """A symmetric positive(-semi)definite kernel function.

    Subclasses implement :meth:`block`; everything else (diagonal access,
    full-matrix assembly for small validation problems, identity/parameter
    reporting used by the inspection-reuse machinery) is derived.
    """

    name: str = "abstract"

    @abstractmethod
    def block(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Dense kernel block ``K(X[i], Y[j])`` of shape ``(len(X), len(Y))``."""

    @property
    def diagonal_shift(self) -> float:
        """Regulariser added to every point's self-interaction ``K(x_i, x_i)``.

        ``block(X, X)`` (the same array object twice) includes it; blocks
        cut from one point set with other arrays do not, so code that
        assembles diagonal blocks from views, such as the near blocks
        ``D_ii``, adds it itself. 0 for kernels without a regulariser.
        """
        return 0.0

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Full kernel matrix on one point set (validation / small N only)."""
        pts = check_points(points)
        return self.block(pts, pts)

    def diagonal(self, points: np.ndarray) -> np.ndarray:
        """``K(x_i, x_i)`` for each point — used by regularised variants."""
        pts = check_points(points)
        out = np.empty(len(pts))
        # Chunk so the temporary (chunk, chunk) block stays small.
        step = 1024
        for start in range(0, len(pts), step):
            chunk = pts[start : start + step]
            out[start : start + len(chunk)] = np.diag(self.block(chunk, chunk))
        return out

    def params(self) -> dict:
        """Parameter dict identifying this kernel instance.

        Two kernels with equal ``(name, params())`` produce identical matrices;
        the inspection-reuse logic uses this to decide whether low-rank
        factors may be reused.
        """
        return {}

    def identity(self) -> tuple:
        """Hashable identity for caching decisions."""
        return (self.name, tuple(sorted(self.params().items())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Kernel) and self.identity() == other.identity()

    def __hash__(self) -> int:
        return hash(self.identity())
