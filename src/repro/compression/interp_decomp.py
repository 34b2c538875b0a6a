"""Interpolative decomposition (ID) with adaptive rank selection.

Given a matrix G (samples x candidate columns), a column ID selects r
*skeleton* columns J and an interpolation matrix P (r x m) with
``G ~= G[:, J] @ P`` and ``P[:, J] = I``. It is computed from a pivoted QR:
``G Pi = Q [R11 R12]`` gives ``P = [I | R11^{-1} R12] Pi^T`` and the rank r
is the smallest prefix of the R diagonal meeting the requested *block
accuracy* — the adaptive srank tuning of the paper's low-rank module.

The pivoted QR and triangular solve run in the LAPACK that ``scipy.linalg``
links against. :func:`single_threaded_lapack` runs them on one thread (see
its docstring); this is the only module that imports ``scipy.linalg``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt
import scipy
import scipy.linalg

from repro.utils.validation import require


@dataclass(frozen=True)
class InterpolativeDecomposition:
    """Result of a column ID.

    Attributes
    ----------
    skeleton:
        Column indices J (into the input matrix) of the r skeleton columns.
    interp:
        Interpolation matrix P of shape (r, m) with ``G ~= G[:, J] @ P``.
    rank:
        r = len(skeleton) — the block's srank.
    achieved_error:
        The pivot-decay estimate actually achieved (|R[r,r]| / |R[0,0]|,
        0.0 when the factorisation is exact).
    """

    skeleton: npt.NDArray[Any]
    interp: npt.NDArray[Any]
    rank: int
    achieved_error: float

    def reconstruct(self, G: npt.NDArray[Any]) -> npt.NDArray[Any]:
        """``G[:, J] @ P`` — the rank-r approximation of G."""
        approx: npt.NDArray[Any] = G[:, self.skeleton] @ self.interp
        return approx


class OpenBLASThreads:
    """Thread-count control of one OpenBLAS shared library.

    The count is process-global in OpenBLAS's pthreads build (even
    ``openblas_set_num_threads_local`` changes what other threads read),
    so overlapping :meth:`pinned` scopes from several threads share one
    lock and a depth counter: the first to enter saves the count and pins
    it to one, the last to leave restores it.
    """

    def __init__(self, path: str, get_num_threads: Callable[[], int],
                 set_num_threads: Callable[[int], None]) -> None:
        self.path = path
        self.get_num_threads = get_num_threads
        self.set_num_threads = set_num_threads
        self._lock = threading.Lock()
        self._depth = 0  # guarded-by: self._lock
        self._saved = 1  # guarded-by: self._lock

    @contextmanager
    def pinned(self) -> Iterator[None]:
        """Run the body with this library on one thread."""
        with self._lock:
            if self._depth == 0:
                self._saved = self.get_num_threads()
                self.set_num_threads(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self.set_num_threads(self._saved)


def _thread_controls(path: str, lib: ctypes.CDLL,
                     prefix: str) -> OpenBLASThreads:
    """Bind ``<prefix>{get,set}_num_threads``; AttributeError if absent."""
    get = lib[prefix + "get_num_threads"]
    get.restype = ctypes.c_int
    get.argtypes = []
    set_ = lib[prefix + "set_num_threads"]
    set_.restype = None
    set_.argtypes = [ctypes.c_int]
    return OpenBLASThreads(path, lambda: int(get()), set_)


#: Symbol prefixes of the thread-count functions: scipy's wheels build
#: OpenBLAS with ``scipy_openblas_``; older ones export the plain names.
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")


@functools.cache
def scipy_openblas() -> OpenBLASThreads | None:
    """The OpenBLAS bundled in scipy's wheel (``scipy.libs/``), or None.

    numpy's wheel bundles a separate OpenBLAS, which this never returns.
    The library is opened with ``RTLD_NOLOAD``, so only the copy that
    ``scipy.linalg`` has already mapped into the process is found. Other
    layouts (MKL, Accelerate, a system OpenBLAS) give None. Cached: every
    caller shares one object, and so one lock and depth counter.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                        "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            try:
                return _thread_controls(path, lib, prefix)
            except AttributeError:  # symbols not exported under prefix
                continue
    return None


@contextmanager
def single_threaded_lapack() -> Iterator[None]:
    """Run the body with scipy's OpenBLAS on one thread; numpy's is untouched.

    scipy and numpy wheels each bundle their own OpenBLAS with its own
    thread pool. Small ``geqp3``/``trsm`` calls gain nothing from a second
    thread, and a pool left spinning after one call takes the CPUs from
    the other library's next call, so an inspector interleaving IDs with
    numpy kernel blocks runs several times slower with both pools at the
    machine's core count. numpy's pool keeps its threads for the wide
    products. Does nothing where :func:`scipy_openblas` finds no library.
    """
    blas = scipy_openblas()
    if blas is None:
        yield
        return
    with blas.pinned():
        yield


def _choose_rank(rdiag: npt.NDArray[Any], bacc: float, max_rank: int) -> int:
    """Smallest r with |R[r,r]| <= bacc * |R[0,0]|, clamped to [1, max_rank]."""
    scale = rdiag[0]
    if scale == 0.0:
        return 1  # zero matrix: keep a single (zero) skeleton column
    below = np.flatnonzero(rdiag <= bacc * scale)
    r = int(below[0]) if len(below) else len(rdiag)
    return int(np.clip(r, 1, max_rank))


def interpolative_decomposition(
    G: npt.NDArray[Any],
    bacc: float = 1e-5,
    max_rank: int = 256,
    rank: int | None = None,
) -> InterpolativeDecomposition:
    """Column ID of ``G`` with rank adapted to the block accuracy ``bacc``.

    Parameters
    ----------
    G:
        (s, m) sample block; rows are far-field samples, columns are the
        candidate points being skeletonized.
    bacc:
        Block approximation accuracy; the rank is grown until the pivoted-QR
        diagonal decays below ``bacc`` relative to the first pivot.
    max_rank:
        Hard rank cap (the paper's maximum rank, default 256).
    rank:
        Fixed rank override (used by tests and ablations); bypasses bacc.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    require(G.ndim == 2, "G must be 2-D")
    s, m = G.shape
    require(m >= 1, "G must have at least one column")

    if s == 0:
        # No far-field constraints: any single column is a valid skeleton.
        interp = np.zeros((1, m))
        interp[0, 0] = 1.0
        return InterpolativeDecomposition(
            skeleton=np.array([0], dtype=np.intp), interp=interp,
            rank=1, achieved_error=0.0,
        )

    # Pivoted QR: G[:, piv] = Q @ R with |diag(R)| non-increasing. Only R
    # and the pivots are used: mode="r" runs the same geqp3 as "economic"
    # but skips forming Q (orgqr).
    R, piv = scipy.linalg.qr(G, mode="r", pivoting=True)
    rdiag = np.abs(np.diag(R))
    kmax = min(s, m)

    if rank is not None:
        require(rank >= 1, "rank must be >= 1")
        r = min(rank, kmax, max_rank)
    else:
        r = _choose_rank(rdiag[:kmax], bacc, min(max_rank, kmax))

    achieved = float(rdiag[r] / rdiag[0]) if (r < kmax and rdiag[0] > 0) else 0.0

    # P = [I | T] Pi^T with T = R11^{-1} R12 (triangular solve, not inverse).
    R11 = R[:r, :r]
    R12 = R[:r, r:m]
    if R12.size:
        # Guard against exactly-singular R11 (duplicate columns at the rank
        # boundary): fall back to least-squares.
        try:
            T = scipy.linalg.solve_triangular(R11, R12, lower=False)
        except scipy.linalg.LinAlgError:
            T = np.linalg.lstsq(R11, R12, rcond=None)[0]
        if not np.isfinite(T).all():
            T = np.linalg.lstsq(R11, R12, rcond=None)[0]
    else:
        T = np.zeros((r, 0))

    interp = np.empty((r, m))
    interp[:, piv[:r]] = np.eye(r)
    interp[:, piv[r:m]] = T
    skeleton = np.asarray(piv[:r], dtype=np.intp)
    return InterpolativeDecomposition(
        skeleton=skeleton, interp=interp, rank=r, achieved_error=achieved
    )
