"""Shared pieces of the benchmark: inputs, statistics, host record, checks."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from pathlib import Path

#: Matrix size of every workload.
N = 3000
#: Block accuracy of every set-up.
BACC = 1e-5
#: Gaussian kernel bandwidth (the paper's h = 5).
BANDWIDTH = 5.0
#: Percentile reported as ``request_p95_ms``: the highest of p90, p95 and
#: p99 with at least ten samples beyond it in every run, and as repeatable
#: across runs as p90 (see README.md).
TAIL_PERCENTILE = 95
#: Columns of the narrow products: a solver's matvec in-process, and the
#: panel a solver or batch caller sends over the wire.
NARROW_Q = {"highdim": 1, "netserve": 4}
#: Columns of the wide multi-RHS product (the paper's Q = 512 case).
WIDE_Q = 512
#: Relative error of H @ W against K @ W above which a product counts as
#: wrong: about twenty times the largest value seen over seeds 0-7.
REL_ERR_LIMIT = {"highdim": 1e-3, "netserve": 1e-5}
#: A product or response that should equal a reference product of the same
#: operator may differ from it by this much (relative, in norm).
SAME_PRODUCT = 1e-12

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False when the
    working directory holds no copy of the program."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def workload_points(workload: str, seed: int):
    """The point set of a workload; the program receives only the array."""
    from repro.datasets import load_dataset

    # netserve serves 2-d `random` points (Table 1 ID 10); `grid` would
    # ignore the seed.
    dataset = "covtype" if workload == "highdim" else "random"
    return load_dataset(dataset, n=N, seed=seed)


def workload_plan(workload: str) -> dict:
    """Inspector knobs of a workload (PlanConfig fields / wire plan doc)."""
    if workload == "highdim":
        return {"structure": "h2-b", "budget": 0.03, "leaf_size": 64,
                "bacc": BACC}
    return {"structure": "h2-geometric", "leaf_size": 32, "bacc": BACC}


def exact_product(points, W):
    """K @ W for the workload kernel, in row blocks so the dense kernel
    matrix never exists at once."""
    import numpy as np

    from repro.kernels.base import get_kernel

    kernel = get_kernel("gaussian", bandwidth=BANDWIDTH)
    out = np.empty((len(points), W.shape[1]))
    step = 250
    for i in range(0, len(points), step):
        out[i:i + step] = kernel.block(points[i:i + step], points) @ W
    return out


def rel_diff(Y, ref) -> float:
    import numpy as np

    return float(np.linalg.norm(Y - ref) / np.linalg.norm(ref))


def median(values) -> float:
    """Median; 0 for no samples (the run then reports a failure)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record() -> dict:
    """What a result depends on besides the code: CPUs, BLAS and its
    thread settings, interpreter and library versions. Runs whose records
    differ are not compared."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check_same(self, what: str, Y, ref) -> bool:
        """Count one operation whose result must equal ``ref``."""
        diff = rel_diff(Y, ref)
        if diff <= SAME_PRODUCT:
            self.ok()
            return True
        self.fail(f"{what}: differs from its reference by {diff:.3e}")
        return False
