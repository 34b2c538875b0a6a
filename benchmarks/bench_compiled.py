"""Compiled executor benchmark: fused native driver vs batched engine.

Two claims from the ``repro.codegen.compiled`` tentpole (ISSUE 8):

1. **The fused driver wins where Python overhead dominates.** At Q=1
   the batched engine spends most of its wall-clock in per-phase Python
   dispatch, gather/scatter temporaries, and workspace allocation; the
   compiled driver precomputes every index table and preallocates every
   buffer, so a single call is one straight-line sweep. Gate: >= 2x at
   Q=1 (enforced only on full-scale, non-quick runs — a scaled-down
   bench-smoke problem has too little arithmetic for the ratio to
   stabilise). Results must be *byte-identical* to ``order="batched"``
   at every swept width, quick mode or not.
2. **Artifacts persist.** A fresh :class:`CompiledCache` over the same
   PlanStore serves the evaluator with zero recompiles
   (``warm_recompiles == 0``), asserted unconditionally.

The widest swept row (Q=512 by default) also records a dense reference:
``dense_s`` times ``K @ W`` with the assembled kernel matrix (same N, Q
and host), and ``gflops_share`` is the batched product's flop rate
(:meth:`HMatrix.evaluation_flops` over ``batched_s``) as a share of the
dense product's.

Results land in ``benchmarks/results/compiled.json`` for
``validate_results.py`` (bit-identity and warm_recompiles gates are
unconditional there too; the speedup gate keys off the recorded
``gate_eligible`` flag, mirroring fig7's cpu_count exemption).
"""

import os
from dataclasses import replace

import numpy as np

from repro.api.policy import effective_cpu_count
from repro.api.store import PlanStore
from repro.codegen.compiled import (
    NARROW_Q_MAX,
    CompiledCache,
    available_backends,
)
from repro.core.inspector import Inspector
from repro.datasets import load_dataset
from repro.kernels import get_kernel

from conftest import (
    BENCH_QUICK,
    PAPER_BACC,
    bench_n,
    best_seconds,
    fmt,
    print_table,
    save_results,
)

DATASET = "grid"
LEAF = 32
#: RHS widths swept: the fused-driver regime (Q=1), a mid panel past the
#: narrow-Q threshold (delegates to batched — ratio ~1.0 by design), and
#: a wide panel.
SWEEP_Q = tuple(
    int(q) for q in os.environ.get("MATROX_COMPILED_Q", "1 32 512").split()
)
#: Extra reps for narrow widths — a single fused call is sub-millisecond,
#: so min-of-reps needs a deeper pool for the >= 2x gate to be stable.
NARROW_REPS = int(os.environ.get("MATROX_COMPILED_REPS", "30"))


def _bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_compiled_vs_batched(tmp_path_factory):
    n = bench_n(DATASET)
    points = load_dataset(DATASET, n=n, seed=0)
    insp = Inspector(structure="h2-geometric", tau=0.65, bacc=PAPER_BACC,
                     leaf_size=LEAF, p=4, seed=0)
    H = insp.run(points, get_kernel("gaussian", bandwidth=5.0))

    store_dir = tmp_path_factory.mktemp("compiled-store")
    cold = CompiledCache(store=PlanStore(store_dir))
    ev = cold.evaluator_for(H)
    assert ev is not None, (
        f"compiled build degraded: {cold.stats_dict()['fallbacks']}")

    rng = np.random.default_rng(0)
    shapes, rows, bit_identical = {}, [], True
    for q in SWEEP_Q:
        W = rng.random((n, q))
        Yb = H.matmul(W, order="batched")
        Yc = H.matmul(W, order="compiled")
        same = _bytes(Yb) == _bytes(Yc)
        bit_identical = bit_identical and same

        reps = NARROW_REPS if q <= NARROW_Q_MAX else None
        batched_s = best_seconds(
            lambda: H.matmul(W, order="batched"), reps=reps)
        compiled_s = best_seconds(
            lambda: H.matmul(W, order="compiled"), reps=reps)
        fused = q <= NARROW_Q_MAX
        shapes[str(q)] = {
            "batched_s": batched_s,
            "compiled_s": compiled_s,
            "speedup": batched_s / compiled_s,
            "bit_identical": same,
            "fused": fused,
        }
        rows.append([q, "fused" if fused else "delegate",
                     fmt(batched_s * 1e3), fmt(compiled_s * 1e3),
                     fmt(batched_s / compiled_s),
                     "yes" if same else "NO"])

    # Warm restart: a fresh cache over the same store, with a rebuilt-
    # from-scratch HMatrix view (no attached evaluators), must serve the
    # artifact without deriving a single table.
    warm = CompiledCache(store=PlanStore(store_dir))
    H2 = replace(H, _batched=None, _batched_built=False,
                 _compiled=None, _compiled_built=False)
    assert warm.evaluator_for(H2) is not None
    warm_recompiles = warm.stats.builds

    # Dense reference at the widest width: the host's GEMM rate on the
    # same N and Q, against which the batched product's rate is read.
    q_wide = max(SWEEP_Q)
    K = get_kernel("gaussian", bandwidth=5.0).block(points, points)
    W = rng.random((n, q_wide))
    dense_s = best_seconds(lambda: K @ W)
    wide = shapes[str(q_wide)]
    wide["dense_s"] = dense_s
    batched_gflops = H.evaluation_flops(q_wide) / wide["batched_s"] / 1e9
    dense_gflops = 2.0 * n * n * q_wide / dense_s / 1e9
    wide["gflops_share"] = batched_gflops / dense_gflops
    del K

    print_table(
        f"Compiled vs batched ({DATASET}, N={n}, backend={ev.backend}, "
        f"{effective_cpu_count()} effective cpus)",
        ["q", "path", "batched (ms)", "compiled (ms)", "speedup",
         "bitwise"],
        rows,
    )
    print(f"dense K @ W at Q={q_wide}: {fmt(dense_s * 1e3)} ms, "
          f"{fmt(dense_gflops)} GFLOP/s; batched runs at "
          f"{fmt(batched_gflops)} GFLOP/s ({wide['gflops_share']:.0%})")

    speedup_q1 = shapes.get("1", {}).get("speedup")
    gate_eligible = not BENCH_QUICK and "1" in shapes
    save_results("compiled", {
        "dataset": DATASET, "n": n, "sweep_q": list(SWEEP_Q),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "backend": ev.backend,
        "backends_available": list(available_backends()),
        "narrow_q_max": NARROW_Q_MAX,
        "shapes": shapes,
        "speedup_q1": speedup_q1,
        "bit_identical": bit_identical,
        "cold_builds": cold.stats.builds,
        "warm_recompiles": warm_recompiles,
        "warm_store_hits": warm.stats.store_hits,
        "gate_eligible": gate_eligible,
    })

    assert bit_identical, "compiled output diverged from order='batched'"
    assert warm_recompiles == 0, (
        "PlanStore-persisted compiled artifacts must warm-start")
    assert warm.stats.store_hits == 1
    if gate_eligible and speedup_q1 is not None:
        assert speedup_q1 >= 2.0, (
            f"compiled is only {speedup_q1:.2f}x batched at Q=1 "
            f"(gate: >= 2x on full-scale runs)")
