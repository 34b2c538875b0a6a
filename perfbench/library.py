"""highdim: the library used in-process through a Session.

A run is three rounds spread evenly over the measured seconds. Each round
takes one sample of every set-up metric and then interleaves wide and
narrow products until the round's share of the time is used, so host speed
episodes (about a second long) fall on every metric alike:

1. set-up: a fresh Session inspects the points and runs its first narrow
   and wide products;
2. the first round writes its artifacts to a disk PlanStore (not timed);
3. products: a warm start (a fresh Session over that store serves its
   first narrow product: store read, SHA-256 check, decode, CDS rebuild,
   codegen), one wide product, then narrow products for as long as the
   wide one took, repeated; warm starts stop once they took
   ``WARM_BUDGET_S`` in the round.
"""

from __future__ import annotations

import gc
import time

from common import (
    BANDWIDTH,
    N,
    NARROW_Q,
    REL_ERR_LIMIT,
    TAIL_PERCENTILE,
    WIDE_Q,
    Tally,
    exact_product,
    median,
    peak_rss_mb,
    percentile,
    rate,
    rel_diff,
    workload_plan,
    workload_points,
)

ROUNDS = 3
#: Warm starts continue within a round, one per wide product, until they
#: took this long (about seven of 0.14 s on highdim).
WARM_BUDGET_S = 1.0

def run(workload: str, seed: int, seconds: float, workdir, rec=None) -> dict:
    import numpy as np

    from repro import PlanConfig, Session
    from repro.kernels.base import get_kernel

    points = workload_points(workload, seed)
    plan = PlanConfig(**workload_plan(workload))
    kernel = get_kernel("gaussian", bandwidth=BANDWIDTH)
    rng = np.random.default_rng([seed, 1])
    W1 = rng.random((N, NARROW_Q[workload]))
    Wwide = rng.random((N, WIDE_Q))
    exact1 = exact_product(points, W1)
    exact_wide = exact_product(points, Wwide)
    limit = REL_ERR_LIMIT[workload]

    tally = Tally()
    times = {"setup": [], "warm_start": [], "request": [], "wide": []}
    intervals = {k: [] for k in times}
    counts = {"p1_builds": 0, "p2_builds": 0, "hmatrix_hits": 0,
              "disk_hits": 0, "coverage": {k: [] for k in times}}
    ref1 = ref_wide = None
    store_dir = workdir / "store"

    def timed(kind, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        times[kind].append(t1 - t0)
        intervals[kind].append((t0, t1))
        return result

    def tally_session(session):
        for key in ("p1_builds", "p2_builds", "hmatrix_hits"):
            counts[key] += getattr(session.stats, key)
        counts["disk_hits"] += session.store.stats.disk_hits

    def cold_setup():
        session = Session(plan=plan)
        H = session.inspect(points, kernel)
        return session, H, session.matmul(H, W1), session.matmul(H, Wwide)

    def warm_start():
        with Session(plan=plan, store=store_dir) as warm:
            y = warm.matmul(warm.inspect(points, kernel), W1)
            tally_session(warm)
            return y

    def checked(kind, what, ref, fn, *args):
        """Time ``fn(*args)`` and check its result against ``ref``."""
        try:
            tally.check_same(what, timed(kind, fn, *args), ref)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            tally.fail(f"{what}: {type(exc).__name__}: {exc}")

    start = time.perf_counter()
    for r in range(ROUNDS):
        round_end = start + seconds * (r + 1) / ROUNDS
        try:
            session, H, y1, y_wide = timed("setup", cold_setup)
        except Exception as exc:  # noqa: BLE001
            tally.fail(f"set-up: {type(exc).__name__}: {exc}")
            continue
        if ref1 is None:
            # The first set-up's products are checked against K @ W; every
            # later product of the same operator must reproduce them, and
            # its artifacts serve every warm start.
            ref1, ref_wide = y1, y_wide
            counts["rel_err"] = rel_diff(y_wide, exact_wide)
            for what, Y, exact in (("narrow product", y1, exact1),
                                   ("wide product", y_wide, exact_wide)):
                err = rel_diff(Y, exact)
                if err <= limit:
                    tally.ok()
                else:
                    tally.fail(f"{what}: rel_err {err:.3e} above "
                               f"{limit:.0e}")
            session.save(store_dir)
        else:
            tally.check_same("set-up narrow product", y1, ref1)
            tally.check_same("set-up wide product", y_wide, ref_wide)

        warm_spent = 0.0
        while True:
            if warm_spent < WARM_BUDGET_S:
                t0 = time.perf_counter()
                checked("warm_start", "warm-start product", ref1, warm_start)
                warm_spent += time.perf_counter() - t0
            t0 = time.perf_counter()
            checked("wide", "wide product", ref_wide, session.matmul, H,
                    Wwide)
            burst_end = 2 * time.perf_counter() - t0
            while time.perf_counter() < burst_end:
                checked("request", "narrow product", ref1, session.matmul,
                        H, W1)
            if time.perf_counter() >= round_end:
                break
        tally_session(session)
        session.close()
        del session, H
        # Drop the round's operator now, not whenever the cycle collector
        # next runs, so peak RSS is one round's working set in every run.
        gc.collect()

    narrow = times["request"]
    metrics = {
        "setup_s": median(times["setup"]),
        "warm_start_s": median(times["warm_start"]),
        "request_p95_ms": 1e3 * percentile(narrow, TAIL_PERCENTILE),
        "requests_per_s": rate(len(narrow), sum(narrow)),
        "eval_q512_per_s": rate(1, median(times["wide"])),
        "peak_rss_mb": peak_rss_mb(),
    }
    if rec is not None:
        from layers import Timeline, union_share
        from tracing import PARENT, T0, T1

        # Layer spans called directly by this loop cover its intervals.
        top = Timeline(s for s in rec.spans if s[PARENT] == 0)
        for kind, spans_of in intervals.items():
            counts["coverage"][kind] = [
                union_share(a, b, [(s[T0], s[T1]) for s in top.inside(a, b)])
                for a, b in spans_of]
    return {"metrics": metrics, "tally": tally, "intervals": intervals,
            "counts": counts, "narrow": narrow,
            "samples": {k: len(v) for k, v in times.items()}}
