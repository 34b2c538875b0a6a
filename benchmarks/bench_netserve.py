"""Network serving benchmark: sustained mixed-tenant load over a socket.

The repro.net tentpole claims the HTTP front-end adds tenancy, auth, and
quotas around KernelService *without* breaking its serving properties.
This bench drives a live :class:`~repro.net.server.KernelServer` on a
loopback socket with several concurrent clients across two tenants and
records:

1. **Sustained throughput + tail latency** — requests/s and client-side
   p50/p99 across all tenants (every request authenticated, audited,
   and quota-charged), with **zero failed requests**;
2. **Wide requests** — a Q=512 panel sent as 256-column chunks (the
   client usage the README shows), each reply checked bit-identical to
   an in-process ``Session.matmul``: the row where the wire codec, not
   the service, sets the latency;
3. **Warm tenant restart** — a fresh server over the same root must
   serve both tenants with **zero inspections** (``p1_builds ==
   p2_builds == 0``) and zero re-tunes: the per-tenant PlanStore roots
   survive the process.

Results, with the host they were measured on, land in
``benchmarks/results/netserve.json`` for ``validate_results.py`` (gates:
zero failures, bounded p99, a positive wide-request latency, zero warm
inspections).
"""

import platform
import threading
import time

import numpy as np

from repro import Session
from repro.datasets import load_dataset
from repro.host import host_signature
from repro.net import KernelClient, KernelServer, ServerError
from repro.net.protocol import kernel_from_doc, plan_from_doc

from conftest import (
    BENCH_QUICK,
    GAUSS_BW,
    PAPER_BACC,
    bench_n,
    fmt,
    print_table,
    save_results,
)

DATASET = "grid"
LEAF = 32
TENANTS = ("alpha", "beta")
TOKENS = {"tok-alpha": "alpha", "tok-beta": "beta"}
#: Concurrent client threads (round-robin over the tenants) and the
#: requests each replays — 6 x 12 = 72 authenticated round trips.
CLIENTS = 6
REQUESTS_PER_CLIENT = 12
REQUEST_Q = 4
#: Wide requests: panel width, chunk width on the wire, repetitions.
WIDE_Q = 512
WIDE_CHUNK_COLS = 256
WIDE_REPS = 2 if BENCH_QUICK else 5

KERNEL_DOC = {"name": "gaussian", "bandwidth": GAUSS_BW}
PLAN_DOC = {"leaf_size": LEAF, "bacc": PAPER_BACC, "p": 4, "seed": 0}


def _client(server, tenant) -> KernelClient:
    return KernelClient(server.url, tenant=tenant,
                        token=f"tok-{tenant}", timeout=120)


def _drive(server, n: int) -> dict:
    """Concurrent mixed-tenant replay; returns latency + failure stats."""
    g = np.random.default_rng(7)
    panels = [g.random((n, REQUEST_Q)) for _ in range(REQUESTS_PER_CLIENT)]
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    failures: list[int] = [0] * CLIENTS

    def worker(idx: int) -> None:
        client = _client(server, TENANTS[idx % len(TENANTS)])
        for panel in panels:
            t0 = time.perf_counter()
            try:
                client.matmul("grid", panel)
            except ServerError:
                failures[idx] += 1
            latencies[idx].append(time.perf_counter() - t0)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    lat = np.asarray([x for per in latencies for x in per]) * 1e3
    return {
        "requests_total": int(lat.size),
        "failed_requests": int(sum(failures)),
        "wall_s": wall,
        "throughput_rps": lat.size / wall,
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
        "mean_ms": float(lat.mean()),
    }


def _wide(server, points) -> dict:
    """Q=512 chunked requests, each checked bit-identical to the
    in-process product of the same plan and kernel."""
    W = np.random.default_rng(11).random((len(points), WIDE_Q))
    with Session(plan=plan_from_doc(PLAN_DOC)) as session:
        H = session.inspect(points, kernel=kernel_from_doc(KERNEL_DOC))
        expected = session.matmul(H, W)
    client = _client(server, TENANTS[0])
    latencies, failures = [], 0
    for _ in range(WIDE_REPS):
        t0 = time.perf_counter()
        try:
            Y = client.matmul("grid", W, chunk_cols=WIDE_CHUNK_COLS)
        except ServerError:
            failures += 1
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        failures += not np.array_equal(Y, expected)
    return {
        "q": WIDE_Q,
        "chunk_cols": WIDE_CHUNK_COLS,
        "requests_total": WIDE_REPS,
        "failed_requests": failures,  # errors + non-identical replies
        "p50_ms": float(np.median(latencies)) if latencies else None,
        "min_ms": min(latencies, default=None),
        "max_ms": max(latencies, default=None),
    }


def test_netserve_sustained_load_and_warm_restart(tmp_path_factory):
    root = tmp_path_factory.mktemp("netserve-root")
    n = bench_n(DATASET)
    points = load_dataset(DATASET, n=n, seed=0)
    results: dict = {"dataset": DATASET, "n": n, "clients": CLIENTS,
                     "request_q": REQUEST_Q, "tenants": list(TENANTS),
                     "host": {**host_signature(),
                              "python": platform.python_version(),
                              "numpy": np.__version__}}

    # --- cold: both tenants compile over the wire, then sustained load
    with KernelServer(root, tokens=TOKENS, max_wait_ms=2.0) as server:
        compile_s = {}
        for tenant in TENANTS:
            info = _client(server, tenant).compile(
                points, kernel=KERNEL_DOC, plan=PLAN_DOC, points_id="grid")
            assert info["compiled"] is True, \
                f"fresh tenant {tenant} must compile, not store-hit"
            compile_s[tenant] = info["compile_seconds"]
        results["compile_seconds"] = compile_s

        load = _drive(server, n)
        wide = _wide(server, points)
        stats = server.stats()
        results["load"] = load
        results["wide"] = wide
        results["server_responses"] = stats["server"]["responses"]
        results["audit_lines"] = stats["server"].get("audit_lines", 0)
        per_tenant = {
            name: {"served": t["service"]["served"],
                   "mean_batch": t["service"]["mean_batch"],
                   "window_requests": t["quota"]["window_requests"]}
            for name, t in stats["tenants"].items()
        }
        results["per_tenant"] = per_tenant

    # --- warm: a fresh server over the same root must skip inspection
    warm_inspections = 0
    warm_retunes = 0
    with KernelServer(root, tokens=TOKENS, max_wait_ms=2.0) as server:
        warm_compile_s = {}
        for tenant in TENANTS:
            client = _client(server, tenant)
            info = client.compile(points, kernel=KERNEL_DOC,
                                  plan=PLAN_DOC, points_id="grid")
            assert info["compiled"] is False, \
                f"warm tenant {tenant} re-inspected instead of store-hit"
            warm_compile_s[tenant] = info["compile_seconds"]
            client.matmul("grid",
                          np.random.default_rng(1).random((n, REQUEST_Q)))
            session = client.stats()["session"]
            warm_inspections += (session["p1_builds"]
                                 + session["p2_builds"])
            warm_retunes += client.stats()["autotune"].get("tunes", 0)
        results["warm_compile_seconds"] = warm_compile_s
    results["warm_inspections"] = warm_inspections
    results["warm_retunes"] = warm_retunes
    save_results("netserve", results)

    print_table(
        f"repro.net sustained load ({DATASET}, N={n}, {CLIENTS} clients "
        f"x {REQUESTS_PER_CLIENT} req, q={REQUEST_Q})",
        ["metric", "value"],
        [["throughput (req/s)", fmt(load["throughput_rps"], 1)],
         ["p50 (ms)", fmt(load["p50_ms"], 2)],
         ["p99 (ms)", fmt(load["p99_ms"], 2)],
         ["failed requests", load["failed_requests"]],
         [f"wide q={WIDE_Q} (chunks of {WIDE_CHUNK_COLS}) p50 (ms)",
          fmt(wide["p50_ms"], 1)],
         ["wide failed / non-identical", wide["failed_requests"]],
         ["warm inspections", warm_inspections],
         ["warm re-tunes", warm_retunes]],
    )

    # Gates (mirrored in validate_results.py for the committed artifact):
    # correctness-class claims hold even in quick mode on a loaded CI box.
    assert load["failed_requests"] == 0, \
        f"{load['failed_requests']} request(s) failed under load"
    assert wide["failed_requests"] == 0, \
        f"{wide['failed_requests']} wide request(s) failed or differed " \
        f"from the in-process product"
    assert warm_inspections == 0, \
        "warm restart re-inspected despite the tenant PlanStore roots"
    assert warm_retunes == 0
    if not BENCH_QUICK:
        # Tail-latency sanity on a real perf box: a 5 s p99 for q=4
        # panels at this N means the dispatcher or the front-end stalled.
        assert load["p99_ms"] < 5000, f"p99 {load['p99_ms']:.0f} ms"
