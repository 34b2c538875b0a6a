#!/usr/bin/env python
"""Serve kernels over the network: tenants, auth, quotas, warm restart.

Walks the full repro.net lifecycle against an in-process server on an
ephemeral loopback port (no setup; the same client code talks to a
``repro server`` started from the shell):

1. **Serve** — a KernelServer with two token-authenticated tenants;
   each compiles its own point cloud and evaluates panels over HTTP,
   chunk-streamed so the dispatcher micro-batches.
2. **Isolation + failure codes** — identical points for both tenants
   still compile per tenant (separate PlanStore roots); a cross-tenant
   token gets 403, an over-quota burst gets 429 + Retry-After.
3. **Warm restart** — a brand-new server over the same root serves
   both tenants with ZERO inspections, proven by counters.

Run:  python examples/net_client.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import KernelClient, KernelServer
from repro.net import ServerError, TenantQuota

TOKENS = {"s3cret-a": "acme", "s3cret-b": "globex"}
PLAN = {"leaf_size": 64, "seed": 0}
KERNEL = {"name": "gaussian", "bandwidth": 5.0}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="net-root-") as tmp:
        serve(Path(tmp))


def serve(root: Path) -> None:
    rng = np.random.default_rng(0)
    points = rng.random((2000, 2))
    W = rng.random((2000, 32))

    # ------------------------------------------- 1. serve two tenants
    quota = TenantQuota(max_requests=40, window_seconds=60.0)
    with KernelServer(root, tokens=TOKENS, quota=quota) as server:
        print(f"serving on {server.url}  (root {root})")
        acme = KernelClient(server.url, tenant="acme", token="s3cret-a")
        globex = KernelClient(server.url, tenant="globex",
                              token="s3cret-b")
        for name, client in (("acme", acme), ("globex", globex)):
            info = client.compile(points, kernel=KERNEL, plan=PLAN,
                                  points_id="grid")
            print(f"  {name:6s} compiled={info['compiled']} "
                  f"plan={info['plan_fingerprint'][:12]}… "
                  f"in {info['compile_seconds']*1e3:.0f} ms")
        Y = acme.matmul("grid", W, chunk_cols=8)  # 4 chunks, micro-batched
        print(f"  acme   Y = K @ W done, shape {Y.shape}, "
              f"service batches: "
              f"{acme.stats()['service']['max_batch_observed']} max")

        # --------------------- 2. isolation and machine-readable errors
        try:
            KernelClient(server.url, tenant="globex",
                         token="s3cret-a").stats()
        except ServerError as err:
            print(f"  cross-tenant token -> HTTP {err.status} "
                  f"[{err.code}]")
        try:
            for _ in range(50):
                acme.matmul("grid", W[:, :1])
        except ServerError as err:
            print(f"  quota burst       -> HTTP {err.status} "
                  f"[{err.code}] retry after {err.retry_after:.0f}s")

    # ------------------------- 3. restart: same root, zero inspections
    with KernelServer(root, tokens=TOKENS) as server:
        acme = KernelClient(server.url, tenant="acme", token="s3cret-a")
        info = acme.compile(points, kernel=KERNEL, plan=PLAN,
                            points_id="grid")
        Y2 = acme.matmul("grid", W)
        session = acme.stats()["session"]
        print(f"restarted: compiled={info['compiled']} (store hit), "
              f"p1_builds={session['p1_builds']}, "
              f"p2_builds={session['p2_builds']}, "
              f"bit-identical={bool(np.array_equal(Y, Y2))}")
        assert info["compiled"] is False
        assert session["p1_builds"] == session["p2_builds"] == 0
    print(f"audit log: {sum(1 for _ in open(root / 'audit.jsonl'))} "
          f"request lines in {root / 'audit.jsonl'}")


if __name__ == "__main__":
    main()
