"""netserve: a KernelServer process driven over loopback.

The server runs in its own process (``server_proc.py``) with its default
settings and token auth; this process is the load generator. The run is
six phases spread evenly over the measured seconds, one per tenant on each
of two servers:

1. server A over a fresh root: each tenant in turn compiles 2-d points
   cold (a set-up sample);
2. server A stops and server B starts over the same root: each tenant in
   turn compiles (a store hit) and sends its first narrow request (a
   warm-start sample).

After its compile or warm start, each phase sends wide requests to the
first tenant and then runs a closed-loop window of narrow requests from
two client threads to the tenant it set up, until the phase's share of the
run is used. Every response is checked against K @ W for its panel,
computed before the timers start.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

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
    percentile,
    rate,
    rel_diff,
    workload_plan,
    workload_points,
)

#: Every tenant compiles cold on server A and warm-starts on server B.
TENANTS = ("t0", "t1", "t2")
#: Closed-loop client threads in the load generator (callers that each
#: wait for their reply).
CLIENT_THREADS = 2
#: Distinct narrow panels the clients cycle through.
PANELS = 32
#: Wide requests after each compile or warm start.
WIDE_PER_PHASE = 2
#: A wide panel goes over the wire in column chunks of this width, as the
#: client usage in the repository's README sends it
#: (``client.matmul("grid", W, chunk_cols=256)``); the server micro-batches
#: the chunks.
WIDE_CHUNK_COLS = 256
POINTS_ID = "random2d"
KERNEL_DOC = {"name": "gaussian", "bandwidth": BANDWIDTH}
#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0

HERE = Path(__file__).resolve().parent


class ServerProcess:
    """A KernelServer in a child process (see server_proc.py)."""

    def __init__(self, root: Path, spans: Path | None):
        cmd = [sys.executable, str(HERE / "server_proc.py"),
               "--root", str(root), "--tenants", ",".join(TENANTS)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.spans = spans
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(10)
            raise RuntimeError("server process exited before listening")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def healthy(self) -> float:
        """Time at which /healthz answered ok."""
        deadline = time.perf_counter() + 30
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5) as resp:
                    if json.loads(resp.read())["status"] == "ok":
                        return time.perf_counter()
            except OSError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.01)

    def client(self, tenant: str):
        from repro.net import KernelClient

        return KernelClient(self.url, tenant=tenant, token=f"tok-{tenant}",
                            timeout=REQUEST_TIMEOUT)

    def stop(self) -> dict:
        """Close the server's stdin, wait for it, return its report."""
        try:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait(60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(10)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, workdir: Path,
        rec=None) -> dict:
    import numpy as np

    points = workload_points(workload, seed)
    plan_doc = workload_plan(workload)
    rng = np.random.default_rng([seed, 2])
    q = NARROW_Q[workload]
    panels = [rng.random((N, q)) for _ in range(PANELS)]
    wide = rng.random((N, WIDE_Q))
    exact_all = exact_product(points, np.hstack(panels))
    exact = [exact_all[:, i * q:(i + 1) * q] for i in range(PANELS)]
    exact_wide = exact_product(points, wide)
    limit = REL_ERR_LIMIT[workload]

    tally = Tally()
    times = {"setup": [], "warm_start": [], "request": [], "wide": []}
    intervals = {k: [] for k in times}
    intervals["window"] = []
    errors: list[float] = []

    def checked(what, Y, ref):
        err = rel_diff(Y, ref)
        errors.append(err)
        if err <= limit:
            tally.ok()
            return True
        tally.fail(f"{what}: rel_err {err:.3e} above {limit:.0e}")
        return False

    def attempt(what, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            tally.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def window(server, tenant, until):
        """Closed loop: each thread sends its next request when the
        previous reply arrived, until ``until``."""
        lat: list[list[tuple]] = [[] for _ in range(CLIENT_THREADS)]
        bad: list[list[str]] = [[] for _ in range(CLIENT_THREADS)]

        def worker(k):
            client = server.client(tenant)
            i = k
            while time.perf_counter() < until:
                idx = i % PANELS
                i += CLIENT_THREADS
                t0 = time.perf_counter()
                try:
                    Y = client.matmul(POINTS_ID, panels[idx])
                except Exception as exc:  # noqa: BLE001
                    bad[k].append(f"request: {type(exc).__name__}: {exc}")
                    continue
                t1 = time.perf_counter()
                err = rel_diff(Y, exact[idx])
                if err <= limit:
                    lat[k].append((t0, t1))
                else:
                    bad[k].append(f"request: rel_err {err:.3e}")

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(CLIENT_THREADS)]
        w0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        intervals["window"].append((w0, time.perf_counter()))
        for k in range(CLIENT_THREADS):
            for t0, t1 in lat[k]:
                tally.ok()
                times["request"].append(t1 - t0)
                intervals["request"].append((t0, t1))
            for reason in bad[k]:
                tally.fail(reason)

    def wide_requests(server, tenant):
        client = server.client(tenant)
        for _ in range(WIDE_PER_PHASE):
            t0 = time.perf_counter()
            Y = attempt("wide request", client.matmul, POINTS_ID, wide,
                        chunk_cols=WIDE_CHUNK_COLS)
            t1 = time.perf_counter()
            if Y is not None and checked("wide request", Y, exact_wide):
                times["wide"].append(t1 - t0)
                intervals["wide"].append((t0, t1))

    def timed(kind, server, fn, client):
        """Time ``fn(client)`` from the moment the server answers
        /healthz."""
        t0 = server.healthy()
        result = fn(client)
        t1 = time.perf_counter()
        times[kind].append(t1 - t0)
        intervals[kind].append((t0, t1))
        return result

    def compile_points(client):
        return client.compile(points, kernel=KERNEL_DOC, plan=plan_doc,
                              points_id=POINTS_ID)

    def cold(client):
        if compile_points(client).get("compiled") is not True:
            raise RuntimeError("a fresh tenant did not compile")
        return True

    def warm(client):
        if compile_points(client).get("compiled") is not False:
            raise RuntimeError("a restarted tenant re-inspected")
        return client.matmul(POINTS_ID, panels[0])

    root = workdir / "root"
    reports, spans = [], []
    start = time.perf_counter()
    phases = 2 * len(TENANTS)
    done = 0
    for label, kind, what, fn in (("a", "setup", "compile", cold),
                                  ("b", "warm_start", "warm start", warm)):
        server = ServerProcess(
            root, workdir / f"spans-{label}.json" if rec else None)
        try:
            for tenant in TENANTS:
                done += 1
                result = attempt(what, timed, kind, server, fn,
                                 server.client(tenant))
                if result is None:
                    continue
                if kind == "setup":
                    tally.ok()
                else:
                    checked("warm-start request", result, exact[0])
                wide_requests(server, TENANTS[0])
                window(server, tenant,
                       max(start + seconds * done / phases,
                           time.perf_counter() + 1.0))
        finally:
            reports.append(server.stop())
        spans.append(server.spans)

    narrow = times["request"]
    window_s = sum(b - a for a, b in intervals["window"])
    metrics = {
        "setup_s": median(times["setup"]),
        "warm_start_s": median(times["warm_start"]),
        "request_p95_ms": 1e3 * percentile(narrow, TAIL_PERCENTILE),
        "requests_per_s": rate(len(narrow), window_s),
        "eval_q512_per_s": rate(1, median(times["wide"])),
        # The restarted server's: it serves the three tenants from the
        # store. Server A's peak carries the cold compiles' transient
        # allocations and varied twice as much across seeds.
        "peak_rss_mb": reports[-1]["peak_rss_mb"],
    }
    counts = _counts(reports)
    counts["rel_err"] = median(errors) if errors else 0.0
    server_spans = []
    if rec is not None:
        from tracing import load_spans

        server_spans = [load_spans(p) for p in spans]
        counts["coverage"] = _coverage(rec.spans, server_spans, intervals)
    return {"metrics": metrics, "tally": tally, "intervals": intervals,
            "counts": counts, "server_spans": server_spans,
            "narrow": narrow,
            "samples": {k: len(v) for k, v in times.items()}}


def _counts(reports) -> dict:
    """The program's own counters, summed over both server processes."""
    counts = {"p1_builds": 0, "p2_builds": 0, "hmatrix_hits": 0,
              "disk_hits": 0, "bytes_in": 0, "bytes_out": 0, "non_2xx": 0}
    batches = served = 0
    for report in reports:
        server = report["stats"]["server"]
        counts["bytes_in"] += server["bytes_in"]
        counts["bytes_out"] += server["bytes_out"]
        counts["non_2xx"] += sum(v for k, v in server["responses"].items()
                                 if k != "2xx")
        for tenant in report["stats"]["tenants"].values():
            for key in ("p1_builds", "p2_builds", "hmatrix_hits"):
                counts[key] += tenant["session"][key]
            counts["disk_hits"] += tenant["store"]["disk_hits"]
            batches += tenant["service"]["batches"]
            served += tenant["service"]["served"]
    counts["mean_batch"] = served / batches if batches else 0.0
    return counts


def _coverage(client_spans, server_spans, intervals) -> dict:
    """Share of each interval covered by layer spans: the codec spans of
    the client call that made the request, and the server's request
    handling. Concurrent clients share the server, so a narrow request is
    credited only with the longest client call and the longest handling
    span inside it (its own)."""
    from collections import defaultdict

    from layers import Timeline, union_share
    from tracing import NAME, RID, T0, T1

    calls = Timeline(s for s in client_spans
                     if s[NAME].startswith("client:"))
    codec = defaultdict(list)
    for s in client_spans:
        if s[NAME].startswith(("client.decode", "client.encode")):
            codec[s[RID]].append(s)
    handles = Timeline(s for spans in server_spans for s in spans
                       if s[NAME].startswith("net:"))

    def longest(spans):
        return [max(spans, key=lambda s: s[T1] - s[T0])] if spans else []

    out = {}
    for kind in ("setup", "warm_start", "request", "wide"):
        shares = []
        for a, b in intervals[kind]:
            own, mine = handles.inside(a, b), calls.inside(a, b)
            if kind == "request":
                own, mine = longest(own), longest(mine)
            pieces = own + [c for s in mine for c in codec[s[RID]]]
            shares.append(union_share(a, b, [(s[T0], s[T1])
                                             for s in pieces]))
        out[kind] = shares
    return out
