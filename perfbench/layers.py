"""Per-layer metrics computed from recorded spans and the program's counters.

Every workload reports every metric below; a layer that does no work on a
workload reports 0 there (the net and service layers on highdim, for
example). Times are medians over the run's intervals of one kind:
set-up metrics over its set-ups, request metrics over its requests.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import defaultdict

from tracing import INFO, NAME, PARENT, RID, SID, T0, T1, TID

#: (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("tree.self_s", "s"),
    ("htree.self_s", "s"),
    ("htree.near_pairs", "count"),
    ("htree.far_pairs", "count"),
    ("sampling.self_s", "s"),
    ("analysis.self_s", "s"),
    ("compression.self_s", "s"),
    ("compression.ids", "count"),
    ("compression.mean_srank", "count"),
    ("kernels.self_s", "s"),
    ("kernels.entries", "count"),
    ("storage.self_s", "s"),
    ("storage.warm_self_s", "s"),
    ("storage.cds_mb", "MB"),
    ("codegen.self_s", "s"),
    ("codegen.warm_self_s", "s"),
    ("codegen.batch_lowered", "count"),
    ("core.io.decode_s", "s"),
    ("core.self_ms_narrow", "ms"),
    ("core.self_ms_q512", "ms"),
    ("core.evaluator_ms_narrow", "ms"),
    ("core.evaluator_ms_q512", "ms"),
    ("core.flops_q512", "count"),
    ("core.bytes_q512", "bytes"),
    ("core.gflops_q512", "GFLOP/s"),
    ("core.rel_err", "ratio"),
    ("api.session.self_s", "s"),
    ("api.session.p1_builds", "count"),
    ("api.session.p2_builds", "count"),
    ("api.session.hmatrix_hits", "count"),
    ("api.store.put_s", "s"),
    ("api.store.get_s", "s"),
    ("api.store.bytes_written", "bytes"),
    ("api.store.bytes_read", "bytes"),
    ("api.store.disk_hits", "count"),
    ("api.service.request_ms", "ms"),
    ("api.service.queue_wait_ms", "ms"),
    ("api.service.mean_batch", "count"),
    ("api.service.busy_ratio", "ratio"),
    ("net.decode_ms", "ms"),
    ("net.encode_ms", "ms"),
    ("net.self_ms", "ms"),
    ("net.client_decode_ms", "ms"),
    ("net.client_encode_ms", "ms"),
    ("net.bytes_in", "bytes"),
    ("net.bytes_out", "bytes"),
    ("net.non_2xx", "count"),
    ("trace.setup_coverage", "ratio"),
    ("trace.warm_start_coverage", "ratio"),
    ("trace.request_coverage", "ratio"),
    ("trace.wide_coverage", "ratio"),
]

#: Widest stacked panel still counted as a narrow product (max_batch 8 of
#: Q=4 requests on netserve).
NARROW_MAX_Q = 32


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children
    (spans of one process; children run nested in the parent's thread)."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] += s[T1] - s[T0]
    return {s[SID]: s[T1] - s[T0] - child.get(s[SID], 0.0) for s in spans}


class Timeline:
    """Spans sorted by start, so the ones inside an interval are found
    without scanning every span (a run records tens of thousands)."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: s[T0])
        self.starts = [s[T0] for s in self.spans]

    def inside(self, t0: float, t1: float) -> list[tuple]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return [s for s in self.spans[lo:hi] if s[T1] <= t1]


def union_share(t0: float, t1: float, pieces) -> float:
    """Share of [t0, t1] covered by the union of (start, end) pieces."""
    pieces = sorted((max(a, t0), min(b, t1)) for a, b in pieces
                    if b > t0 and a < t1)
    covered, end = 0.0, t0
    for a, b in pieces:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return covered / (t1 - t0) if t1 > t0 else 0.0


class Spans:
    """Spans of one or more processes with their self times, indexed by
    name.

    Span ids restart in every process, so the spans of process ``p`` get
    their ids, parents and request ids offset by ``p * ID_STRIDE``.
    """

    ID_STRIDE = 1 << 40

    def __init__(self, *processes):
        self.all: list[tuple] = []
        for p, spans in enumerate(processes):
            off = p * self.ID_STRIDE
            self.all += [(s[SID] + off, s[NAME], s[T0], s[T1],
                          s[PARENT] + off if s[PARENT] else 0,
                          s[RID] + off, s[TID], s[INFO]) for s in spans]
        self.self = self_times(self.all)
        by_name = defaultdict(list)
        for s in self.all:
            by_name[s[NAME]].append(s)
        self._by_name = {n: Timeline(v) for n, v in by_name.items()}

    def named(self, prefix: str, t0: float = -math.inf,
              t1: float = math.inf) -> list[tuple]:
        """The spans whose name starts with ``prefix`` that lie within
        [t0, t1]."""
        return [s for name, line in self._by_name.items()
                if name.startswith(prefix) for s in line.inside(t0, t1)]

    def self_of(self, span) -> float:
        return self.self[span[SID]]

    def layer_self(self, layer: str, t0: float, t1: float) -> float:
        return sum(self.self[s[SID]] for s in self.named(f"{layer}:", t0, t1))


#: Inspector phases (``H.metadata`` timings) -> layer. Kernel blocks run
#: inside ``low_rank_approximation`` and are traced, so compression's self
#: time is that phase minus the kernel spans.
PHASES = {
    "tree_construction": "tree",
    "interaction_computation": "htree",
    "sampling": "sampling",
    "blocking": "analysis",
    "coarsening": "analysis",
    "low_rank_approximation": "compression",
    "data_layout": "storage",
    "code_generation": "codegen",
}


def _built(spans: Spans, t0: float, t1: float) -> list[dict]:
    """Records of the operators built within [t0, t1]: ``Session.inspect``
    records an operator it built the first time it hands it out."""
    return [s[INFO] for s in spans.named("api.session:Session.inspect",
                                         t0, t1) if s[INFO]]


def _setup_self(spans: Spans, t0: float, t1: float) -> dict[str, float]:
    """Self time of each layer in one set-up interval: the inspector's
    phase times of the operators built in it, plus the layer spans, minus
    the phases from the self time of ``Session.inspect`` they ran in."""
    out = {layer: spans.layer_self(layer, t0, t1)
           for layer in ("kernels", "storage", "codegen", "api.session")}
    for layer in set(PHASES.values()) - set(out):
        out[layer] = 0.0
    for record in _built(spans, t0, t1):
        for phases in (record["timings_p1"], record["timings_p2"]):
            for phase, seconds in phases.items():
                if phase in PHASES:  # others stay in Session.inspect
                    out[PHASES[phase]] += seconds
                    out["api.session"] -= seconds
    out["compression"] -= out["kernels"]
    # Kernel spans are children of Session.inspect (the phase that calls
    # them is not a span), so they were never in its self time.
    out["api.session"] += out["kernels"]
    return out


def compute(spans: Spans, intervals: dict, counts: dict) -> dict[str, float]:
    """Every per-layer metric. ``intervals`` maps an interval kind
    (setup, warm_start, request, wide, window) to (t0, t1) pairs;
    ``counts`` holds the program's own counters and the coverage shares
    the workload measured."""
    setups = intervals.get("setup", [])
    warms = intervals.get("warm_start", [])
    out: dict[str, float] = {}

    per_setup = [_setup_self(spans, a, b) for a, b in setups]
    for layer in ("tree", "htree", "sampling", "analysis", "compression",
                  "kernels", "storage", "codegen", "api.session"):
        out[f"{layer}.self_s"] = _median(s[layer] for s in per_setup)

    def over(kind_intervals, layer):
        return _median(spans.layer_self(layer, a, b)
                       for a, b in kind_intervals)

    out["storage.warm_self_s"] = over(warms, "storage")
    out["codegen.warm_self_s"] = over(warms, "codegen")
    out["core.io.decode_s"] = _median(
        sum(spans.self_of(s) for s in spans.named("core.io:load", a, b))
        for a, b in warms)

    # Every set-up builds the same operator; the first one describes it.
    built = [r for a, b in setups for r in _built(spans, a, b)]
    op = built[0] if built else {}
    out["htree.near_pairs"] = op.get("near_pairs", 0)
    out["htree.far_pairs"] = op.get("far_pairs", 0)
    out["compression.ids"] = op.get("ids", 0)
    out["compression.mean_srank"] = op.get("mean_srank", 0.0)
    out["kernels.entries"] = _median(
        sum(s[INFO] for s in spans.named("kernels:", a, b))
        for a, b in setups)
    out["storage.cds_mb"] = op.get("memory_mb", 0.0)
    out["codegen.batch_lowered"] = op.get("batch", 0)

    # Products: HMatrix.matmul self time excludes its evaluator.
    matmuls = spans.named("core:HMatrix.matmul")
    evals = spans.named("core.evaluator:")
    for label, pick in (("narrow", lambda q: q <= NARROW_MAX_Q),
                        ("q512", lambda q: q >= 512)):
        out[f"core.self_ms_{label}"] = 1e3 * _median(
            spans.self_of(s) for s in matmuls if pick(s[INFO]))
        out[f"core.evaluator_ms_{label}"] = 1e3 * _median(
            s[T1] - s[T0] for s in evals if pick(s[INFO]))
    flops = op.get("flops_q512", 0)
    out["core.flops_q512"] = flops
    out["core.bytes_q512"] = (op.get("memory_mb", 0.0) * 2**20
                              + 2 * op.get("dim", 0) * 512 * 8)
    wide = [s[T1] - s[T0] for s in matmuls if s[INFO] >= 512]
    out["core.gflops_q512"] = flops / _median(wide) / 1e9 if wide else 0.0
    out["core.rel_err"] = counts.get("rel_err", 0.0)

    for key in ("p1_builds", "p2_builds", "hmatrix_hits"):
        out[f"api.session.{key}"] = counts.get(key, 0)
    out["api.store.put_s"] = _median(
        sum(s[T1] - s[T0]
            for s in spans.named("api.store:PlanStore.put", a, b))
        for a, b in setups)
    out["api.store.get_s"] = _median(
        sum(s[T1] - s[T0]
            for s in spans.named("api.store:PlanStore.get", a, b))
        - sum(s[T1] - s[T0] for s in spans.named("core.io:load", a, b))
        for a, b in warms)
    out["api.store.bytes_written"] = sum(
        s[INFO] or 0 for s in spans.named("core.io:save"))
    out["api.store.bytes_read"] = sum(
        s[INFO] or 0 for s in spans.named("core.io:load"))
    out["api.store.disk_hits"] = counts.get("disk_hits", 0)

    out.update(_service(spans, intervals.get("window", []), counts))
    out.update(_net(spans, counts))
    for kind in ("setup", "warm_start", "request", "wide"):
        out[f"trace.{kind}_coverage"] = _median(
            counts.get("coverage", {}).get(kind, []))
    return out


def _service(spans: Spans, windows, counts) -> dict[str, float]:
    requests = spans.named("api.service:request")
    # The dispatcher's batches: top-level Session.inspect spans (a
    # compile runs its inspect nested under the request handler).
    batches = sorted(s for s in spans.named("api.session:")
                     if s[PARENT] == 0)
    starts = sorted(s[T0] for s in batches
                    if s[NAME].endswith("inspect"))
    waits = []
    for r in requests:
        # The batch that served a request is the last one to start
        # before its Future was done.
        i = bisect.bisect_right(starts, r[T1]) - 1
        if i >= 0:
            waits.append(max(starts[i] - r[T0], 0.0))
    pieces = [(s[T0], s[T1]) for s in batches]
    busy = sum(union_share(a, b, pieces) * (b - a) for a, b in windows)
    span = sum(b - a for a, b in windows)
    return {
        "api.service.request_ms": 1e3 * _median(
            r[T1] - r[T0] for r in requests),
        "api.service.queue_wait_ms": 1e3 * _median(waits),
        "api.service.mean_batch": counts.get("mean_batch", 0.0),
        "api.service.busy_ratio": busy / span if span else 0.0,
    }


def _net(spans: Spans, counts) -> dict[str, float]:
    handles = [s for s in spans.named("net:KernelServer._handle")
               if s[INFO] == 2]
    by_parent = defaultdict(list)
    for s in spans.all:
        by_parent[s[PARENT]].append(s)
    service = defaultdict(list)
    for s in spans.named("api.service:request"):
        service[s[RID]].append(s)
    decode, encode, own = [], [], []
    for h in handles:
        kids = by_parent[h[SID]]
        dec = sum(k[T1] - k[T0] for k in kids
                  if k[NAME].startswith("net.decode"))
        enc = sum(k[T1] - k[T0] for k in kids
                  if k[NAME].startswith("net.encode"))
        served = service[h[RID]]
        wait = (max(s[T1] for s in served)
                - min(s[T0] for s in served)) if served else 0.0
        decode.append(dec)
        encode.append(enc)
        own.append(h[T1] - h[T0] - dec - enc - wait)

    def client(prefix):
        per = defaultdict(float)
        for s in spans.named(prefix):
            per[s[RID]] += s[T1] - s[T0]
        return 1e3 * _median(per.values())

    return {
        "net.decode_ms": 1e3 * _median(decode),
        "net.encode_ms": 1e3 * _median(encode),
        "net.self_ms": 1e3 * _median(own),
        "net.client_decode_ms": client("client.decode"),
        "net.client_encode_ms": client("client.encode"),
        "net.bytes_in": counts.get("bytes_in", 0),
        "net.bytes_out": counts.get("bytes_out", 0),
        "net.non_2xx": counts.get("non_2xx", 0),
    }

