"""Layer spans recorded from outside the program.

:func:`install` replaces, at the names their callers look up, the public
functions whose time the program does not record itself: kernel blocks,
the warm-start path of ``repro.core.io`` (``repro.core.io.build_cds`` is
wrapped, the inspector's own name for it is not), products, the plan store
and its codecs, the kernel service, and the server's and client's codecs.
Every call then records a span: name, start, end, parent span, request id,
thread and an optional value taken from the arguments or the result. The
inspector times its own phases and stores them in ``H.metadata``; the
``Session.inspect`` wrapper reads them, with ``HMatrix.summary()``, off
each operator the session built. Spans stay in memory; :meth:`Recorder.dump`
writes them out at the end of a run. Nothing under ``src/`` changes, and an
untraced run never imports this module.

A span name is ``"<layer>:<function>"``. A layer's self time is the time of
its spans minus the time of their child spans, so a caller layer is not
charged for the work of the layers it calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
import weakref

# Span tuple fields.
SID, NAME, T0, T1, PARENT, RID, TID, INFO = range(8)


class Recorder:
    """In-memory span store shared by every wrapped function."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_rid(self) -> int:
        stack = self._stack()
        return stack[-1][1] if stack else 0

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording one span per call; ``info(args, kwargs,
        result)`` may return a number stored with the span."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent, rid = stack[-1] if stack else (0, sid)
            stack.append((sid, rid))
            result = done = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                value = info(args, kwargs, result) if info and done else None
                rec.spans.append((sid, name, t0, t1, parent, rid,
                                  threading.get_ident(), value))

        return traced

    def record(self, name: str, t0: float, t1: float, rid: int,
               info=None) -> None:
        """A span measured by the caller (it has no children)."""
        self.spans.append((next(self._ids), name, t0, t1, 0, rid,
                           threading.get_ident(), info))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"process": self.process, "spans": self.spans}, fh)


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


# --------------------------------------------------------------- wrappers
def _q(args, kwargs, result):
    """Column count of the W argument of a product."""
    W = args[1] if len(args) > 1 else kwargs.get("W")
    shape = getattr(W, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _entries(args, kwargs, result):
    return int(len(args[1]) * len(args[2]))


_SEEN: dict[int, weakref.ref] = {}


def _operator(args, kwargs, result):
    """What the program recorded about an operator ``Session.inspect``
    built, on the first call that returns it (later calls return the same
    object and record nothing): ``HMatrix.summary()``, the phase times the
    inspector stored in ``H.metadata``, the number of interpolative
    decompositions (one per node with a skeleton) and the flops of a Q=512
    product. An operator loaded from a store carries no phase times and is
    not recorded."""
    if "timings_p2" not in result.metadata:
        return None
    seen = _SEEN.get(id(result))
    if seen is not None and seen() is result:
        return None
    _SEEN[id(result)] = weakref.ref(result)
    summary = result.summary()
    return {
        "near_pairs": int(summary["near_interactions"]),
        "far_pairs": int(summary["far_interactions"]),
        "mean_srank": float(summary["mean_srank"]),
        "memory_mb": float(summary["memory_mb"]),
        "batch": int(bool(summary["lowering"]["batch"])),
        "ids": len(result.factors.skeleton),
        "flops_q512": int(result.evaluation_flops(512)),
        "dim": int(result.dim),
        "timings_p1": dict(result.metadata.get("timings_p1", {})),
        "timings_p2": dict(result.metadata["timings_p2"]),
    }


def _payload_bytes(args, kwargs, result):
    src = args[0]
    return int(len(src.getbuffer())) if hasattr(src, "getbuffer") else 0


def _written_bytes(args, kwargs, result):
    import os
    return int(os.path.getsize(args[1]))


class _JsonProxy:
    """The ``json`` module with ``loads``/``dumps`` traced."""

    def __init__(self, rec: Recorder, module, layer: str):
        self._module = module
        self.loads = rec.wrap(f"{layer}.decode:json.loads", module.loads)
        self.dumps = rec.wrap(f"{layer}.encode:json.dumps", module.dumps)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _patch(rec: Recorder, owner, attr: str, name: str, info=None) -> None:
    setattr(owner, attr, rec.wrap(name, getattr(owner, attr), info))


def install(rec: Recorder) -> None:
    """Wrap every layer the benchmark reports on. Call once per process,
    before the program runs."""
    # import_module, not ``import a.b as x``: some packages re-export a
    # function under their submodule's name.
    mod = importlib.import_module
    service = mod("repro.api.service")
    session = mod("repro.api.session")
    store = mod("repro.api.store")
    emit = mod("repro.codegen.emit")
    hmatrix = mod("repro.core.hmatrix")
    io = mod("repro.core.io")
    gaussian = mod("repro.kernels.gaussian")
    client = mod("repro.net.client")
    server = mod("repro.net.server")

    # The inspector times its own set-up phases (``H.metadata``), so of
    # storage and codegen only the warm-start path and the lazily emitted
    # batched evaluator are wrapped. Kernel blocks are wrapped to split
    # their time out of compression.
    _patch(rec, io, "build_cds", "storage:build_cds")
    _patch(rec, io, "generate_evaluator", "codegen:generate_evaluator")
    _patch(rec, emit, "generate_batched_evaluator",
           "codegen:generate_batched_evaluator")
    _patch(rec, gaussian.GaussianKernel, "block", "kernels:block", _entries)
    _patch(rec, hmatrix.HMatrix, "matmul", "core:HMatrix.matmul", _q)
    _patch(rec, emit.GeneratedEvaluator, "__call__",
           "core.evaluator:GeneratedEvaluator", _q)
    _patch(rec, session.Session, "inspect", "api.session:Session.inspect",
           _operator)
    _patch(rec, session.Session, "matmul", "api.session:Session.matmul", _q)
    _patch(rec, store.PlanStore, "get", "api.store:PlanStore.get")
    _patch(rec, store.PlanStore, "put", "api.store:PlanStore.put")
    # The store finds its codecs through the tier registry, so the
    # registered tiers are replaced by ones whose codecs are traced.
    for tier in ("p1", "hmatrix"):
        old = store._lookup_tier(tier)
        store.register_tier(dataclasses.replace(
            old,
            save=rec.wrap(f"core.io:{old.save.__name__}", old.save,
                          _written_bytes),
            load=rec.wrap(f"core.io:{old.load.__name__}", old.load,
                          _payload_bytes)))
    _install_service(rec, service.KernelService)
    _patch(rec, server.KernelServer, "_handle", "net:KernelServer._handle",
           lambda args, kwargs, result: _verb(args[1].path))
    _patch(rec, server, "decode_array", "net.decode:decode_array")
    _patch(rec, server, "encode_array", "net.encode:encode_array")
    server.json = _JsonProxy(rec, server.json, "net")
    # The client calls group their codec spans under one request id; they
    # cover the whole round trip, so span coverage leaves them out.
    _patch(rec, client.KernelClient, "compile", "client:KernelClient.compile")
    _patch(rec, client.KernelClient, "matmul", "client:KernelClient.matmul")
    _patch(rec, client, "decode_array", "client.decode:decode_array")
    _patch(rec, client, "encode_array", "client.encode:encode_array")
    client.json = _JsonProxy(rec, client.json, "client")


_VERBS = {"compile": 1, "matmul": 2}


def _verb(path: str) -> int:
    """1 for a compile request, 2 for a matmul request, 0 otherwise."""
    return _VERBS.get(path.rsplit("/", 1)[-1], 0)


def _install_service(rec: Recorder, cls) -> None:
    """``KernelService.submit``: one span from submit until its Future is
    done, recorded from the Future's done callback."""
    submit = cls.submit

    @functools.wraps(submit)
    def traced_submit(self, points_id, W):
        rid = rec.current_rid()
        t0 = time.perf_counter()
        future = submit(self, points_id, W)
        future.add_done_callback(
            lambda f: rec.record("api.service:request", t0,
                                 time.perf_counter(), rid))
        return future

    cls.submit = traced_submit
