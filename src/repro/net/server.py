"""KernelServer: the HTTP front-end over KernelService.

Stdlib only (``http.server`` + threads — the dispatcher underneath is
already the concurrency boundary, so a thread-per-connection front-end
adds no new shared state). One server owns a
:class:`~repro.net.tenants.TenantRegistry`; every handler thread:

1. authenticates (``Authorization: Bearer`` → tenant, 401/403),
2. charges the tenant's quota window (429 + ``Retry-After``),
3. parses + validates the payload, a binary frame
   (:mod:`repro.net.protocol`, 400/413/415),
4. routes into the tenant's :class:`~repro.api.service.KernelService`
   (``submit`` futures → micro-batching across connections *and*
   tenants' chunked panels), and
5. appends one JSONL line to the request-audit log.

Endpoints (DESIGN.md §11 has the full table)::

    POST /v1/{tenant}/compile   points upload -> plan fingerprint,
                                persisted to the tenant's PlanStore root
    POST /v1/{tenant}/matmul    single panel or chunk-streamed multi-RHS
    GET  /v1/{tenant}/stats     tenant counters (quota/service/store)
    GET  /metrics               Prometheus-style text; with auth on, a
                                tenant token sees server series + its
                                own tenant only, the ``metrics_token``
                                (scrape token) sees all tenants
    GET  /healthz               {"status": "ok" | "draining"}

Shutdown is graceful by construction: :meth:`drain` flips the server to
503-on-new-work while in-flight Futures complete (the
:meth:`KernelService.drain` contract), then :meth:`close` stops the
listener and closes every tenant service — each writes its RunManifest
next to its store.
"""

from __future__ import annotations

import contextlib
import hmac
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.api.service import ServiceClosed
from repro.net.auth import AuthError, TokenAuthenticator
from repro.net.protocol import (
    FRAME_CONTENT_TYPE,
    PROTOCOL_VERSION,
    ProtocolError,
    TailReader,
    TailWriter,
    decode_array,
    encode_array,
    error_doc,
    frame_parts,
    kernel_from_doc,
    parse_frame,
    plan_from_doc,
)
from repro.net.tenants import QuotaExceeded, TenantQuota, TenantRegistry
from repro.observability.sync import make_lock

__all__ = ["KernelServer", "AuditLog"]

_ROUTE = re.compile(r"^/v1/(?P<tenant>[^/]+)/(?P<verb>compile|matmul|stats)$")

#: Default cap on one request body (64 MiB of frame ≈ 8.4M float64
#: values) — resource safety, overridable per server.
DEFAULT_MAX_BODY = 64 * 2**20

#: After a reply sent before the body was read, the server reads and
#: drops at most ``max_body_bytes`` of that body for at most this long.
_DISCARD_SECONDS = 5.0


def _require_finite(arr: np.ndarray, field: str) -> None:
    """400 ``non_finite`` for a NaN or inf in a decoded array. The codec
    carries such values; the verbs refuse them before any work starts."""
    if not np.isfinite(arr).all():
        raise ProtocolError(f"{field} must be finite (no NaN/inf)",
                            code="non_finite")


class AuditLog:
    """Append-only JSONL request log (thread-safe, best-effort).

    One line per request: timestamp, tenant, verb, HTTP status, byte
    counts, wall time. A failed append never fails the request it
    records — the counter :attr:`write_failures` is the only trace.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = make_lock("AuditLog._lock")
        self.lines = 0  # guarded-by: self._lock
        self.write_failures = 0  # guarded-by: self._lock

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)
                self.lines += 1
            except OSError:
                self.write_failures += 1

    def snapshot(self) -> tuple[int, int]:
        """``(lines, write_failures)`` read under the log's lock."""
        with self._lock:
            return self.lines, self.write_failures


class _Request:
    """Per-request scratch the handler threads fill in for auditing."""

    __slots__ = ("tenant", "verb", "status", "bytes_in", "bytes_out",
                 "t_start", "detail", "body_read")

    def __init__(self):
        self.tenant = None
        self.verb = None
        self.status = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.t_start = time.perf_counter()
        self.detail = None
        self.body_read = False


class KernelServer:
    """Multi-tenant HTTP serving front-end (see module docstring).

    Parameters
    ----------
    root:
        Server state directory; tenant ``t`` stores artifacts under
        ``<root>/tenants/<t>/store`` and the audit log defaults to
        ``<root>/audit.jsonl``.
    tokens:
        ``{token: tenant}`` dict, a JSON token-file path, or an existing
        :class:`~repro.net.auth.TokenAuthenticator`. ``None`` disables
        auth (dev mode): the URL names the tenant, unauthenticated.
    quota:
        A :class:`~repro.net.tenants.TenantQuota` applied to every
        tenant (default: unlimited).
    host / port:
        Bind address; port 0 picks an ephemeral port (see :attr:`port`).
    max_batch / max_wait_ms / policy:
        Forwarded to every tenant's :class:`KernelService`.
    audit_log:
        Path for the JSONL request log; ``False`` disables it, ``None``
        (default) uses ``<root>/audit.jsonl``.
    max_body_bytes / max_elements:
        Request-body and per-array caps (413 beyond them).
    metrics_token:
        Scrape token for the all-tenants ``/metrics`` view when auth is
        on. Without it, ``/metrics`` still requires a valid tenant token
        and scopes the export to that tenant (server-level series plus
        its own) — tenant counters must not leak across the auth
        boundary. Ignored (``/metrics`` stays open) in dev mode.
    """

    def __init__(self, root, *, tokens=None, host: str = "127.0.0.1",
                 port: int = 0, quota: TenantQuota | None = None,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 policy=None, audit_log=None,
                 max_body_bytes: int = DEFAULT_MAX_BODY,
                 max_elements: int = 50_000_000,
                 request_timeout: float = 120.0,
                 metrics_token: str | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if tokens is None or isinstance(tokens, TokenAuthenticator):
            self.auth = tokens
        else:
            self.auth = TokenAuthenticator(tokens)
        self.tenants = TenantRegistry(
            self.root, quota=quota, max_batch=max_batch,
            max_wait_ms=max_wait_ms, policy=policy)
        if audit_log is False:
            self.audit = None
        else:
            self.audit = AuditLog(audit_log if audit_log is not None
                                  else self.root / "audit.jsonl")
        self.max_body_bytes = int(max_body_bytes)
        self.max_elements = int(max_elements)
        self.request_timeout = float(request_timeout)
        self.metrics_token = metrics_token

        self._draining = False  # guarded-by: self._lock
        self._closed = False  # guarded-by: self._lock
        self._serving = False  # guarded-by: self._lock
        self._lock = make_lock("KernelServer._lock")
        self._serve_thread: threading.Thread | None = None
        self.started_at = time.time()
        # status class -> count, plus totals (under self._lock).
        self._responses = {"2xx": 0, "4xx": 0, "5xx": 0}  # guarded-by: self._lock
        self._bytes_in = 0  # guarded-by: self._lock
        self._bytes_out = 0  # guarded-by: self._lock

        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # A frame response is several writes (HTTP head, frame
            # header, one per array): send each at once instead of
            # holding the small ones back for the peer's ACK.
            disable_nagle_algorithm = True
            # A stuck client must not pin a handler thread forever.
            timeout = server.request_timeout

            def do_GET(self):
                server._handle(self, "GET")

            def do_POST(self):
                server._handle(self, "POST")

            def log_message(self, fmt, *args):  # route through the audit
                pass  # log instead of stderr; keep handler threads quiet

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------- lifecycle
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral pick)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "KernelServer":
        """Serve in a background thread (tests, embedding); returns self."""
        if self._serve_thread is None:
            with self._lock:
                self._serving = True
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="kernel-server-accept", daemon=True)
            self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking accept loop (the CLI path)."""
        with self._lock:
            self._serving = True
        self._httpd.serve_forever()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work (503) and wait for in-flight requests.

        Already-accepted Futures complete; new compile/matmul requests
        are refused with 503 the moment this is called. Read-only
        endpoints (stats, metrics, healthz) keep working so the drain
        itself is observable.
        """
        with self._lock:
            self._draining = True
        return self.tenants.drain_all(timeout)

    def close(self, timeout: float | None = None) -> None:
        """Graceful shutdown: drain, stop the listener, close tenants.

        Each tenant service writes its RunManifest under
        ``tenants/<name>/store/manifests/`` as it closes. Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            serving = self._serving
        self.tenants.drain_all(timeout)
        if serving:
            # stops serve_forever (ours or the CLI's). Never started,
            # shutdown() would block forever on the serve-loop event —
            # closing the listener socket below is all there is to do.
            self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(5.0)
        self._httpd.server_close()
        self.tenants.close_all()

    def __enter__(self) -> "KernelServer":
        return self.start()

    def __exit__(self, *exc):
        self.close()
        return False

    # ----------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Server-level counters + every active tenant's stats dict."""
        with self._lock:
            server = {
                "draining": self._draining,
                "uptime_seconds": time.time() - self.started_at,
                "responses": dict(self._responses),
                "bytes_in": self._bytes_in,
                "bytes_out": self._bytes_out,
                "tenants_active": len(self.tenants.active()),
            }
        if self.audit is not None:
            lines, write_failures = self.audit.snapshot()
            server["audit_lines"] = lines
            server["audit_write_failures"] = write_failures
        return {
            "server": server,
            "tenants": {t.name: t.stats() for t in self.tenants.active()},
        }

    def metrics_text(self, tenant: str | None = None) -> str:
        """Prometheus-style export; ``tenant`` scopes it to one tenant's
        series (server-level counters always included)."""
        from repro.observability.stats import metrics_text

        stats = self.stats()
        if tenant is not None:
            stats["tenants"] = {name: s for name, s
                                in stats["tenants"].items()
                                if name == tenant}
        return metrics_text(stats, prefix="repro_net")

    # -------------------------------------------------------------- handling
    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        req = _Request()
        try:
            self._route(handler, method, req)
        except BrokenPipeError:  # client went away mid-response
            req.status = req.status or 499
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error(handler, req, 500, "internal_error",
                             f"{type(exc).__name__}: {exc}")
        finally:
            self._account(req)

    def _route(self, handler, method: str, req: _Request) -> None:
        path = handler.path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            req.verb = "healthz"
            status = "draining" if self.draining else "ok"
            self._send_json(handler, req, 200, {"status": status})
            return
        if method == "GET" and path == "/metrics":
            req.verb = "metrics"
            try:
                scope = self._metrics_scope(handler)
            except AuthError as exc:
                self._send_error(handler, req, exc.status, exc.code,
                                 str(exc))
                return
            body = self.metrics_text(tenant=scope).encode()
            self._send_raw(handler, req, 200, [body],
                           content_type="text/plain; version=0.0.4")
            return
        m = _ROUTE.match(path)
        if m is None:
            self._send_error(handler, req, 404, "not_found",
                             f"no route for {method} {path}")
            return
        tenant_name, verb = m.group("tenant"), m.group("verb")
        req.verb = verb
        if (verb == "stats") != (method == "GET"):
            wants = "GET" if verb == "stats" else "POST"
            self._send_error(handler, req, 405, "method_not_allowed",
                             f"{verb} is a {wants} endpoint")
            return
        try:
            if self.auth is not None:
                self.auth.authenticate(
                    handler.headers.get("Authorization"), tenant_name)
            tenant = self.tenants.get(tenant_name)
        except AuthError as exc:
            self._send_error(handler, req, exc.status, exc.code, str(exc))
            return
        except ValueError as exc:
            self._send_error(handler, req, 400, "bad_tenant", str(exc))
            return
        req.tenant = tenant_name
        if verb == "stats":
            self._send_json(handler, req, 200, tenant.stats())
            return
        # --- mutating verbs: drain gate, body, quota ---
        if self.draining:
            self._send_error(handler, req, 503, "draining",
                             "server is draining; retry against another "
                             "replica", headers={"Retry-After": "1"})
            return
        try:
            doc, tail = self._read_frame(handler, req)
            tenant.charge(req.bytes_in)
            if verb == "compile":
                self._do_compile(handler, req, tenant, doc, tail)
            else:
                self._do_matmul(handler, req, tenant, doc, tail)
        except ProtocolError as exc:
            self._send_error(handler, req, exc.status, exc.code, str(exc))
        except QuotaExceeded as exc:
            self._send_error(
                handler, req, 429, "over_quota", str(exc),
                headers={"Retry-After": f"{max(exc.retry_after, 0.1):.1f}"})
        except ServiceClosed as exc:
            self._send_error(handler, req, 503, "draining", str(exc),
                             headers={"Retry-After": "1"})

    def _metrics_scope(self, handler) -> str | None:
        """Who may see what on ``/metrics``: ``None`` = all tenants.

        Dev mode (no authenticator) stays open. With auth on, the
        configured scrape token unlocks the full export; otherwise the
        caller must present a valid *tenant* token and sees only the
        server-level series plus its own tenant — raising
        :class:`AuthError` (401) for anything else, so an unauthenticated
        scraper cannot enumerate tenants or read their traffic counters.
        """
        if self.auth is None:
            return None
        header = handler.headers.get("Authorization")
        if self.metrics_token is not None and header:
            scheme, _, token = header.partition(" ")
            if scheme.lower() == "bearer" and hmac.compare_digest(
                    token.strip().encode(), self.metrics_token.encode()):
                return None
        return self.auth.resolve(header)

    def _read_frame(self, handler, req: _Request) -> tuple[dict, TailReader]:
        length = handler.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise ProtocolError("Content-Length required",
                                status=411,
                                code="length_required") from None
        if length < 0:
            # rfile.read(-1) would read to EOF: an unbounded client-
            # controlled allocation sidestepping max_body_bytes.
            raise ProtocolError(
                f"Content-Length must be non-negative, got {length}")
        if length > self.max_body_bytes:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the server cap "
                f"of {self.max_body_bytes}", status=413,
                code="payload_too_large")
        media = handler.headers.get_content_type()
        if media != FRAME_CONTENT_TYPE:
            raise ProtocolError(
                f"request bodies are {FRAME_CONTENT_TYPE} frames, got "
                f"{media}", status=415, code="unsupported_media_type")
        # Read into a writable buffer: the arrays decode_array views in
        # it are writable, like any array a caller hands the service.
        raw = bytearray(length)
        got = handler.rfile.readinto(raw)
        req.bytes_in = got
        if got != length:
            raise ProtocolError(
                f"request body truncated: Content-Length announced "
                f"{length} bytes, {got} arrived")
        req.body_read = True
        # This module's json parses the header, like every other JSON
        # document the server reads.
        return parse_frame(raw, loads=json.loads)

    # ------------------------------------------------------------ endpoints
    def _do_compile(self, handler, req: _Request, tenant, doc: dict,
                    tail: TailReader) -> None:
        from repro.api.session import points_fingerprint

        unknown = sorted(set(doc) - {"points", "points_id", "kernel",
                                     "plan"})
        if unknown:
            raise ProtocolError(f"compile has unknown key(s) {unknown}")
        points = decode_array(doc.get("points"), tail,
                              max_elements=self.max_elements,
                              field="points")
        tail.finish()
        if points.ndim != 2 or points.shape[0] < 2:
            raise ProtocolError(
                f"points must be a 2-D (n, d) array with n >= 2, got "
                f"shape {list(points.shape)}")
        _require_finite(points, "points")
        plan = plan_from_doc(doc.get("plan"))
        kernel = kernel_from_doc(doc.get("kernel"))
        pfp = points_fingerprint(np.ascontiguousarray(points,
                                                      dtype=np.float64))
        points_id = doc.get("points_id") or pfp
        if not isinstance(points_id, str) or not points_id:
            raise ProtocolError("points_id must be a non-empty string")
        t0 = time.perf_counter()
        # warm=True inspects now (or loads from the tenant's store);
        # register() reports built-vs-store-hit from under the service's
        # session lock, so concurrent compiles on one tenant cannot
        # misattribute each other's builds.
        compiled = tenant.service.register(points_id, points, kernel=kernel,
                                           plan=plan, warm=True)
        req.detail = points_id
        self._send_json(handler, req, 200, {
            "points_id": points_id,
            "n": int(points.shape[0]),
            "d": int(points.shape[1]),
            "points_fingerprint": pfp,
            "plan_fingerprint": plan.fingerprint(),
            "p1_fingerprint": plan.p1_fingerprint(),
            "compiled": compiled,  # False = served from the store, warm
            "compile_seconds": time.perf_counter() - t0,
        })

    def _do_matmul(self, handler, req: _Request, tenant, doc: dict,
                   tail: TailReader) -> None:
        unknown = sorted(set(doc) - {"points_id", "w", "w_chunks"})
        if unknown:
            raise ProtocolError(f"matmul has unknown key(s) {unknown}")
        points_id = doc.get("points_id")
        if not isinstance(points_id, str) or not points_id:
            raise ProtocolError("matmul requires a points_id string")
        req.detail = points_id
        if ("w" in doc) == ("w_chunks" in doc):
            raise ProtocolError("matmul takes exactly one of 'w' (a single "
                                "panel) or 'w_chunks' (a list of column "
                                "chunks)")
        chunked = "w_chunks" in doc
        if chunked:
            chunk_docs = doc["w_chunks"]
            if not isinstance(chunk_docs, list) or not chunk_docs:
                raise ProtocolError("w_chunks must be a non-empty list")
        else:
            chunk_docs = [doc["w"]]
        panels = [decode_array(c, tail, max_elements=self.max_elements,
                               field=f"w_chunks[{i}]" if chunked else "w")
                  for i, c in enumerate(chunk_docs)]
        # decode_array laid the chunks back to back, so no two share a
        # byte and together they hold no more than the body; finish()
        # refuses bytes left over after the last one.
        tail.finish()
        try:
            n = tenant.service.shape(points_id)[0]
        except KeyError:
            raise ProtocolError(
                f"unknown points_id {points_id!r} for tenant "
                f"{tenant.name!r}; POST /compile it first",
                status=404, code="unknown_points_id") from None
        for i, panel in enumerate(panels):
            rows = panel.shape[0]
            if panel.ndim not in (1, 2) or rows != n:
                raise ProtocolError(
                    f"{f'w_chunks[{i}]' if chunked else 'w'} must have "
                    f"{n} rows for {points_id!r}, got shape "
                    f"{list(panel.shape)}")
            _require_finite(panel, f"w_chunks[{i}]" if chunked else "w")
        t0 = time.perf_counter()
        # One submit per chunk: the dispatcher stacks compatible chunks
        # (from this request AND concurrent ones) into one GEMM. Each
        # panel is a view of the request body; submit() takes the copy.
        futures = [tenant.service.submit(points_id, panel)
                   for panel in panels]
        results = [f.result(self.request_timeout) for f in futures]
        out = TailWriter()
        body = {
            "points_id": points_id,
            "serve_seconds": time.perf_counter() - t0,
        }
        if chunked:
            body["y_chunks"] = [encode_array(y, out) for y in results]
        else:
            body["y"] = encode_array(results[0], out)
        self._send_raw(handler, req, 200,
                       frame_parts(json.dumps(body).encode(), out),
                       content_type=FRAME_CONTENT_TYPE)

    # ------------------------------------------------------------ responses
    def _send_json(self, handler, req: _Request, status: int,
                   doc: dict, headers: dict | None = None) -> None:
        body = json.dumps(doc).encode()
        self._send_raw(handler, req, status, [body],
                       content_type="application/json", headers=headers)

    def _send_error(self, handler, req: _Request, status: int, code: str,
                    message: str, headers: dict | None = None) -> None:
        try:
            self._send_json(handler, req, status, error_doc(code, message),
                            headers=headers)
        except (BrokenPipeError, ConnectionResetError):
            req.status = req.status or status

    @staticmethod
    def _body_unread(handler, req: _Request) -> bool:
        """Did this request declare a body nobody consumed?

        True on early-error paths (401/404/413-by-header/415/503/…)
        that reply before :meth:`_read_frame` ran: the unread bytes are
        still on the socket, and a keep-alive reuse would parse them as
        the next request line. Those responses must close the connection.
        """
        if req.body_read:
            return False
        if handler.headers.get("Transfer-Encoding") is not None:
            return True  # chunked: unknown length, certainly unread
        declared = handler.headers.get("Content-Length")
        if declared is None:
            return False
        try:
            # != 0, not > 0: a negative (malformed) length says nothing
            # about what is actually on the socket — close to be safe.
            return int(declared) != 0
        except ValueError:
            return True

    def _send_raw(self, handler, req: _Request, status: int,
                  parts: list[bytes | memoryview], content_type: str,
                  headers: dict | None = None) -> None:
        """Send a response whose body is ``parts`` written in order (a
        frame's arrays go out from their own buffers, never joined)."""
        req.status = status
        req.bytes_out = sum(memoryview(p).nbytes for p in parts)
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(req.bytes_out))
        handler.send_header("X-Repro-Protocol", str(PROTOCOL_VERSION))
        unread = self._body_unread(handler, req)
        if unread:
            # send_header("Connection", "close") also flips the
            # handler's close_connection flag, so the socket really is
            # torn down after this response instead of serving garbage.
            handler.send_header("Connection", "close")
        for key, value in (headers or {}).items():
            handler.send_header(key, value)
        handler.end_headers()
        for part in parts:
            handler.wfile.write(part)
        if unread:
            self._discard_body(handler)

    def _discard_body(self, handler) -> None:
        """Half-close, then read and drop the body an early reply left.

        Closing a socket with unread input makes the kernel reset the
        connection, and the reset destroys the reply before a client
        that is still sending its body reads it: the client sees a
        broken pipe instead of the status and its Retry-After. Reading
        is bounded by ``max_body_bytes`` and :data:`_DISCARD_SECONDS`,
        so a client cannot pin the handler thread with it.
        """
        try:
            declared = int(handler.headers.get("Content-Length", -1))
        except ValueError:
            declared = -1
        budget = (min(declared, self.max_body_bytes) if declared > 0
                  else self.max_body_bytes)
        deadline = time.monotonic() + _DISCARD_SECONDS
        # A reset or a timeout ends the reading; the reply went out.
        with contextlib.suppress(OSError):
            handler.wfile.flush()
            handler.connection.shutdown(socket.SHUT_WR)
            while budget > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                handler.connection.settimeout(left)
                chunk = handler.rfile.read1(min(budget, 1 << 16))
                if not chunk:
                    break
                budget -= len(chunk)

    def _account(self, req: _Request) -> None:
        bucket = f"{req.status // 100}xx" if req.status else "5xx"
        with self._lock:
            self._responses[bucket] = self._responses.get(bucket, 0) + 1
            self._bytes_in += req.bytes_in
            self._bytes_out += req.bytes_out
        if self.audit is not None and req.verb is not None:
            self.audit.append({
                "ts": round(time.time(), 6),
                "tenant": req.tenant,
                "verb": req.verb,
                "status": req.status,
                "bytes_in": req.bytes_in,
                "bytes_out": req.bytes_out,
                "duration_ms": round(
                    (time.perf_counter() - req.t_start) * 1e3, 3),
                "detail": req.detail,
            })
