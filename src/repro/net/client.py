"""KernelClient: the stdlib HTTP client for :class:`KernelServer`.

``urllib.request`` only — a client of the wire protocol, not of the
repro internals: everything it sends and receives goes through
:mod:`repro.net.protocol`, so it doubles as the reference implementation
for clients in other languages.

    >>> client = KernelClient("http://127.0.0.1:8741", token="s3cret",
    ...                       tenant="acme")                # doctest: +SKIP
    >>> info = client.compile(points, kernel="gaussian",
    ...                       plan={"leaf_size": 64})       # doctest: +SKIP
    >>> Y = client.matmul(info["points_id"], W)             # doctest: +SKIP

``matmul(..., chunk_cols=q)`` splits a wide panel into column chunks so
the server's dispatcher can micro-batch them with concurrent traffic;
the concatenated result equals the unchunked product to rounding
(bit-identical only when BLAS runs GEMMs of the same widths).

POST bodies go out as frames (:mod:`repro.net.protocol`). A response
is parsed by its ``Content-Type``: frames (``matmul``), JSON (everything
else), or text (``/metrics``); a frame's arrays are read in place.
"""

from __future__ import annotations

import contextlib
import json
import urllib.error
import urllib.request

import numpy as np

from repro.net.protocol import (
    FRAME_CONTENT_TYPE,
    PROTOCOL_VERSION,
    TailReader,
    TailWriter,
    decode_array,
    encode_array,
    frame_parts,
    parse_frame,
)

__all__ = ["KernelClient", "ServerError"]


class ServerError(RuntimeError):
    """A non-2xx response, carrying the wire error code and status."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = int(status)
        self.code = code
        self.retry_after = retry_after


class KernelClient:
    """Typed front-end for one tenant of a :class:`KernelServer`.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the server (no trailing path).
    tenant:
        Tenant namespace to address (required for compile/matmul/stats).
    token:
        Bearer token for the tenant; omit against a no-auth server.
    timeout:
        Socket timeout per request, seconds.
    """

    def __init__(self, base_url: str, *, tenant: str | None = None,
                 token: str | None = None, timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.token = token
        self.timeout = float(timeout)

    # ------------------------------------------------------------- transport
    def _request(self, method: str, path: str, doc: dict | None = None,
                 tail: TailWriter | None = None):
        """One round trip; returns ``(document, tail)``.

        A ``doc`` is sent as a frame whose arrays :func:`encode_array`
        put in ``tail``. The reply's ``Content-Type`` picks its parser:
        a frame gives its header and tail, JSON its document, anything
        else its text; the last two with an empty tail.
        """
        headers = {"Accept": f"{FRAME_CONTENT_TYPE}, application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        body = None
        if doc is not None:
            # One buffer, so the request goes out in two sends (head,
            # body). A server that answers from the headers alone (401,
            # 429, 503) closes the socket; a third send would then fail
            # with a broken pipe and lose that answer.
            body = b"".join(frame_parts(json.dumps(doc).encode(),
                                        tail or TailWriter()))
            headers["Content-Type"] = FRAME_CONTENT_TYPE
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as resp:
                self._check_protocol(resp.headers)
                payload = resp.read()
                media = resp.headers.get_content_type()
        except urllib.error.HTTPError as exc:
            self._check_protocol(exc.headers)
            raise self._server_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServerError(0, "unreachable",
                              f"{self.base_url}: {exc.reason}") from exc
        if media == FRAME_CONTENT_TYPE:
            return parse_frame(payload, loads=json.loads)
        if media == "application/json":
            return json.loads(payload), TailReader(memoryview(b""))
        return payload.decode(), TailReader(memoryview(b""))

    @staticmethod
    def _check_protocol(headers) -> None:
        """Refuse a server that speaks another protocol version, before
        its body is read — on errors too, which a version skew causes."""
        served = headers.get("X-Repro-Protocol")
        if served is not None and served != str(PROTOCOL_VERSION):
            raise ServerError(0, "protocol_mismatch",
                              f"server speaks protocol {served}, client "
                              f"speaks {PROTOCOL_VERSION}")

    @staticmethod
    def _server_error(exc: urllib.error.HTTPError) -> ServerError:
        code, message = "error", exc.reason
        with contextlib.suppress(ValueError, OSError):
            detail = json.loads(exc.read()).get("error", {})
            code = detail.get("code", code)
            message = detail.get("message", message)
        retry_after = exc.headers.get("Retry-After")
        return ServerError(exc.code, code, message,
                           retry_after=(float(retry_after)
                                        if retry_after else None))

    def _tenant_path(self, verb: str) -> str:
        if not self.tenant:
            raise ValueError(f"{verb} requires a tenant; pass "
                             f"KernelClient(..., tenant=...)")
        return f"/v1/{self.tenant}/{verb}"

    # ------------------------------------------------------------- endpoints
    def compile(self, points, *, kernel="gaussian", plan: dict | None = None,
                points_id: str | None = None) -> dict:
        """Upload points; the server inspects (or store-hits) the plan.

        Returns the server's compile record — ``points_id`` (use it for
        :meth:`matmul`), plan/points fingerprints, and ``compiled``
        (``False`` means the tenant's store already held the artifact).
        """
        tail = TailWriter()
        doc = {"points": encode_array(np.asarray(points, dtype=np.float64),
                                      tail),
               "kernel": kernel}
        if plan is not None:
            doc["plan"] = dict(plan)
        if points_id is not None:
            doc["points_id"] = points_id
        return self._request("POST", self._tenant_path("compile"), doc,
                             tail)[0]

    def matmul(self, points_id: str, W, *,
               chunk_cols: int | None = None) -> np.ndarray:
        """``Y = K[points_id] @ W`` on the server.

        ``chunk_cols`` streams the panel as column chunks of that width
        (one dispatcher submit each — they micro-batch server-side);
        the stitched result equals the single-panel path to rounding
        (bit-identical only when BLAS runs GEMMs of the same widths).
        """
        W = np.asarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        panel = W[:, None] if squeeze else W
        if panel.ndim != 2:
            raise ValueError(f"W must be 1-D or 2-D, got shape {W.shape}")
        chunked = chunk_cols is not None and chunk_cols >= 1 \
            and panel.shape[1] > chunk_cols
        tail = TailWriter()
        if chunked:
            chunks = [panel[:, i:i + chunk_cols]
                      for i in range(0, panel.shape[1], chunk_cols)]
            doc = {"points_id": points_id,
                   "w_chunks": [encode_array(c, tail) for c in chunks]}
        else:
            doc = {"points_id": points_id, "w": encode_array(panel, tail)}
        out, body = self._request("POST", self._tenant_path("matmul"), doc,
                                  tail)
        docs = out["y_chunks"] if chunked else [out["y"]]
        # The decoded chunks are views of the response body; the
        # concatenation is the one copy, and the caller owns it.
        Y = np.concatenate([decode_array(d, body, field="y") for d in docs],
                           axis=1)
        body.finish()
        return Y[:, 0] if squeeze else Y

    def stats(self) -> dict:
        """This tenant's quota/service/session/store counters."""
        return self._request("GET", self._tenant_path("stats"))[0]

    def metrics(self) -> str:
        """The ``/metrics`` text (token is sent when configured).

        Against an auth-enabled server a tenant token sees the
        server-level series plus its own tenant; the server's scrape
        token (``metrics_token``) unlocks the all-tenants view.
        """
        return self._request("GET", "/metrics")[0]

    def health(self) -> dict:
        return self._request("GET", "/healthz")[0]
