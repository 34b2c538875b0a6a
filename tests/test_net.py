"""repro.net: wire protocol, auth, tenancy, quotas, and the live server.

The server tests run over a real loopback socket (ephemeral port) — the
acceptance bar for the network layer is end-to-end: results bit-identical
to an in-process Session, restart-warm from the tenant's store, and every
failure mode answered with the right status code while the dispatcher
stays alive.
"""

from __future__ import annotations

import itertools
import json
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import PlanConfig, Session
from repro.kernels.gaussian import GaussianKernel
from repro.net import (
    AuthError,
    KernelClient,
    KernelServer,
    ProtocolError,
    QuotaExceeded,
    ServerError,
    TenantQuota,
    TokenAuthenticator,
    decode_array,
    encode_array,
)
from repro.net.protocol import (
    FRAME_CONTENT_TYPE,
    TailReader,
    TailWriter,
    frame_parts,
    kernel_from_doc,
    parse_frame,
    plan_from_doc,
)
from repro.net.tenants import valid_tenant_name

PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)
PLAN_DOC = {"leaf_size": 32, "bacc": 1e-6, "p": 4, "seed": 0}
KERNEL_DOC = {"name": "gaussian", "bandwidth": 0.5}
TOKENS = {"tok-a": "alice", "tok-b": "bob"}


def _client(server, tenant="alice", token="tok-a", **kw) -> KernelClient:
    return KernelClient(server.url, tenant=tenant, token=token, **kw)


def _frame(doc: dict, tail: TailWriter) -> bytes:
    """One frame as a single bytes object (what a raw socket sends)."""
    return b"".join(frame_parts(json.dumps(doc).encode(), tail))


def _encoded(body: dict) -> tuple[dict, TailWriter]:
    """``body`` with every ndarray value encoded into a fresh tail."""
    tail = TailWriter()
    doc = {k: encode_array(v, tail) if isinstance(v, np.ndarray) else v
           for k, v in body.items()}
    return doc, tail


def _round_trip(arr):
    """encode -> frame bytes -> parse -> decode, as the wire does it."""
    tail = TailWriter()
    header, body = parse_frame(_frame({"a": encode_array(arr, tail)}, tail))
    return header["a"], body


@pytest.fixture()
def server(tmp_path):
    with KernelServer(tmp_path / "root", tokens=TOKENS,
                      max_wait_ms=5.0) as srv:
        yield srv


@pytest.fixture(scope="module")
def reference(points_2d):
    """In-process ground truth: H and Y for the shared point set."""
    with Session(plan=PLAN) as session:
        H = session.inspect(points_2d, kernel=GaussianKernel(bandwidth=0.5))
        W = np.random.default_rng(42).random((len(points_2d), 6))
        return {"W": W, "Y": session.matmul(H, W)}


# ---------------------------------------------------------------- protocol
class TestProtocol:
    @pytest.mark.parametrize("arr", [
        np.random.default_rng(0).random((7, 3)),
        np.random.default_rng(1).random(11),
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.array([[np.inf, -np.inf, np.nan]]),  # data, not protocol
        np.zeros((4, 0)),
    ])
    def test_array_round_trip_exact(self, arr):
        out = decode_array(*_round_trip(arr))
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)

    def test_non_wire_dtype_upcast_on_encode(self):
        doc, tail = _round_trip(np.arange(4, dtype=np.int32))
        assert doc["dtype"] == "float64"
        np.testing.assert_array_equal(decode_array(doc, tail),
                                      np.arange(4, dtype=np.float64))

    def test_frame_layout(self):
        """Prefix, space-padded header, then each array's raw bytes."""
        a, b = np.arange(3.0), np.arange(4, dtype=np.float32)
        tail = TailWriter()
        doc = {"a": encode_array(a, tail), "b": encode_array(b, tail)}
        assert doc["b"] == {"shape": [4], "dtype": "float32",
                            "offset": 24, "nbytes": 16}
        body = _frame(doc, tail)
        (length,) = struct.unpack_from("<Q", body)
        assert (8 + length) % 8 == 0  # the tail starts 8-byte aligned
        assert json.loads(body[8:8 + length]) == doc
        assert body[8 + length:] == a.astype("<f8").tobytes() \
            + b.astype("<f4").tobytes()

    def test_decode_views_the_tail(self):
        """decode_array copies nothing: the array is the body's bytes."""
        doc, tail = _round_trip(np.ones((5, 2)))
        out = decode_array(doc, tail)
        assert np.shares_memory(out,
                                np.frombuffer(tail.view, dtype=np.uint8))

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(shape=[3, 5], nbytes=120), "outside"),
        (lambda d: d.update(shape=[3, 999]), "bytes"),
        (lambda d: d.update(shape="nope"), "shape"),
        (lambda d: d.update(shape=[-1, 4]), "shape"),
        (lambda d: d.update(dtype="object"), "dtype"),
        (lambda d: d.pop("offset"), "offset"),
        (lambda d: d.update(nbytes=95), "needs 96"),
        (lambda d: d.update(offset=8), "previous array ends"),
        (lambda d: d.update(offset=-8), "non-negative integers"),
        (lambda d: d.update(shape=[True, 4]), "non-negative integers"),
        (lambda d: d.update(shape=[10**4000, 10**4000]), "can address"),
        # Empty, but numpy cannot address the other extents: a shape
        # that passes every byte count and fails only at reshape.
        (lambda d: d.update(shape=[0, 2**40, 2**40], nbytes=0),
         "address"),
    ])
    def test_decode_rejects_malformed(self, mutate, match):
        doc, tail = _round_trip(np.ones((3, 4)))
        mutate(doc)
        with pytest.raises(ProtocolError, match=match) as err:
            decode_array(doc, tail)
        assert err.value.status == 400

    def test_decode_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            decode_array([1, 2, 3], TailReader(memoryview(b"")))

    def test_arrays_cannot_share_bytes(self):
        """Each array starts where the previous one ended: a header
        that lists one buffer twice (the second copy at offset 0) is a
        400, so a frame never decodes to more bytes than it carries."""
        tail = TailWriter()
        doc = {"w_chunks": [encode_array(np.ones((4, 2)), tail)] * 3}
        header, body = parse_frame(_frame(doc, tail))
        first, second, _ = header["w_chunks"]
        decode_array(first, body)
        with pytest.raises(ProtocolError, match="previous array ends") \
                as err:
            decode_array(second, body)
        assert err.value.status == 400

    def test_arrays_must_fill_the_tail(self):
        tail = TailWriter()
        doc = {"a": encode_array(np.ones(3), tail)}
        encode_array(np.ones(1), tail)  # bytes no header entry claims
        header, body = parse_frame(_frame(doc, tail))
        decode_array(header["a"], body)
        with pytest.raises(ProtocolError, match="end at byte 24") as err:
            body.finish()
        assert err.value.status == 400

    def test_element_cap_is_413(self):
        doc, tail = _round_trip(np.ones((10, 10)))
        with pytest.raises(ProtocolError) as err:
            decode_array(doc, tail, max_elements=99)
        assert err.value.status == 413

    def test_element_cap_decided_before_the_bytes(self):
        """A shape over the cap is a 413 even when no bytes back it."""
        doc = {"shape": [10**12], "dtype": "float64", "offset": 0,
               "nbytes": 8 * 10**12}
        with pytest.raises(ProtocolError) as err:
            decode_array(doc, TailReader(memoryview(b"")),
                         max_elements=10**6)
        assert err.value.status == 413

    @pytest.mark.parametrize("body, match", [
        (b"", "shorter than"),
        (b"\x05\x00\x00", "shorter than"),
        (struct.pack("<Q", 100) + b"{}", "runs past"),
        (struct.pack("<Q", 2**64 - 1) + b"{}", "runs past"),
        (struct.pack("<Q", 5) + b"{nope", "not valid JSON"),
        (struct.pack("<Q", 2) + b"\xff\xfe", "not valid JSON"),
        (struct.pack("<Q", 9) + b"[1, 2, 3]", "JSON object"),
        (struct.pack("<Q", 4000) + b"[" * 4000, "not valid JSON"),
    ], ids=["empty", "short-prefix", "length-past-body", "length-max",
            "bad-json", "not-utf8", "not-object", "deep-nesting"])
    def test_parse_frame_rejects_malformed(self, body, match):
        with pytest.raises(ProtocolError, match=match) as err:
            parse_frame(body)
        assert err.value.status == 400

    def test_plan_from_doc(self):
        assert plan_from_doc(None) == PlanConfig()
        assert plan_from_doc(PLAN_DOC).fingerprint() == PLAN.fingerprint()
        with pytest.raises(ProtocolError, match="unknown key"):
            plan_from_doc({"leaf_sizes": 32})
        with pytest.raises(ProtocolError, match="finite"):
            plan_from_doc({"tau": float("nan")})
        with pytest.raises(ProtocolError, match="invalid plan"):
            plan_from_doc({"leaf_size": -5})

    def test_kernel_from_doc(self):
        assert kernel_from_doc("gaussian") == kernel_from_doc(
            {"name": "gaussian", "bandwidth": 5.0})
        assert kernel_from_doc(KERNEL_DOC).identity() == \
            GaussianKernel(bandwidth=0.5).identity()
        with pytest.raises(ProtocolError, match="unknown kernel"):
            kernel_from_doc("not-a-kernel")
        with pytest.raises(ProtocolError, match="bandwidth"):
            kernel_from_doc({"name": "gaussian", "bandwidth": -1})
        with pytest.raises(ProtocolError, match="unknown key"):
            kernel_from_doc({"name": "gaussian", "sigma": 2})


# --------------------------------------------------------- frame decoder fuzz
#: Allocation the decoder may make beyond the body it was given: the
#: parsed header's Python objects and an error message. tracemalloc
#: counts every thread, so the slack also absorbs stray allocations;
#: the shapes _mutated_frames declares need several MiB each.
_ALLOC_SLACK = 2**20

#: Anything a hostile header could put in an integer field.
_WILD = st.one_of(st.integers(-3, 300), st.integers(-2**70, 2**70),
                  st.none(), st.booleans(), st.floats(), st.text(max_size=6),
                  st.lists(st.integers(-2, 8), max_size=3))


def _decode_frame(body: bytes, max_elements: int | None) -> list:
    """What the server does with a body before submit(): parse the frame,
    decode every header value as an array, check they fill the tail."""
    doc, tail = parse_frame(body)
    arrays = [decode_array(v, tail, max_elements=max_elements, field=k)
              for k, v in doc.items()]
    tail.finish()
    return arrays


def _decodes_or_rejects(body: bytes, max_elements: int | None = None):
    """The decoder's contract on one input: arrays, or a ProtocolError
    with status 400/413 — and no allocation beyond the body."""
    tracemalloc.start()
    try:
        try:
            arrays = _decode_frame(body, max_elements)
        except ProtocolError as exc:
            assert exc.status in (400, 413), exc.status
            arrays = []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(body) + _ALLOC_SLACK, peak
    # Views, not copies, so the peak cannot see aliasing: check that no
    # two arrays share a byte and together they fit in the body.
    assert sum(arr.nbytes for arr in arrays) <= len(body)
    for a, b in itertools.combinations(arrays, 2):
        assert not np.may_share_memory(a, b)


@st.composite
def _mutated_frames(draw):
    """A valid frame of one to three small arrays with one field changed:
    the header length, or one array's offset (another array's included),
    nbytes, a shape entry (next to zero extents too) or its dtype."""
    specs = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=1, max_size=3),
                  st.sampled_from(["float64", "float32"])),
        min_size=1, max_size=3))
    tail = TailWriter()
    doc = {f"a{i}": encode_array(np.zeros(shape, dtype=dtype), tail)
           for i, (shape, dtype) in enumerate(specs)}
    target = doc[draw(st.sampled_from(sorted(doc)))]
    field = draw(st.sampled_from(["length", "offset", "nbytes", "shape",
                                  "dtype"]))
    if field == "length":
        body = bytearray(_frame(doc, tail))
        length = draw(st.one_of(st.integers(0, len(body) + 16),
                                st.integers(0, 2**64 - 1)))
        body[:8] = struct.pack("<Q", length)
        return bytes(body)
    if field == "shape":
        shape = target["shape"]
        # 10**6-10**7 is a shape a decoder could afford to allocate
        # (4-80 MB per entry) and would, if it trusted the header; past
        # 2**60, next to a zero extent, numpy cannot address the shape.
        shape[draw(st.integers(0, len(shape) - 1))] = draw(
            st.one_of(_WILD, st.integers(10**6, 10**7),
                      st.integers(2**60, 2**80)))
    elif field == "dtype":
        target["dtype"] = draw(st.one_of(
            st.sampled_from(["float64", "float32", "int64", "object", "<f8",
                             "V8", ""]), _WILD))
    elif field == "offset":
        target["offset"] = draw(st.one_of(
            _WILD, st.sampled_from([d["offset"] for d in doc.values()])))
    else:
        target[field] = draw(_WILD)
    return _frame(doc, tail)


class TestFrameDecoderFuzz:
    """parse_frame + decode_array on hostile bodies: decode, or a 400/413
    ProtocolError — never struct.error, IndexError, ValueError or
    MemoryError, and never an allocation sized by a lying header."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(
        st.binary(max_size=256),
        st.builds(lambda h, rest: struct.pack("<Q", len(h)) + h + rest,
                  st.binary(max_size=64), st.binary(max_size=64)),
        st.builds(lambda doc, rest: _frame(doc, TailWriter()) + rest,
                  st.dictionaries(st.text(max_size=4), _WILD, max_size=3),
                  st.binary(max_size=64))))
    def test_arbitrary_bytes(self, body):
        _decodes_or_rejects(body)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutated_frames(), st.sampled_from([None, 10**6]))
    # Two mutations too rare to leave to chance: an empty array whose
    # other extents numpy cannot address, and a second array at offset 0
    # that would alias the first.
    @example(_frame({"a0": {"shape": [0, 2**40, 2**40], "dtype": "float64",
                            "offset": 0, "nbytes": 0}}, TailWriter()),
             None)
    @example(_frame({"a0": {"shape": [2], "dtype": "float64", "offset": 0,
                            "nbytes": 16},
                     "a1": {"shape": [2], "dtype": "float64", "offset": 0,
                            "nbytes": 16}},
                    _encoded({"t": np.zeros(2)})[1]), 10**6)
    def test_valid_frame_with_one_field_mutated(self, body, max_elements):
        _decodes_or_rejects(body, max_elements)


# -------------------------------------------------------------------- auth
class TestAuth:
    def test_resolve_and_authenticate(self):
        auth = TokenAuthenticator(TOKENS)
        assert auth.resolve("Bearer tok-a") == "alice"
        assert auth.authenticate("Bearer tok-b", "bob") == "bob"
        assert auth.tenants() == ["alice", "bob"]

    @pytest.mark.parametrize("header", [None, "", "Bearer ", "Basic xyz",
                                        "Bearer nope", "tok-a"])
    def test_bad_credentials_are_401(self, header):
        with pytest.raises(AuthError) as err:
            TokenAuthenticator(TOKENS).resolve(header)
        assert err.value.status == 401

    def test_wrong_tenant_is_403(self):
        with pytest.raises(AuthError) as err:
            TokenAuthenticator(TOKENS).authenticate("Bearer tok-a", "bob")
        assert err.value.status == 403

    def test_token_table_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            TokenAuthenticator({"": "alice"})
        with pytest.raises(ValueError, match="tenant"):
            TokenAuthenticator({"tok": 7})

    def test_token_file_round_trip(self, tmp_path):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps({"tokens": TOKENS}))
        assert TokenAuthenticator(path).resolve("Bearer tok-b") == "bob"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="tokens"):
            TokenAuthenticator(path)


# ------------------------------------------------------------------ quotas
class TestQuota:
    def test_request_window_slides(self):
        from repro.net.tenants import TenantRegistry

        reg = TenantRegistry("/nonexistent-is-fine-not-created-yet")
        # Use a real tenant dir only when needed; here exercise the
        # window math directly on a Tenant with an in-memory-ish root.
        assert reg.quota.enabled is False

    def test_charge_and_expiry(self, tmp_path):
        from repro.net.tenants import Tenant

        quota = TenantQuota(max_requests=2, max_bytes=100,
                            window_seconds=10.0)
        t = Tenant("t", tmp_path / "t", quota=quota, service_kwargs={})
        try:
            t.charge(10, now=0.0)
            t.charge(20, now=1.0)
            with pytest.raises(QuotaExceeded) as err:
                t.charge(1, now=2.0)
            assert err.value.retry_after == pytest.approx(8.0)
            # window slides: the t=0 charge expires at t=10
            t.charge(30, now=10.5)
            # at t=11.5 only (10.5, 30) is left in the window, so the
            # request count is fine but 30 + 99 > 100 bytes
            with pytest.raises(QuotaExceeded) as err:
                t.charge(99, now=11.5)
            assert "byte quota" in str(err.value)
            stats = t.stats()["quota"]
            assert stats["requests_total"] == 3
            assert stats["rejected_total"] == 2
            assert stats["bytes_total"] == 60
        finally:
            t.service.close()

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_requests=0)
        with pytest.raises(ValueError):
            TenantQuota(max_bytes=-1)
        with pytest.raises(ValueError):
            TenantQuota(window_seconds=0)

    @pytest.mark.parametrize("name, ok", [
        ("alice", True), ("a-b_c.d", True), ("A0", True),
        ("", False), ("..", False), ("a/../b", False), ("a/b", False),
        (".hidden", False), ("x" * 65, False), (7, False),
    ])
    def test_tenant_name_validation(self, name, ok):
        assert valid_tenant_name(name) is ok


# ------------------------------------------------------- live server (e2e)
class TestServerEndToEnd:
    def test_compile_then_matmul_bit_identical(self, server, points_2d,
                                               reference):
        client = _client(server)
        info = client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                              points_id="grid")
        assert info["points_id"] == "grid"
        assert info["compiled"] is True
        assert info["plan_fingerprint"] == PLAN.fingerprint()
        Y = client.matmul("grid", reference["W"])
        np.testing.assert_array_equal(Y, reference["Y"])  # bit-identical

    def test_chunk_streamed_matmul_bit_identical(self, server, points_2d,
                                                 reference):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        Y = client.matmul("grid", reference["W"], chunk_cols=2)
        np.testing.assert_array_equal(Y, reference["Y"])
        # chunks really went through the dispatcher as separate submits
        stats = client.stats()
        assert stats["service"]["served"] >= 3

    def test_vector_request_round_trip(self, server, points_2d):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        w = np.random.default_rng(3).random(len(points_2d))
        y = client.matmul("grid", w)
        assert y.shape == (len(points_2d),)

    def test_tenant_isolation_identical_points(self, server, points_2d):
        """Two tenants, identical points: separate store roots, no
        cross-tenant artifact hits (counter-asserted)."""
        a, b = _client(server), _client(server, "bob", "tok-b")
        ia = a.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC)
        ib = b.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC)
        assert ia["points_fingerprint"] == ib["points_fingerprint"]
        # both tenants really compiled: neither was served from the
        # other's store even though the artifacts are byte-equivalent
        assert ia["compiled"] is True
        assert ib["compiled"] is True
        sa, sb = a.stats(), b.stats()
        assert sa["store_root"] != sb["store_root"]
        for s in (sa, sb):
            assert s["session"]["p1_builds"] == 1
            assert s["session"]["p2_builds"] == 1
            assert s["session"]["hmatrix_hits"] == 0
            assert s["store"]["disk_hits"] == 0
        roots = server.root / "tenants"
        assert (roots / "alice" / "store").is_dir()
        assert (roots / "bob" / "store").is_dir()
        alice_artifacts = set(
            p.name for p in (roots / "alice" / "store").glob("*.npz"))
        bob_artifacts = set(
            p.name for p in (roots / "bob" / "store").glob("*.npz"))
        assert alice_artifacts and bob_artifacts

    def test_missing_token_401(self, server, points_2d):
        with pytest.raises(ServerError) as err:
            _client(server, token=None).stats()
        assert (err.value.status, err.value.code) == (401,
                                                      "unauthenticated")

    def test_unknown_token_401(self, server):
        with pytest.raises(ServerError) as err:
            _client(server, token="wrong").stats()
        assert err.value.status == 401

    def test_cross_tenant_token_403(self, server):
        with pytest.raises(ServerError) as err:
            _client(server, tenant="bob", token="tok-a").stats()
        assert (err.value.status, err.value.code) == (403, "forbidden")

    def test_invalid_tenant_name_400(self, server):
        auth_free = KernelServer(server.root.parent / "open", tokens=None)
        with auth_free:
            with pytest.raises(ServerError) as err:
                KernelClient(auth_free.url, tenant="a%2e%2e").stats()
            assert err.value.status == 400

    def test_over_quota_429_with_retry_after(self, tmp_path, points_2d):
        quota = TenantQuota(max_requests=2, window_seconds=60.0)
        with KernelServer(tmp_path / "q", tokens=TOKENS,
                          quota=quota) as srv:
            client = _client(srv)
            client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                           points_id="grid")
            client.matmul("grid", np.ones(len(points_2d)))
            with pytest.raises(ServerError) as err:
                client.matmul("grid", np.ones(len(points_2d)))
            assert (err.value.status, err.value.code) == (429, "over_quota")
            assert err.value.retry_after is not None
            assert err.value.retry_after > 0
            # the rejected request was not charged; stats still served
            assert client.stats()["quota"]["rejected_total"] == 1

    def test_malformed_json_400_dispatcher_survives(self, server,
                                                    points_2d):
        import urllib.error
        import urllib.request

        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        header = b'{"points_id": "grid", "w": {{{nope'
        request = urllib.request.Request(
            f"{server.url}/v1/alice/matmul",
            data=struct.pack("<Q", len(header)) + header,
            method="POST",
            headers={"Authorization": "Bearer tok-a",
                     "Content-Type": FRAME_CONTENT_TYPE})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"]["code"] == "bad_request"
        # the dispatcher never saw the malformed body: still alive and
        # still serving
        stats = client.stats()
        assert stats["service"]["dispatcher_alive"] is True
        Y = client.matmul("grid", np.ones(len(points_2d)))
        assert Y.shape == (len(points_2d),)

    @pytest.mark.parametrize("body, status, code", [
        ({"w": "no-points-id"}, 400, "bad_request"),
        ({"points_id": "ghost", "w": np.ones(2)}, 404, "unknown_points_id"),
        ({"points_id": "grid", "w": np.ones(3)},
         400, "bad_request"),  # wrong row count
        ({"points_id": "grid"}, 400, "bad_request"),  # neither w form
    ])
    def test_matmul_error_codes(self, server, points_2d, body, status,
                                code):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/alice/matmul", *_encoded(body))
        assert (err.value.status, err.value.code) == (status, code)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_non_finite_w_400(self, server, points_2d, bad, chunked):
        """The codec carries NaN and inf; the matmul verb refuses them
        with a typed 400 before anything reaches the dispatcher."""
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        W = np.ones((len(points_2d), 2))
        W[5, 1] = bad
        body = ({"points_id": "grid", "w_chunks": [W[:, :1], W[:, 1:]]}
                if chunked else {"points_id": "grid", "w": W})
        tail = TailWriter()
        doc = {k: ([encode_array(np.ascontiguousarray(c), tail) for c in v]
                   if isinstance(v, list) else
                   encode_array(v, tail) if isinstance(v, np.ndarray) else v)
               for k, v in body.items()}
        with pytest.raises(ServerError, match="finite") as err:
            client._request("POST", "/v1/alice/matmul", doc, tail)
        assert (err.value.status, err.value.code) == (400, "non_finite")
        assert client.stats()["service"]["served"] == 0
        W[5, 1] = 1.0
        assert np.isfinite(client.matmul("grid", W)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_compile_points_400(self, server, points_2d, bad):
        client = _client(server)
        points = np.array(points_2d, dtype=np.float64)
        points[3, 0] = bad
        with pytest.raises(ServerError, match="finite") as err:
            client.compile(points, kernel=KERNEL_DOC, plan=PLAN_DOC,
                           points_id="grid")
        assert (err.value.status, err.value.code) == (400, "non_finite")

    def test_frame_bounds_400(self, server, points_2d):
        """A byte range outside the tail is a 400 over the wire too."""
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        n = len(points_2d)
        doc, tail = _encoded({"points_id": "grid", "w": np.ones(n)})
        doc["w"].update(shape=[n + 1], nbytes=8 * (n + 1))
        with pytest.raises(ServerError, match="outside") as err:
            client._request("POST", "/v1/alice/matmul", doc, tail)
        assert (err.value.status, err.value.code) == (400, "bad_request")

    def test_aliased_chunks_400(self, server, points_2d):
        """One panel in the tail listed many times under w_chunks, every
        copy at offset 0, is a 400 before any chunk reaches submit():
        the server never evaluates more bytes than the body carried."""
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        tail = TailWriter()
        chunk = encode_array(np.ones((len(points_2d), 4)), tail)
        doc = {"points_id": "grid", "w_chunks": [chunk] * 50}
        with pytest.raises(ServerError, match="previous array ends") as err:
            client._request("POST", "/v1/alice/matmul", doc, tail)
        assert (err.value.status, err.value.code) == (400, "bad_request")
        stats = client.stats()["service"]
        assert stats["dispatcher_alive"] is True
        assert stats["served"] == 0

    @pytest.mark.parametrize("verb", ["compile", "matmul"])
    def test_unclaimed_tail_bytes_400(self, server, points_2d, verb):
        """Bytes after the last array a header lists are a 400."""
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        body = {"points": points_2d, "kernel": KERNEL_DOC} \
            if verb == "compile" \
            else {"points_id": "grid", "w": np.ones(len(points_2d))}
        doc, tail = _encoded(body)
        encode_array(np.ones(1), tail)
        with pytest.raises(ServerError, match="arrays end at byte") as err:
            client._request("POST", f"/v1/alice/{verb}", doc, tail)
        assert (err.value.status, err.value.code) == (400, "bad_request")

    def test_client_refuses_reply_with_unclaimed_bytes(self, server,
                                                       points_2d,
                                                       monkeypatch):
        import repro.net.server as server_mod

        parts = server_mod.frame_parts
        monkeypatch.setattr(server_mod, "frame_parts",
                            lambda header, tail: [*parts(header, tail),
                                                  bytes(8)])
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        with pytest.raises(ProtocolError, match="arrays end at byte"):
            client.matmul("grid", np.ones(len(points_2d)))

    def test_element_cap_413_over_the_wire(self, tmp_path, points_2d):
        with KernelServer(tmp_path / "cap", tokens=TOKENS,
                          max_elements=100) as srv:
            with pytest.raises(ServerError) as err:
                _client(srv).compile(points_2d, kernel=KERNEL_DOC)
            assert (err.value.status, err.value.code) == (
                413, "payload_too_large")

    def test_unknown_route_404_and_wrong_method_405(self, server):
        client = _client(server)
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/alice/nothing")
        assert err.value.status == 404
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/alice/matmul")
        assert err.value.status == 405

    def test_oversized_body_413(self, tmp_path, points_2d):
        with KernelServer(tmp_path / "small", tokens=TOKENS,
                          max_body_bytes=1000) as srv:
            with pytest.raises(ServerError) as err:
                _client(srv).compile(points_2d, kernel=KERNEL_DOC)
            assert err.value.status == 413

    def test_metrics_and_health(self, server, points_2d):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        client.matmul("grid", np.ones(len(points_2d)))
        assert client.health() == {"status": "ok"}
        text = client.metrics()
        assert "repro_net_tenants_alice_service_served 1" in text
        assert "repro_net_server_responses_2xx" in text

    def test_metrics_requires_token_when_auth_on(self, server):
        with pytest.raises(ServerError) as err:
            KernelClient(server.url).metrics()
        assert err.value.status == 401
        # health stays anonymous: load balancers carry no tokens
        assert KernelClient(server.url).health() == {"status": "ok"}

    def test_metrics_scoped_to_tenant_token(self, server, points_2d):
        a, b = _client(server), _client(server, "bob", "tok-b")
        a.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC)
        b.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC)
        text = a.metrics()
        assert "repro_net_tenants_alice_" in text
        assert "repro_net_server_responses_2xx" in text
        # bob's name, endpoints, and counters must not leak to alice
        assert "bob" not in text

    def test_metrics_scrape_token_sees_all_tenants(self, tmp_path,
                                                   points_2d):
        with KernelServer(tmp_path / "m", tokens=TOKENS,
                          metrics_token="scrape-tok") as srv:
            _client(srv).compile(points_2d, kernel=KERNEL_DOC,
                                 plan=PLAN_DOC)
            _client(srv, "bob", "tok-b").compile(points_2d,
                                                 kernel=KERNEL_DOC,
                                                 plan=PLAN_DOC)
            text = KernelClient(srv.url, token="scrape-tok").metrics()
            assert "repro_net_tenants_alice_" in text
            assert "repro_net_tenants_bob_" in text
            # the scrape token is not a tenant token: no data-plane access
            with pytest.raises(ServerError) as err:
                KernelClient(srv.url, tenant="alice",
                             token="scrape-tok").stats()
            assert err.value.status == 401

    def test_drain_503_but_observable(self, server, points_2d):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        assert server.drain(timeout=30) is True
        assert client.health() == {"status": "draining"}
        with pytest.raises(ServerError) as err:
            client.matmul("grid", np.ones(len(points_2d)))
        assert (err.value.status, err.value.code) == (503, "draining")
        with pytest.raises(ServerError) as err:
            client.compile(points_2d, kernel=KERNEL_DOC)
        assert err.value.status == 503
        # read-only endpoints keep working so the drain is observable
        assert client.stats()["service"]["draining"] is True
        assert "repro_net_server_draining 1" in client.metrics()

    def test_audit_log_records_requests(self, server, points_2d):
        client = _client(server)
        client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                       points_id="grid")
        client.matmul("grid", np.ones(len(points_2d)))
        with pytest.raises(ServerError):
            _client(server, token="wrong").stats()
        # the audit line lands *after* the response bytes (best-effort
        # log, written in the handler's finally) — poll briefly
        deadline = time.monotonic() + 5.0
        by_verb = {}
        while time.monotonic() < deadline and len(by_verb) < 3:
            lines = [json.loads(line) for line in
                     (server.root / "audit.jsonl").read_text().splitlines()]
            by_verb = {rec["verb"]: rec for rec in lines}
        assert by_verb["compile"]["status"] == 200
        assert by_verb["compile"]["tenant"] == "alice"
        assert by_verb["compile"]["detail"] == "grid"
        assert by_verb["compile"]["bytes_in"] > 0
        assert by_verb["matmul"]["status"] == 200
        assert by_verb["matmul"]["duration_ms"] >= 0
        assert by_verb["stats"]["status"] == 401
        assert by_verb["stats"]["tenant"] is None  # failed auth first


class TestConnectionHygiene:
    """Wire-level behaviour urllib hides: raw sockets, keep-alive."""

    def test_negative_content_length_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/v1/alice/compile")
            conn.putheader("Authorization", "Bearer tok-a")
            conn.putheader("Content-Type", FRAME_CONTENT_TYPE)
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            body = json.loads(resp.read())
            assert body["error"]["code"] == "bad_request"
            assert "non-negative" in body["error"]["message"]
        finally:
            conn.close()

    def test_error_before_body_read_closes_connection(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            # 401 is decided from the headers alone: the body is never
            # read, so HTTP/1.1 keep-alive would leave it on the socket
            # to be parsed as the next request line.
            conn.request("POST", "/v1/alice/matmul", body=b"x" * 64,
                         headers={"Authorization": "Bearer wrong",
                                  "Content-Type": FRAME_CONTENT_TYPE})
            resp = conn.getresponse()
            assert resp.status == 401
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()

    # A 3000 x 512 float64 panel is a 12 MB body, several times what the
    # loopback socket buffers hold: the client is still sending when the
    # server replies from the headers alone.
    def test_early_401_reaches_client_sending_large_body(self, server):
        with pytest.raises(ServerError) as err:
            _client(server, token="wrong").matmul("grid",
                                                  np.ones((3000, 512)))
        assert (err.value.status, err.value.code) == (401,
                                                      "unauthenticated")

    def test_draining_503_reaches_client_sending_large_body(self, server):
        assert server.drain(timeout=30) is True
        with pytest.raises(ServerError) as err:
            _client(server).matmul("grid", np.ones((3000, 512)))
        assert (err.value.status, err.value.code) == (503, "draining")
        assert err.value.retry_after == 1.0

    @pytest.mark.parametrize("content_type", [
        "application/json", None, "text/plain"])
    def test_non_frame_body_415_closes_connection(self, server,
                                                  content_type):
        """Only frames are accepted, decided from the headers — so the
        unread body forces Connection: close."""
        import http.client

        headers = {"Authorization": "Bearer tok-a"}
        if content_type is not None:
            headers["Content-Type"] = content_type
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/alice/matmul",
                         body=json.dumps({"points_id": "grid"}).encode(),
                         headers=headers)
            resp = conn.getresponse()
            assert resp.status == 415
            assert resp.getheader("Connection") == "close"
            body = json.loads(resp.read())
            assert body["error"]["code"] == "unsupported_media_type"
        finally:
            conn.close()

    def test_truncated_body_400(self, server):
        """A body shorter than its Content-Length (the peer closed its
        side early) is a 400, not a half-parsed frame."""
        import socket

        frame = _frame({"points_id": "grid"}, TailWriter())
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(
                b"POST /v1/alice/matmul HTTP/1.1\r\n"
                b"Host: localhost\r\nAuthorization: Bearer tok-a\r\n"
                b"Content-Type: " + FRAME_CONTENT_TYPE.encode() + b"\r\n"
                b"Content-Length: " + str(len(frame) + 100).encode()
                + b"\r\n\r\n" + frame)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "truncated" in json.loads(body)["error"]["message"]

    def test_keep_alive_survives_post_body_errors(self, server, points_2d):
        import http.client

        _client(server).compile(points_2d, kernel=KERNEL_DOC,
                                plan=PLAN_DOC, points_id="grid")
        w = np.ones(len(points_2d))
        headers = {"Authorization": "Bearer tok-a",
                   "Content-Type": FRAME_CONTENT_TYPE}
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            # Requests that fail AFTER their body was consumed — an
            # unknown points_id (404) and a frame whose header length
            # runs past the body (400) — must leave the connection
            # clean for the next request.
            ghost = _frame(*_encoded({"points_id": "ghost", "w": w}))
            past_end = struct.pack("<Q", 10**6) + b"{}"
            for body, status in ((ghost, 404), (past_end, 400)):
                conn.request("POST", "/v1/alice/matmul", body=body,
                             headers=headers)
                resp = conn.getresponse()
                assert resp.status == status
                assert resp.getheader("Connection") != "close"
                resp.read()
            conn.request("POST", "/v1/alice/matmul",
                         body=_frame(*_encoded({"points_id": "grid",
                                                "w": w})),
                         headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Content-Type") == FRAME_CONTENT_TYPE
            out, tail = parse_frame(resp.read())
            assert decode_array(out["y"], tail).shape == (len(points_2d),)
        finally:
            conn.close()

    def test_close_without_start_does_not_deadlock(self, tmp_path):
        import threading

        srv = KernelServer(tmp_path / "never-started", tokens=TOKENS)
        closer = threading.Thread(target=srv.close, daemon=True)
        closer.start()
        closer.join(10.0)
        assert not closer.is_alive()  # shutdown() must not block forever


class TestProtocolVersion:
    def test_client_refuses_protocol_1_server(self, server, points_2d,
                                              monkeypatch):
        """A server reporting version 1 (base64 arrays in JSON) is
        refused on every reply, errors included, before its body is
        read."""
        import repro.net.server as server_mod

        monkeypatch.setattr(server_mod, "PROTOCOL_VERSION", 1)
        client = _client(server)
        for call in (client.health,
                     lambda: client.compile(points_2d, kernel=KERNEL_DOC),
                     _client(server, token="wrong").stats):
            with pytest.raises(ServerError) as err:
                call()
            assert (err.value.status, err.value.code) == (
                0, "protocol_mismatch")
            assert "protocol 1" in str(err.value)


class TestWarmRestart:
    def test_restart_serves_warm_with_zero_inspections(self, tmp_path,
                                                       points_2d,
                                                       reference):
        """The acceptance criterion: restart the server against the same
        tenant store root — the second run must prove zero inspections
        and zero re-tunes, with bit-identical results."""
        root = tmp_path / "root"
        with KernelServer(root, tokens=TOKENS) as srv:
            client = _client(srv)
            info = client.compile(points_2d, kernel=KERNEL_DOC,
                                  plan=PLAN_DOC, points_id="grid")
            assert info["compiled"] is True
            Y_cold = client.matmul("grid", reference["W"])
        # fresh process-equivalent: a brand-new server over the same root
        with KernelServer(root, tokens=TOKENS) as srv:
            client = _client(srv)
            info = client.compile(points_2d, kernel=KERNEL_DOC,
                                  plan=PLAN_DOC, points_id="grid")
            assert info["compiled"] is False  # served from the store
            Y_warm = client.matmul("grid", reference["W"])
            stats = client.stats()
            assert stats["session"]["p1_builds"] == 0
            assert stats["session"]["p2_builds"] == 0
            assert stats["store"]["disk_hits"] >= 1
            assert stats["autotune"].get("tunes", 0) == 0
        np.testing.assert_array_equal(Y_cold, reference["Y"])
        np.testing.assert_array_equal(Y_warm, reference["Y"])

    def test_close_writes_tenant_run_manifest(self, tmp_path, points_2d):
        from repro.observability import validate_run_manifest

        root = tmp_path / "root"
        with KernelServer(root, tokens=TOKENS) as srv:
            client = _client(srv)
            client.compile(points_2d, kernel=KERNEL_DOC, plan=PLAN_DOC,
                           points_id="grid")
            client.matmul("grid", np.ones(len(points_2d)))
        manifests = list(
            (root / "tenants" / "alice" / "store" / "manifests")
            .glob("run-*.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert validate_run_manifest(doc) == []
        assert doc["stats"]["service"]["served"] == 1


class TestCliIntegration:
    def test_stats_tenant_scoping(self, tmp_path, points_2d, capsys):
        from repro.cli import main

        root = tmp_path / "root"
        with KernelServer(root, tokens=TOKENS) as srv:
            _client(srv).compile(points_2d, kernel=KERNEL_DOC,
                                 plan=PLAN_DOC, points_id="grid")
        assert main(["stats", "--store", str(root),
                     "--tenant", "alice"]) == 0
        out = capsys.readouterr().out
        assert "repro_store_entries 2" in out  # p1 + hmatrix artifacts
        assert main(["stats", "--store", str(root), "--tenant", "alice",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tenant"] == "alice"
        assert doc["entries"] == 2
        # unknown tenant: exit 2 and name the known ones
        assert main(["stats", "--store", str(root),
                     "--tenant", "ghost"]) == 2
        assert "alice" in capsys.readouterr().err
