"""Wire protocol for the network-facing kernel server (DESIGN.md §11).

HTTP/1.1 with two body types, stdlib-parseable from any language:

* **frames** (``Content-Type: application/x-repro-frame``) carry every
  POST body and every ``matmul`` response. A frame is

  1. the header length, 8 bytes, little-endian unsigned;
  2. the header, a UTF-8 JSON object: the request or response document,
     in which each array is ``{"shape": [...], "dtype": "float64",
     "offset": o, "nbytes": n}``;
  3. the tail: the arrays' raw little-endian C-order buffers, back to
     back in the order the header lists them, array ``k`` at bytes
     ``[o, o + n)`` of the tail.

  Each array starts where the previous one ends (the first at 0) and
  the last ends where the tail does, so no two arrays share a byte and
  together they hold exactly the tail. Floats cross the wire bit-exact
  as the raw bytes of their buffers, and the receiver views each array
  in place (:func:`decode_array` copies nothing). Writers pad the
  header with spaces so the tail starts 8-byte aligned;
* **JSON** (``application/json``) for every GET response, the
  ``compile`` response and every error body, which is
  ``{"error": {"code": "<machine-readable>", "message": "<human>"}}``
  with the HTTP status carrying the class (400 malformed, 401/403 auth,
  404 unknown, 413 too large, 415 not a frame, 429 over quota,
  503 draining).

:func:`parse_frame` and :func:`decode_array` validate every length,
offset, shape and dtype against the body before any byte is viewed, and
:meth:`TailReader.finish` checks that the arrays used the whole tail; a
frame that lies is a :class:`ProtocolError` (400, or 413 for an array
over the element cap), never another exception.

Multi-RHS requests may ship the panel as ``w_chunks`` — a list of
column-chunk arrays with equal row counts. The server submits each chunk
to the :class:`~repro.api.service.KernelService` dispatcher *separately*,
so chunks of one request micro-batch with other tenants' traffic into
stacked GEMMs, and the chunked results concatenate to a single-panel
evaluation up to rounding: BLAS may pick another GEMM kernel for another
width, so the bits match only for GEMMs of the same widths.

:func:`plan_from_doc` / :func:`kernel_from_doc` are the only paths from
untrusted JSON into :class:`~repro.api.plan.PlanConfig` / kernel
construction: unknown keys and non-finite numbers are rejected here with
:class:`ProtocolError` (→ 400) before they can reach the dispatcher.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.api.plan import PlanConfig
    from repro.kernels.base import Kernel

__all__ = [
    "FRAME_CONTENT_TYPE",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TailReader",
    "TailWriter",
    "decode_array",
    "encode_array",
    "error_doc",
    "frame_parts",
    "kernel_from_doc",
    "parse_frame",
    "plan_from_doc",
]

#: Version of the wire protocol; served in every response header
#: (``X-Repro-Protocol``) and checked by the client. Version 2 moved
#: arrays out of the JSON text into frames.
PROTOCOL_VERSION = 2

#: Media type of a frame (module docstring).
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: The frame's header-length prefix: one little-endian uint64.
_PREFIX = struct.Struct("<Q")

#: Largest byte count numpy can address; an array's extents other than
#: zero, times its itemsize, must stay within it even when it is empty.
_MAX_NBYTES = int(np.iinfo(np.intp).max)

#: dtypes allowed on the wire (everything is evaluated in float64; the
#: whitelist exists so a request cannot smuggle object/void dtypes).
_WIRE_DTYPES = ("float64", "float32")

#: PlanConfig keys a compile request may set (mirrors the CLI's dataset
#: spec: the inspector knobs plus the partition pin ``p``).
PLAN_KEYS = ("structure", "tau", "budget", "bacc", "leaf_size", "max_rank",
             "sampling_size", "tree_method", "seed", "p")

#: Kernels constructible from the wire, with their accepted parameters.
KERNEL_KEYS = {"name", "bandwidth"}
_BANDWIDTH_KERNELS = ("gaussian", "laplace", "matern32")


class ProtocolError(ValueError):
    """A malformed or oversized wire payload.

    ``status`` is the HTTP status the server answers with (400 unless
    the payload was well-formed but too large, then 413); ``code`` is the
    machine-readable error token placed in the response body.
    """

    def __init__(self, message: str, *, status: int = 400,
                 code: str = "bad_request") -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)


class TailWriter:
    """The tail of a frame being written: array buffers back to back.

    ``nbytes`` is their total so far, which is where the next array
    :func:`encode_array` appends starts.
    """

    __slots__ = ("buffers", "nbytes")

    def __init__(self) -> None:
        self.buffers: list[memoryview] = []
        self.nbytes = 0


class TailReader:
    """The tail of a received frame, read one array at a time in the
    order the header lists them.

    ``end`` is where the last array :func:`decode_array` read ends, and
    so the only offset the next array may have.
    """

    __slots__ = ("view", "end")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.end = 0

    def finish(self) -> None:
        """Check that the arrays read so far fill the tail exactly."""
        if self.end != self.view.nbytes:
            raise ProtocolError(
                f"frame tail holds {self.view.nbytes} bytes but its arrays "
                f"end at byte {self.end}")


def encode_array(arr: Any, tail: TailWriter) -> dict[str, Any]:
    """Header document for ``arr``, whose bytes are appended to ``tail``.

    A C-contiguous little-endian array is appended as a view, anything
    else is copied once into that layout.
    """
    arr = np.asarray(arr)
    if arr.dtype.name not in _WIRE_DTYPES:
        arr = arr.astype(np.float64)
    # Little-endian C-order is the wire byte order regardless of host.
    buf = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    view = memoryview(buf.reshape(-1).view(np.uint8))
    doc = {"shape": list(arr.shape), "dtype": arr.dtype.name,
           "offset": tail.nbytes, "nbytes": view.nbytes}
    tail.buffers.append(view)
    tail.nbytes += view.nbytes
    return doc


def frame_parts(header: bytes,
                tail: TailWriter) -> list[bytes | memoryview]:
    """The buffers of one frame, in wire order, from its JSON header
    bytes and the tail :func:`encode_array` filled.

    The header is padded with spaces (JSON whitespace) so the tail, and
    with it every float64 array, starts 8-byte aligned.
    """
    header += b" " * (-(_PREFIX.size + len(header)) % 8)
    return [_PREFIX.pack(len(header)) + header, *tail.buffers]


def parse_frame(body: bytes | bytearray | memoryview,
                loads: Callable[[bytes], Any] = json.loads,
                ) -> tuple[dict[str, Any], TailReader]:
    """``(header document, tail)`` of a frame (the untrusted direction).

    ``loads`` parses the header's JSON text. The tail is a view of
    ``body``; nothing is copied but the header.
    """
    view = memoryview(body).cast("B")
    if view.nbytes < _PREFIX.size:
        raise ProtocolError(f"frame of {view.nbytes} bytes is shorter than "
                            f"its {_PREFIX.size}-byte header length")
    (length,) = _PREFIX.unpack_from(view)
    end = _PREFIX.size + length
    if end > view.nbytes:
        raise ProtocolError(f"frame header length {length} runs past the "
                            f"{view.nbytes}-byte body")
    try:
        doc = loads(bytes(view[_PREFIX.size:end]))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is
        # an integer literal past the interpreter's digit limit.
        raise ProtocolError(f"frame header is not valid JSON "
                            f"({type(exc).__name__})") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"frame header must be a JSON object, got "
                            f"{type(doc).__name__}")
    return doc, TailReader(view[end:])


def _is_count(value: object) -> bool:
    """A non-negative JSON integer (``true``/``false`` are not counts)."""
    return type(value) is int and value >= 0


def decode_array(doc: object, tail: TailReader, *,
                 max_elements: int | None = None,
                 field: str = "array") -> np.ndarray[Any, np.dtype[Any]]:
    """Validate an array document and view its bytes, the next ones in
    ``tail``.

    Checks structure, the dtype whitelist, an optional element cap (413,
    decided from the declared shape), that the array starts where the
    previous one ended, and that it holds exactly the declared shape
    inside the tail; then ``tail.end`` moves past it. The result shares
    memory with the tail on little-endian hosts. Non-finite values are
    allowed — they are data, not protocol — but shape, dtype and range
    lies are not.
    """
    if not isinstance(doc, dict):
        raise ProtocolError(f"{field} must be an object with shape/dtype/"
                            f"offset/nbytes, got {type(doc).__name__}")
    shape = doc.get("shape")
    dtype = doc.get("dtype", "float64")
    offset = doc.get("offset")
    nbytes = doc.get("nbytes")
    if not isinstance(shape, list) or not shape \
            or not all(_is_count(s) for s in shape):
        raise ProtocolError(f"{field}.shape must be a non-empty list of "
                            f"non-negative integers, got {shape!r}")
    if dtype not in _WIRE_DTYPES:
        raise ProtocolError(f"{field}.dtype must be one of {_WIRE_DTYPES}, "
                            f"got {dtype!r}")
    if not _is_count(offset) or not _is_count(nbytes):
        raise ProtocolError(f"{field}.offset and {field}.nbytes must be "
                            f"non-negative integers, got {offset!r} and "
                            f"{nbytes!r}")
    wire = np.dtype(dtype).newbyteorder("<")
    # Multiply the extents other than zero one at a time, stopping past
    # what numpy can address: a header may list many huge extents, and
    # their full product costs time quadratic in their number.
    limit = _MAX_NBYTES // wire.itemsize
    count = 1
    for extent in shape:
        count *= extent or 1
        if count > limit:
            break
    n_elements = 0 if 0 in shape else count
    if max_elements is not None and n_elements > max_elements:
        raise ProtocolError(
            f"{field} declares more than the server limit of "
            f"{max_elements} elements", status=413, code="payload_too_large")
    if count > limit:
        raise ProtocolError(f"{field}.shape spans more than the {limit} "
                            f"{dtype} elements an array can address")
    need = n_elements * wire.itemsize
    if nbytes != need:
        raise ProtocolError(
            f"{field} holds {nbytes} bytes but shape {shape} with dtype "
            f"{dtype} needs {need}")
    if offset != tail.end:
        raise ProtocolError(
            f"{field} starts at byte {offset} of the frame tail, not at "
            f"byte {tail.end} where the previous array ends")
    if need > tail.view.nbytes - offset:
        raise ProtocolError(
            f"{field} byte range [{offset}, +{need}) lies outside the "
            f"{tail.view.nbytes}-byte frame tail")
    arr = np.frombuffer(tail.view, dtype=wire, count=n_elements,
                        offset=offset)
    tail.end = offset + need
    if not wire.isnative:
        arr = arr.astype(wire.newbyteorder("="))
    return arr.reshape(shape)


def error_doc(code: str, message: str) -> dict[str, dict[str, str]]:
    """The canonical error body (see module docstring)."""
    return {"error": {"code": str(code), "message": str(message)}}


def _check_finite(value: object, field: str) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        raise ProtocolError(f"{field} must be finite, got {value!r}")
    return value


def plan_from_doc(doc: object) -> "PlanConfig":
    """Untrusted plan document → validated :class:`PlanConfig`.

    ``None``/``{}`` mean "server defaults". Unknown keys are a protocol
    error (a typoed knob must not silently compile a different plan —
    the fingerprint would never match the client's expectation again).
    """
    from repro.api.plan import PlanConfig

    if doc is None:
        return PlanConfig()
    if not isinstance(doc, dict):
        raise ProtocolError(f"plan must be an object, got "
                            f"{type(doc).__name__}")
    unknown = sorted(set(doc) - set(PLAN_KEYS))
    if unknown:
        raise ProtocolError(f"plan has unknown key(s) {unknown}; valid "
                            f"keys: {sorted(PLAN_KEYS)}")
    for key, value in doc.items():
        _check_finite(value, f"plan.{key}")
    try:
        return PlanConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid plan: {exc}") from exc


def kernel_from_doc(doc: object) -> "Kernel":
    """Untrusted kernel document (or name string) → kernel instance."""
    from repro.kernels.base import get_kernel

    if doc is None:
        doc = {"name": "gaussian"}
    if isinstance(doc, str):
        doc = {"name": doc}
    if not isinstance(doc, dict):
        raise ProtocolError(f"kernel must be a name or an object, got "
                            f"{type(doc).__name__}")
    unknown = sorted(set(doc) - KERNEL_KEYS)
    if unknown:
        raise ProtocolError(f"kernel has unknown key(s) {unknown}; valid "
                            f"keys: {sorted(KERNEL_KEYS)}")
    name = doc.get("name", "gaussian")
    if not isinstance(name, str):
        raise ProtocolError("kernel.name must be a string")
    bandwidth = _check_finite(doc.get("bandwidth", 5.0), "kernel.bandwidth")
    if not isinstance(bandwidth, (int, float)) or bandwidth <= 0:
        raise ProtocolError(f"kernel.bandwidth must be a positive number, "
                            f"got {bandwidth!r}")
    try:
        if name in _BANDWIDTH_KERNELS:
            return get_kernel(name, bandwidth=float(bandwidth))
        return get_kernel(name)
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"unknown kernel {name!r}") from exc
