"""Network-facing multi-tenant kernel serving (DESIGN.md §11).

The step from "fast library" to "service": :class:`KernelServer` puts an
HTTP wire protocol (binary array frames, JSON documents) in front of the
compile-once/serve-forever stack (PlanStore + KernelService +
autotuner), with per-tenant
namespaces — isolated store roots, token auth, sliding-window quotas —
a JSONL request-audit log, and graceful drain/shutdown. Stdlib only.

* :mod:`repro.net.protocol` — frame/array/error encoding, untrusted-input
  validation (:class:`ProtocolError` → 400/413);
* :mod:`repro.net.auth` — constant-time bearer-token → tenant mapping;
* :mod:`repro.net.tenants` — tenant registry, store isolation, quotas;
* :mod:`repro.net.server` — the HTTP front-end (``repro server``);
* :mod:`repro.net.client` — the stdlib client (``repro client``).
"""

from repro.net.auth import AuthError, TokenAuthenticator, load_token_table
from repro.net.client import KernelClient, ServerError
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    TailReader,
    TailWriter,
    decode_array,
    encode_array,
)
from repro.net.server import AuditLog, KernelServer
from repro.net.tenants import (
    QuotaExceeded,
    Tenant,
    TenantQuota,
    TenantRegistry,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AuditLog",
    "AuthError",
    "KernelClient",
    "KernelServer",
    "ProtocolError",
    "QuotaExceeded",
    "ServerError",
    "TailReader",
    "TailWriter",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TokenAuthenticator",
    "decode_array",
    "encode_array",
    "load_token_table",
]
