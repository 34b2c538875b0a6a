"""Launch a KernelServer for the netserve workload in its own process.

Usage: ``python3 perfbench/server_proc.py --root DIR --tenants a,b
[--spans FILE]`` from the root of a checkout. The server runs with its
default settings (max_batch 8, max_wait 2 ms, audit log on) and token auth,
one token ``tok-<tenant>`` per tenant. The process prints ``{"port": P}``
once it listens, serves until its standard input closes, then prints one
JSON line with its counters and peak RSS and exits. With ``--spans`` the
layer wrappers are installed before the server starts and the spans are
written to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import peak_rss_mb, use_checkout_sources


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--tenants", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if not use_checkout_sources():
        print("server_proc: no src/repro in the working directory",
              file=sys.stderr)
        return 2
    from repro.net import KernelServer

    rec = None
    if args.spans:
        import tracing

        rec = tracing.Recorder("server")
        tracing.install(rec)
    tenants = args.tenants.split(",")
    server = KernelServer(args.root, tokens={f"tok-{t}": t for t in tenants})
    server.start()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.read()
    stats = server.stats()
    server.close()
    if rec is not None:
        rec.dump(args.spans)
    print(json.dumps({"stats": stats, "peak_rss_mb": peak_rss_mb()},
                     default=str),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
