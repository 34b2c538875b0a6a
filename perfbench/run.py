"""MatRox benchmark: one workload, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload highdim|netserve \\
        --seed N --seconds S --trace 0|1

The run makes its inputs from ``--seed``, measures for about ``--seconds``
seconds after ``import repro`` has finished, checks every product against a
reference, and prints each metric by name with its unit. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The exit code is 0 only when every operation
succeeded and every check passed.

``--trace 1`` wraps the program's layers (see tracing.py) before the run
starts. Its end-to-end numbers are printed on a ``traced_end_to_end`` line
and are not results; their difference from an untraced run is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import host_record, percentile, use_checkout_sources

WORKLOADS = ("highdim", "netserve")

#: (name, unit) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s"),
    ("warm_start_s", "s"),
    ("request_p95_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("eval_q512_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print("run.py: no src/repro under the working directory; run it "
              "from the root of a checkout of the program", file=sys.stderr)
        return 2

    import numpy  # noqa: F401 - imports stay outside every timer
    import repro  # noqa: F401

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder("main")
        tracing.install(rec)
    if args.workload == "netserve":
        import netserve as workload
    else:
        import library as workload

    scratch = Path.cwd() / ".bench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workload.run(args.workload, args.seed, args.seconds,
                              workdir, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            scratch.rmdir()

    tally = result["tally"]
    for kind, n in result["samples"].items():
        if n == 0:
            tally.fail(f"no {kind} sample was taken")
    e2e = {name: {"value": result["metrics"][name], "unit": unit}
           for name, unit in END_TO_END}
    print("host " + json.dumps(host_record(), sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    # The candidate tail percentiles, for choosing the reported one.
    print("tails " + json.dumps(
        {f"p{p}_ms": 1e3 * percentile(result["narrow"], p)
         for p in (90, 95, 99)}, sort_keys=True))
    if rec is None:
        metrics = e2e
    else:
        import layers

        spans = layers.Spans(rec.spans, *result.get("server_spans", []))
        values = layers.compute(spans, result["intervals"], result["counts"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.METRICS}
        print("traced_end_to_end " + json.dumps(e2e, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:9s} {'attempted':28s} {tally.attempted:14d}")
    print(f"{args.workload:9s} {'failed':28s} {tally.failed:14d}")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
