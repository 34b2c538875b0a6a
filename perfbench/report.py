"""Every metric of every workload, by name with its unit, in one command.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

For each workload this makes one untraced run (the end-to-end metrics) and
one traced run (the per-layer metrics), each in a fresh process, and
prints:

* the end-to-end metrics, operations attempted and failed;
* the per-layer metrics and the layer with the largest self time in
  set-up;
* the tracing overhead: each end-to-end metric of the traced run against
  the untraced one;
* span coverage: the share of each kind of end-to-end interval that layer
  spans cover, naming every kind covered below 90 %.

The host record (CPUs, BLAS and its thread settings, versions) is printed
once per run; runs with different records are not comparable. The exit
code is 1 when any run fails a correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("highdim", "netserve")
SELF_TIME_LAYERS = ("tree", "htree", "sampling", "analysis", "compression",
                    "kernels", "storage", "codegen", "api.session")
COVERAGE_FLOOR = 0.9


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run printed no result")
    out = {"result": json.loads(lines[-1]), "returncode": proc.returncode}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("host", "samples", "tails", "traced_end_to_end"):
            out[tag] = json.loads(rest)
        elif tag == "failure:":
            out.setdefault("failures", []).append(rest)
    return out


def show(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {workload:9s} {name:28s} {m['value']:14.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    failed = False
    for workload in args.workloads.split(","):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)")
        print(f"  host {json.dumps(plain.get('host'), sort_keys=True)}")
        print(f"  samples {json.dumps(plain.get('samples'))}")
        print(f"  narrow tails {json.dumps(plain.get('tails'))}")
        for label, r in (("untraced", plain), ("traced", traced)):
            res = r["result"]
            print(f"  {label} run: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for reason in r.get("failures", []):
                print(f"    failure: {reason}")
            failed |= not res["correct"] or r["returncode"] != 0
        print("  end-to-end metrics:")
        show(workload, plain["result"]["metrics"])
        print("  per-layer metrics (traced run):")
        layers = traced["result"]["metrics"]
        show(workload, layers)
        largest = max(SELF_TIME_LAYERS,
                      key=lambda layer: layers[f"{layer}.self_s"]["value"])
        print(f"  largest self time in set-up: {largest}.self_s = "
              f"{layers[f'{largest}.self_s']['value']:.4g} s; store writes "
              f"(api.store.put_s, encode included) = "
              f"{layers['api.store.put_s']['value']:.4g} s")
        print("  tracing overhead (traced / untraced - 1):")
        for name, m in traced.get("traced_end_to_end", {}).items():
            base = plain["result"]["metrics"][name]["value"]
            print(f"    {name:20s} {m['value'] / base - 1:+8.1%}")
        print("  span coverage of end-to-end intervals:")
        low = []
        for kind in ("setup", "warm_start", "request", "wide"):
            share = layers[f"trace.{kind}_coverage"]["value"]
            print(f"    {kind:12s} {share:7.1%}")
            if share < COVERAGE_FLOOR:
                low.append(kind)
        print("  covered below 90 %: " + (", ".join(low) or "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
