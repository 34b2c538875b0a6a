"""Validate benchmark result JSONs — the bench-smoke CI gate.

Usage::

    python benchmarks/validate_results.py [stem ...]

Checks every ``benchmarks/results/*.json`` (or just the named stems,
which must then exist): the file parses, holds at least one numeric
value, and no number is NaN, infinite, or denormal (a denormal timing or
speedup means a measurement collapsed to garbage rather than failing
loudly). Exits non-zero with one line per problem.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def _load_manifest_validator():
    """The repro schema validator, importable with or without an
    installed package (CI runs this file directly, without PYTHONPATH)."""
    try:
        from repro.observability import validate_run_manifest
    except ImportError:
        sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
        from repro.observability import validate_run_manifest
    return validate_run_manifest


def iter_numbers(obj, path="$"):
    """Yield (json-path, value) for every number in a parsed JSON tree."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield path, float(obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from iter_numbers(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from iter_numbers(value, f"{path}[{i}]")


def check_file(path: Path) -> list[str]:
    problems = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable/invalid JSON ({exc})"]
    numbers = list(iter_numbers(payload))
    if not numbers:
        problems.append(f"{path.name}: contains no numeric results")
    for jpath, x in numbers:
        if math.isnan(x) or math.isinf(x):
            problems.append(f"{path.name}: non-finite value at {jpath}: {x}")
        elif x != 0.0 and abs(x) < sys.float_info.min:
            problems.append(f"{path.name}: denormal value at {jpath}: {x!r}")
    # Semantic gate for the backend-sweep artifact: a result recorded on
    # real multi-core hardware must not ship a process backend that lost
    # to the thread backend — that would mean the >=1.5x tentpole claim
    # is being evidenced by a regression. (1-CPU results are exempt: no
    # parallel speedup is physically possible there, and the JSON's
    # cpu_count field says so.)
    if path.name == "fig7_backend_sweep.json" and isinstance(payload, dict):
        cpus = payload.get("cpu_count") or 0
        ratios = payload.get("process_speedup_vs_thread") or {}
        if cpus >= 4 and ratios:
            workers, best = max(ratios.items(), key=lambda kv: int(kv[0]))
            if best < 1.0:
                problems.append(
                    f"{path.name}: process backend slower than thread "
                    f"({best:.2f}x at {workers} workers) despite "
                    f"cpu_count={cpus}"
                )
    # Semantic gate for the serving artifact: compile-once/serve-forever
    # means a warm start must beat a cold start outright, and the
    # micro-batched KernelService must clear the tentpole's >= 1.5x
    # throughput bar at batch size >= 4. Both are algorithmic wins
    # (skip-the-inspection, amortize-the-engine), not core-count wins,
    # so they are enforced even on 1-CPU quick-mode runs.
    if path.name == "serving.json" and isinstance(payload, dict):
        cold_over_warm = payload.get("cold_over_warm")
        if cold_over_warm is None:
            problems.append(f"{path.name}: missing cold_over_warm field")
        elif cold_over_warm <= 1.0:
            problems.append(
                f"{path.name}: warm start did not beat cold start "
                f"({cold_over_warm:.2f}x)")
        best = payload.get("batched_speedup_max")
        if best is None:
            problems.append(
                f"{path.name}: missing batched_speedup_max field")
        elif best < 1.5:
            problems.append(
                f"{path.name}: micro-batched throughput only {best:.2f}x "
                f"sequential (tentpole gate is >= 1.5x at batch >= 4)")
    # Semantic gates for the autotuner artifact (ISSUE 5): (a) auto must
    # never be >10% slower than the best fixed policy on any swept
    # shape; (b) auto must beat DEFAULT_POLICY outright on >= 1 shape —
    # unless it (correctly) chose the default everywhere, in which case
    # there is nothing to beat; (c) PlanStore-persisted profiles must
    # warm-start with zero re-tunes. All three are algorithmic claims
    # (the tuner picks among the same measured candidates), so they are
    # enforced on the committed artifact unconditionally.
    if path.name == "autotune.json" and isinstance(payload, dict):
        ratio = payload.get("auto_over_best_fixed_max")
        if ratio is None:
            problems.append(
                f"{path.name}: missing auto_over_best_fixed_max field")
        elif ratio > 1.10:
            problems.append(
                f"{path.name}: auto policy is {ratio:.2f}x the best fixed "
                f"policy (gate: within 10%)")
        beats = payload.get("auto_beats_default_shapes")
        if beats is None:
            problems.append(
                f"{path.name}: missing auto_beats_default_shapes field")
        elif not beats and not payload.get("auto_always_default"):
            problems.append(
                f"{path.name}: auto never beat DEFAULT_POLICY yet did not "
                f"simply choose it — the tuner picked losers")
        retunes = payload.get("warm_retunes")
        if retunes is None:
            problems.append(f"{path.name}: missing warm_retunes field")
        elif retunes != 0:
            problems.append(
                f"{path.name}: {retunes} re-tune(s) after a PlanStore "
                f"reopen (gate: warm start re-tunes nothing)")
    # Semantic gate for the headline batched artifact: it carries the
    # dense K @ W reference (same N and Q) that reads the batched
    # product's flop rate against the host's GEMM.
    if path.name == "headline_batched.json" and isinstance(payload, dict):
        for field in ("dense_s", "gflops_share"):
            value = payload.get(field)
            if not isinstance(value, (int, float)) or isinstance(
                    value, bool) or not math.isfinite(value) or value <= 0:
                problems.append(
                    f"{path.name}: needs a finite, positive {field}, "
                    f"got {value!r}")
    # Semantic gates for the network-serving artifact (repro.net): the
    # HTTP front-end must not drop requests under concurrent mixed-tenant
    # load (auth/quota/audit are per-request code paths — one failure
    # means one of them broke), a warm server restart must serve from the
    # per-tenant PlanStore roots with zero inspections and zero re-tunes,
    # and the recorded p99 must be bounded — a multi-second tail for
    # small panels means the dispatcher or a front-end lock stalled.
    if path.name == "netserve.json" and isinstance(payload, dict):
        load = payload.get("load") or {}
        failed = load.get("failed_requests")
        if failed is None:
            problems.append(
                f"{path.name}: missing load.failed_requests field")
        elif failed != 0:
            problems.append(
                f"{path.name}: {failed} failed request(s) under load "
                f"(gate: zero)")
        p99 = load.get("p99_ms")
        if p99 is None:
            problems.append(f"{path.name}: missing load.p99_ms field")
        elif not (0.0 < p99 < 30_000.0):
            problems.append(
                f"{path.name}: p99 of {p99:.0f} ms is outside the sane "
                f"band (gate: 0 < p99 < 30000 ms)")
        wide = payload.get("wide") or {}
        failed = wide.get("failed_requests")
        if failed is None:
            problems.append(
                f"{path.name}: missing wide.failed_requests field")
        elif failed != 0:
            problems.append(
                f"{path.name}: {failed} wide request(s) failed or were "
                f"not bit-identical (gate: zero)")
        p50 = wide.get("p50_ms")
        if not isinstance(p50, (int, float)) or not 0.0 < p50 < math.inf:
            problems.append(
                f"{path.name}: wide.p50_ms is {p50!r} (gate: a finite, "
                f"positive latency)")
        for field in ("warm_inspections", "warm_retunes"):
            value = payload.get(field)
            if value is None:
                problems.append(f"{path.name}: missing {field} field")
            elif value != 0:
                problems.append(
                    f"{path.name}: {field}={value} after a server restart "
                    f"(gate: warm tenants rebuild nothing)")
    # Semantic gates for the static-analysis artifact (`repro analyze
    # --json`): the shipped tree must carry zero unwaived findings, and
    # every waiver must state its reason (an unexplained waiver is just
    # a suppressed bug).
    if path.name == "analysis_findings.json" and isinstance(payload, dict):
        unwaived = payload.get("unwaived")
        if unwaived is None:
            problems.append(f"{path.name}: missing unwaived field")
        elif unwaived != 0:
            problems.append(
                f"{path.name}: {unwaived} unwaived finding(s) "
                f"(gate: the shipped tree lints clean)")
        for f in payload.get("findings", []):
            if f.get("waived") and not f.get("waiver_reason"):
                problems.append(
                    f"{path.name}: waiver without a reason at "
                    f"{f.get('path')}:{f.get('line')}")
        # The concurrency certifier (DESIGN.md §14): the lock-acquisition
        # graph must be acyclic, the happens-before replay must certify
        # at least one process-engine trace and at least one thread-tier
        # trace, violation-free, and the schedule explorer must have
        # exercised real interleaving diversity without a single failing
        # schedule.
        lock_order = payload.get("lock_order")
        if lock_order is not None:
            if lock_order.get("unwaived_cycles", 0) != 0:
                problems.append(
                    f"{path.name}: {lock_order['unwaived_cycles']} unwaived "
                    f"lock-order cycle(s) (gate: the graph is acyclic)")
            if not lock_order.get("locks"):
                problems.append(
                    f"{path.name}: lock-order analysis resolved no locks "
                    f"(gate: the analysis must actually analyze)")
        sync = payload.get("sync")
        if sync is not None:
            for kind in ("engine", "thread"):
                if sync.get(f"{kind}_traces", 0) < 1:
                    problems.append(
                        f"{path.name}: happens-before replay certified no "
                        f"{kind} traces (gate: the replay must actually "
                        f"replay both tiers)")
            if sync.get("violations", 0) != 0:
                problems.append(
                    f"{path.name}: {sync['violations']} happens-before "
                    f"violation(s) in replayed sync traces (gate: zero)")
        schedules = payload.get("schedules")
        if schedules is not None:
            if schedules.get("inequivalent", 0) < 20:
                problems.append(
                    f"{path.name}: only {schedules.get('inequivalent', 0)} "
                    f"inequivalent schedule(s) explored (gate: >= 20)")
            if schedules.get("failures", 0) != 0:
                problems.append(
                    f"{path.name}: {schedules['failures']} failed "
                    f"schedule(s) under exploration (gate: zero)")
    # The serve-smoke run manifest must conform to the checked-in JSON
    # schema — an observability artifact nobody can parse is no
    # observability at all — and must prove the run actually served.
    if path.name == "run_manifest.json" and isinstance(payload, dict):
        for problem in _load_manifest_validator()(payload):
            problems.append(f"{path.name}: schema violation: {problem}")
        served = (payload.get("stats", {}).get("service", {})
                  .get("served", 0))
        if not problems and served < 1:
            problems.append(
                f"{path.name}: manifest records no served requests")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        files = []
        problems = []
        for stem in argv:
            path = RESULTS_DIR / f"{stem}.json"
            if not path.exists():
                problems.append(f"{path.name}: required result is missing")
            else:
                files.append(path)
    else:
        problems = []
        files = sorted(RESULTS_DIR.glob("*.json"))
        if not files:
            problems.append(f"no result JSONs found under {RESULTS_DIR}")
    for path in files:
        problems.extend(check_file(path))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    if not problems:
        print(f"ok: {len(files)} result file(s) valid")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
