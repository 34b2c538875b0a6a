"""Vector-clock happens-before checker for sync traces of both tiers.

One model certifies both concurrency tiers. For the *thread* tier it
proves that the locks really order every access to a ``# guarded-by:``
annotated attribute; the input is a sync trace recorded by
:mod:`repro.observability.sync` — lock acquire/release, thread
fork/join, Condition wait cycles, Future set/result, queue put/get, and
``read``/``write`` events for the instrumented guarded attributes. For
the *process* tier it proves that the engine's barrier protocol orders
every shared-array access: :meth:`repro.core.parallel.ProcessEngine.access_trace`
writes the protocol's pipe messages as ``q_put``/``q_get`` events (one
object per pipe direction) and each worker's table entries as
``read``/``write`` events carrying the row interval ``rows: [lo, hi)``
they touch.

Replay is classic vector-clock happens-before (the Djit+ scheme: per
variable, the access epochs of each thread per mode):

* each thread ``t`` owns a clock component; its events advance it;
* ``release(L)`` publishes the releaser's clock into ``L``'s clock
  (join-accumulated: a lock's clock is the union of every critical
  section that left it, which is exactly the mutual-exclusion order);
  ``acquire(L)`` joins it back — so critical sections on one lock are
  pairwise ordered no matter which threads ran them;
* ``fork``/``child`` and ``child_end``/``join`` edges order a thread
  against its creator and its joiner;
* ``fut_set``/``fut_get`` orders a Future's producer before every
  consumer; ``q_put``/``q_get`` conservatively orders all producers of a
  queue before each consumer (over-approximating the per-item edge —
  sound: extra edges can only *hide* races on other variables, never
  invent one, and the dispatcher protocol this certifies drains whole
  batches anyway);
* two accesses to the same ``(obj, attr)`` variable conflict when they
  come from different threads, at least one writes and their rows
  overlap (an access without ``rows`` covers the whole variable); they
  are a violation when neither happens-before the other. A row-carrying
  access keeps every epoch of its thread with its interval, since the
  thread's later accesses to other rows do not cover it; an access
  without rows replaces them all, so a thread-tier thread keeps only its
  last epoch per mode.

An empty report certifies the execution: every guarded access really
was ordered by the synchronisation the annotation names.
:func:`seed_unordered_pair` doctors a clean thread trace by
re-attributing one write to a ghost thread no sync event ever orders,
and :func:`seed_overlap_violation` stretches one worker's write of an
engine trace over another worker's rows in the same barrier phase —
the mutations the checker must flag, proving it is live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.counters import bump_analysis_counter

__all__ = [
    "HBViolation",
    "certify_sync_trace",
    "certify_sync_trace_dir",
    "certify_sync_trace_file",
    "is_engine_trace",
    "seed_overlap_violation",
    "seed_unordered_pair",
]

#: Accepted trace format (must match repro.observability.sync).
SYNC_TRACE_VERSION = 1


@dataclass(frozen=True)
class HBViolation:
    """Two unordered conflicting accesses to one guarded attribute.

    ``rows_a``/``rows_b`` are the ``[lo, hi)`` rows of accesses that
    carry them (engine traces), ``None`` for whole-variable accesses.
    """

    attr: str
    guard: str
    thread_a: str
    mode_a: str
    seq_a: int
    thread_b: str
    mode_b: str
    seq_b: int
    rows_a: tuple[int, int] | None = None
    rows_b: tuple[int, int] | None = None

    def format(self) -> str:
        def rows(span):
            return "" if span is None else f" rows [{span[0]}, {span[1]})"

        return (f"{self.attr} (guarded-by {self.guard}): "
                f"{self.thread_a} {self.mode_a}{rows(self.rows_a)} at seq "
                f"{self.seq_a} and {self.thread_b} {self.mode_b}"
                f"{rows(self.rows_b)} at seq {self.seq_b} are "
                f"unordered (no happens-before path)")


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    for tid, clock in other.items():
        if clock > into.get(tid, 0):
            into[tid] = clock


def certify_sync_trace(trace: dict) -> list[HBViolation]:
    """Every happens-before violation in a sync trace (empty = certified).

    Increments the ``sync_certified``/``sync_flagged`` analysis counters
    so run manifests record what was proven.
    """
    if not isinstance(trace, dict) or \
            trace.get("sync_trace_version") != SYNC_TRACE_VERSION:
        raise ValueError(
            f"not a v{SYNC_TRACE_VERSION} sync trace: "
            f"{type(trace).__name__} with version "
            f"{trace.get('sync_trace_version') if isinstance(trace, dict) else None!r}")
    names = {int(k): v for k, v in trace.get("threads", {}).items()}

    clocks: dict[int, dict[int, int]] = {}       # thread -> vector clock
    lock_vc: dict[int, dict[int, int]] = {}      # lock obj -> published VC
    fut_vc: dict[int, dict[int, int]] = {}       # future obj -> setter VC
    queue_vc: dict[int, dict[int, int]] = {}     # queue obj -> producer VCs
    forks: dict[int, dict[int, int]] = {}        # token -> parent VC
    ends: dict[int, dict[int, int]] = {}         # token -> child-final VC
    # var -> thread -> [(own clock at access, seq, rows)] in program
    # order, one table per mode; rows None covers the whole variable.
    writes: dict[tuple[int, str], dict[int, list]] = {}
    reads: dict[tuple[int, str], dict[int, list]] = {}
    violations: list[HBViolation] = []
    flagged: set[tuple[int, str, int, int]] = set()

    def vc_of(tid: int) -> dict[int, int]:
        vc = clocks.get(tid)
        if vc is None:
            # Every thread starts with its own component at 1 so an
            # access epoch is never the always-ordered 0.
            vc = clocks[tid] = {tid: 1}
        return vc

    def tick(tid: int) -> None:
        vc = vc_of(tid)
        vc[tid] = vc.get(tid, 0) + 1

    def check(var: tuple[int, str], tid: int, mode: str, seq: int,
              guard: str, rows: tuple[int, int] | None) -> None:
        vc = vc_of(tid)
        against = [("write", writes)]
        if mode == "write":
            against.append(("read", reads))
        for other_mode, table in against:
            for other_tid, entries in table.get(var, {}).items():
                if other_tid == tid:
                    continue  # program order
                seen = vc.get(other_tid, 0)
                # Newest first: once one entry is ordered, so are all
                # the thread's earlier ones.
                for clock, other_seq, other_rows in reversed(entries):
                    if clock <= seen:
                        break
                    if not (rows is None or other_rows is None or (
                            other_rows[0] < rows[1]
                            and rows[0] < other_rows[1])):
                        continue  # disjoint rows; None is every row
                    key = (var[0], var[1], other_tid, tid)
                    if key not in flagged:  # one report per (var, thread-pair)
                        flagged.add(key)
                        violations.append(HBViolation(
                            attr=var[1], guard=guard,
                            thread_a=names.get(other_tid, str(other_tid)),
                            mode_a=other_mode, seq_a=other_seq,
                            thread_b=names.get(tid, str(tid)),
                            mode_b=mode, seq_b=seq, rows_a=other_rows,
                            rows_b=rows))
                    break
        own = (writes if mode == "write" else reads).setdefault(var, {})
        entry = (vc.get(tid, 1), seq, rows)
        if rows is None:
            own[tid] = [entry]  # covers every earlier entry
        else:
            own.setdefault(tid, []).append(entry)

    for ev in sorted(trace.get("events", ()), key=lambda e: e["seq"]):
        op, tid = ev["op"], int(ev["thread"])
        if op == "fork":
            forks[ev["token"]] = dict(vc_of(tid))
            tick(tid)
        elif op == "child":
            parent = forks.get(ev["token"])
            if parent:
                _join(vc_of(tid), parent)
            tick(tid)
        elif op == "child_end":
            ends[ev["token"]] = dict(vc_of(tid))
            tick(tid)
        elif op == "join":
            child = ends.get(ev["token"])
            if child:
                _join(vc_of(tid), child)
            tick(tid)
        elif op == "acquire":
            published = lock_vc.get(ev["obj"])
            if published:
                _join(vc_of(tid), published)
        elif op == "release":
            _join(lock_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "fut_set":
            _join(fut_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "fut_get":
            setter = fut_vc.get(ev["obj"])
            if setter:
                _join(vc_of(tid), setter)
        elif op == "q_put":
            _join(queue_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "q_get":
            produced = queue_vc.get(ev["obj"])
            if produced:
                _join(vc_of(tid), produced)
        elif op in ("read", "write"):
            rows = ev.get("rows")
            check((int(ev["obj"]), ev["name"]), tid, op, int(ev["seq"]),
                  ev.get("guard", "?"),
                  None if rows is None else (int(rows[0]), int(rows[1])))
        # "notify" is informational: the edge rides the release after it.

    bump_analysis_counter(
        "sync_flagged" if violations else "sync_certified")
    return violations


def seed_unordered_pair(trace: dict) -> dict:
    """A doctored copy of a clean trace with one guaranteed-unordered
    conflicting write pair.

    Picks a guarded attribute with at least two accesses (one a write)
    and re-attributes the *last* access to a ghost thread that appears
    in no sync event — no fork, no lock, nothing orders it, so the
    checker must flag the pair. Raises ``ValueError`` when the trace has
    no guarded write to use as a victim.
    """
    doctored = json.loads(json.dumps(trace))
    events = doctored.get("events", [])
    by_var: dict[tuple[int, str], list[int]] = {}
    for idx, ev in enumerate(events):
        if ev["op"] in ("read", "write"):
            by_var.setdefault((int(ev["obj"]), ev["name"]), []).append(idx)
    for indices in by_var.values():
        if len(indices) < 2:
            continue
        if not any(events[i]["op"] == "write" for i in indices):
            continue
        victim = events[indices[-1]]
        # If every prior access is a read, the ghost must write; a ghost
        # write conflicts with reads and writes alike.
        victim["op"] = "write"
        victim["thread"] = 999999999
        doctored.setdefault("threads", {})["999999999"] = "ghost"
        return doctored
    raise ValueError(
        "trace has no guarded attribute with a write and a second "
        "access; record a workload that touches guarded state")


def seed_overlap_violation(trace: dict) -> dict:
    """A doctored copy of a clean engine trace with two workers' writes
    overlapped.

    Finds two row-carrying writes to one array in one barrier phase (the
    same ``guard``) by different threads — unordered, and disjoint only
    by construction — and stretches the later one over the earlier one's
    rows: the single-writer violation the checker must flag. Raises
    ``ValueError`` when no phase has two writers of one array (e.g. a
    one-worker engine): the mutation needs a victim.
    """
    doctored = json.loads(json.dumps(trace))
    first: dict[tuple, dict] = {}
    for ev in doctored.get("events", ()):
        if ev["op"] != "write" or "rows" not in ev:
            continue
        prior = first.setdefault((ev["obj"], ev.get("guard")), ev)
        if prior["thread"] != ev["thread"]:
            ev["rows"] = list(prior["rows"])
            return doctored
    raise ValueError(
        "trace has no phase with two distinct writers; run the engine "
        "with >= 2 workers to seed an overlap")


def is_engine_trace(trace: dict) -> bool:
    """Whether ``trace`` records a process engine's barrier protocol:
    its shared-array accesses carry ``rows``, a thread trace's never do."""
    return any("rows" in ev for ev in trace.get("events", ()))


def certify_sync_trace_file(path) -> list[HBViolation]:
    """Load + certify one serialized sync trace."""
    from repro.observability.sync import load_sync_trace

    return certify_sync_trace(load_sync_trace(path))


def certify_sync_trace_dir(directory) -> dict[str, list[HBViolation]]:
    """Certify every ``*.synctrace.json`` under ``directory``.

    Raises ``FileNotFoundError`` when no traces are found: a replay gate
    pointed at an empty directory must fail loudly, not vacuously
    certify.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.synctrace.json"))
    if not paths:
        raise FileNotFoundError(f"no sync traces under {directory}")
    return {p.name: certify_sync_trace_file(p) for p in paths}
