"""Shared-memory race certifier for the process-parallel engine.

The :class:`~repro.core.parallel.ProcessEngine` is safe because of one
invariant — *every Y/T/S row slice has exactly one writer per barrier
phase* — enforced by construction (shards take whole near super-rows
and whole far output nodes; leaves are disjoint). Tests sample that
invariant; this module **certifies** it per engine instance, in the
CSST style (partial-order analysis of a concurrent execution's trace):

1. *Recording*: :func:`trace_from_tables` turns the table entries each
   worker runs (its share of the batched program's tables) into an
   access trace — for every worker and every barrier phase, the (array,
   row-interval, read/write) accesses it will perform. The trace is
   exact, not sampled: workers run precisely those entries, every call,
   so the static per-shard trace covers every dynamic execution of that
   engine.
2. *Happens-before*: the 3-phase barrier protocol totally orders the
   master's steps against the workers' phases::

       setup(0) < phase1(1) < master_up(2) < phase2(3)
                < master_down(4) < phase3(5) < readout(6)

   Two accesses are ordered iff their steps differ, or they belong to
   the same actor (program order). The only *unordered* pairs are two
   different actors inside the same barrier phase.
3. *Certification*: :func:`certify_trace` reports every unordered pair
   of accesses to the same array with overlapping row intervals where
   at least one side writes. An empty report is a proof (over the
   happens-before model) that the engine run was race-free; each
   violation pinpoints the phase, the actors, and the overlapping rows.

Traces serialize to JSON (:func:`save_trace`/:func:`load_trace`); the
engine dumps one per run when ``MATROX_TRACE_DIR`` is set, and the CI
``analyze`` job replays the chaos/equivalence suites' traces through
``repro analyze --races``. :func:`seed_overlap_violation` doctors a
clean trace by overlapping two panels — the mutation the certifier must
flag, proving the checker itself is live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.counters import bump_analysis_counter

__all__ = [
    "TRACE_VERSION",
    "RaceViolation",
    "certify_trace",
    "certify_trace_dir",
    "certify_trace_file",
    "load_trace",
    "save_trace",
    "seed_overlap_violation",
    "trace_from_tables",
]

#: Format version of the serialized trace document.
TRACE_VERSION = 1

#: Barrier-step order (see module docstring). Worker phases sit at the
#: odd steps; the master's strictly-ordered work sits at the even ones.
STEP_PHASES = {
    0: "setup",
    1: "near_and_leaf_up",
    2: "master_up",
    3: "far",
    4: "master_down",
    5: "leaf_down",
    6: "readout",
}


@dataclass(frozen=True)
class RaceViolation:
    """Two unordered accesses, same array, overlapping rows, >= 1 write."""

    array: str
    step: int
    phase: str
    actor_a: str
    mode_a: str
    rows_a: tuple[int, int]
    actor_b: str
    mode_b: str
    rows_b: tuple[int, int]

    def format(self) -> str:
        return (f"{self.array} rows "
                f"[{max(self.rows_a[0], self.rows_b[0])}, "
                f"{min(self.rows_a[1], self.rows_b[1])}) in phase "
                f"{self.phase!r}: {self.actor_a} {self.mode_a}s "
                f"{list(self.rows_a)} while {self.actor_b} {self.mode_b}s "
                f"{list(self.rows_b)} (unordered)")


def _access(actor: str, step: int, array: str, mode: str,
            start: int, stop: int):
    return (actor, step, array, mode, int(start), int(stop))


def _row_runs(rows) -> list[tuple[int, int]]:
    """The rows of an index array as maximal ``[lo, hi)`` intervals."""
    rows = np.unique(np.asarray(rows))
    if not rows.size:
        return []
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    return [(int(run[0]), int(run[-1]) + 1) for run in np.split(rows, cuts)]


def trace_from_tables(shards, *, n: int, rank_rows: int, num_workers: int,
                      calls: int = 0, chunks: int = 0) -> dict:
    """Build the access trace of an engine from its workers' tables.

    ``shards[w]`` is the :class:`~repro.codegen.emit.BatchedTables`
    worker ``w`` runs. A near super-row is one panel: a wide product
    writes all its rows with one GEMM, so its Y write is the panel's
    whole row range, and it reads the W rows of its gather runs. A tree
    bucket reads its gather rows and writes its own skeleton rows of T
    upward (phase 1), and the transpose downward (phase 3); a coupling
    stack writes its output rows of S and reads its operand rows of T
    (phase 2). The master's interior-level work is recorded coarsely
    (whole-array intervals at its own steps) — the barriers totally
    order it against every worker, so coarseness can never mask a race,
    only document the model.
    """
    accesses: set[tuple] = set()
    accesses.add(_access("master", 0, "W", "write", 0, n))
    accesses.add(_access("master", 0, "Y", "write", 0, n))
    accesses.add(_access("master", 0, "S", "write", 0, rank_rows))
    accesses.add(_access("master", 2, "T", "read", 0, rank_rows))
    accesses.add(_access("master", 2, "T", "write", 0, rank_rows))
    accesses.add(_access("master", 4, "S", "read", 0, rank_rows))
    accesses.add(_access("master", 4, "S", "write", 0, rank_rows))
    accesses.add(_access("master", 6, "Y", "read", 0, n))
    for wid, tables in enumerate(shards):
        actor = f"worker{wid}"

        def add(step, array, mode, runs, actor=actor):
            for lo, hi in runs:
                accesses.add(_access(actor, step, array, mode, lo, hi))

        for _panel, runs, _k, si, ei, _slices in tables.near:
            add(1, "Y", "write", [(si, ei)])
            add(1, "W", "read", runs)
        for level in tables.levels:
            for _G, _GT, gather, _flat, own, _own2d, from_w in level:
                add(1, "W" if from_w else "T", "read", _row_runs(gather))
                add(1, "T", "write", _row_runs(own))
                add(5, "S", "read", _row_runs(own))
                add(5, "Y" if from_w else "S", "write", _row_runs(gather))
        for _P, idx, rows in tables.far:
            add(3, "S", "write", _row_runs(rows))
            add(3, "T", "read", _row_runs(idx))
    return {
        "trace_version": TRACE_VERSION,
        "n": int(n),
        "rank_rows": int(rank_rows),
        "num_workers": int(num_workers),
        "calls": int(calls),
        "chunks": int(chunks),
        "accesses": [
            {"actor": a, "step": s, "phase": STEP_PHASES[s], "array": arr,
             "mode": m, "rows": [lo, hi]}
            for a, s, arr, m, lo, hi in sorted(accesses)
        ],
    }


def certify_trace(trace: dict) -> list[RaceViolation]:
    """Every happens-before violation in a trace (empty = certified).

    Increments the ``races_certified``/``races_flagged`` analysis
    counters, so run manifests record what was proven.
    """
    if not isinstance(trace, dict) or \
            trace.get("trace_version") != TRACE_VERSION:
        raise ValueError(
            f"not a v{TRACE_VERSION} access trace: "
            f"{type(trace).__name__} with version "
            f"{trace.get('trace_version') if isinstance(trace, dict) else None!r}")
    groups: dict[tuple[str, int], list] = {}
    for acc in trace.get("accesses", ()):
        lo, hi = acc["rows"]
        if hi <= lo:
            continue  # empty interval can conflict with nothing
        groups.setdefault((acc["array"], int(acc["step"])), []).append(
            (int(lo), int(hi), acc["actor"], acc["mode"]))
    violations: list[RaceViolation] = []
    for (array, step), entries in sorted(groups.items()):
        entries.sort()
        for i, (lo_a, hi_a, actor_a, mode_a) in enumerate(entries):
            for lo_b, hi_b, actor_b, mode_b in entries[i + 1:]:
                if lo_b >= hi_a:
                    break  # start-sorted: nothing further overlaps
                if actor_a == actor_b:
                    continue  # program order: same actor is ordered
                if mode_a != "write" and mode_b != "write":
                    continue  # read/read never races
                violations.append(RaceViolation(
                    array=array, step=step,
                    phase=STEP_PHASES.get(step, f"step{step}"),
                    actor_a=actor_a, mode_a=mode_a, rows_a=(lo_a, hi_a),
                    actor_b=actor_b, mode_b=mode_b, rows_b=(lo_b, hi_b)))
    bump_analysis_counter(
        "races_flagged" if violations else "races_certified")
    return violations


def seed_overlap_violation(trace: dict) -> dict:
    """A doctored copy of a clean trace with two panels overlapped.

    Finds two write accesses to the same array in the same barrier phase
    by *different* actors and stretches one interval over the other —
    exactly the single-writer violation the certifier exists to catch.
    Raises ``ValueError`` when the trace has no two distinct writers in
    any phase (e.g. a one-worker engine): the mutation needs a victim.
    """
    doctored = json.loads(json.dumps(trace))
    writes: dict[tuple[str, int], list[int]] = {}
    for idx, acc in enumerate(doctored.get("accesses", ())):
        if acc["mode"] != "write" or acc["actor"] == "master":
            continue
        writes.setdefault((acc["array"], int(acc["step"])), []).append(idx)
    for indices in writes.values():
        actors = {doctored["accesses"][i]["actor"] for i in indices}
        if len(actors) < 2:
            continue
        first = doctored["accesses"][indices[0]]
        victim = next(i for i in indices[1:]
                      if doctored["accesses"][i]["actor"] != first["actor"])
        doctored["accesses"][victim]["rows"] = list(first["rows"])
        return doctored
    raise ValueError(
        "trace has no phase with two distinct writers; run the engine "
        "with >= 2 workers to seed an overlap")


def save_trace(trace: dict, path) -> Path:
    """Write a trace as canonical JSON (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    return path


def load_trace(path) -> dict:
    trace = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(trace, dict):
        raise ValueError(f"{path}: trace must be a JSON object")
    return trace


def certify_trace_file(path) -> list[RaceViolation]:
    """Load + certify one serialized trace."""
    return certify_trace(load_trace(path))


def certify_trace_dir(directory) -> dict[str, list[RaceViolation]]:
    """Certify every ``*.json`` trace under ``directory``.

    Returns ``{filename: violations}`` for every trace found; raises
    ``FileNotFoundError`` when the directory holds no traces at all (a
    replay gate pointed at an empty directory must fail loudly, not
    vacuously certify).
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no trace JSONs under {directory}")
    return {p.name: certify_trace_file(p) for p in paths}
