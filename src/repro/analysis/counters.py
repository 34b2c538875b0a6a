"""Process-global counters for the analysis layer (DESIGN.md §13).

Every analysis pass that runs in-process — the lock-order certifier and
the happens-before checker replaying engine and thread traces — increments
a named counter here. :func:`analysis_counters` surfaces the snapshot
through ``collect_stats()["analysis"]`` and the run manifest's
``stats.analysis`` section, so a manifest records not just *what* a run
did but *what was proven about it*.

Counter values are monotone within a process and deterministic for a
deterministic workload (nothing here samples a clock), which keeps the
run-manifest byte-identity contract intact.
"""

from __future__ import annotations

import threading

__all__ = ["analysis_counters", "bump_analysis_counter",
           "reset_analysis_counters"]

#: The fixed counter vocabulary. A typo'd name must fail loudly rather
#: than mint a new counter nobody aggregates.
_NAMES = (
    "lint_findings",       # unwaived lint findings reported by `repro analyze`
    "lockorder_certified",   # lock-order graphs certified acyclic
    "lockorder_cycles",      # lock-order cycles found (deadlock potential)
    "sync_certified",        # engine/thread traces certified free of HB violations
    "sync_flagged",          # engine/thread traces with unordered conflicts
    "schedules_explored",    # inequivalent thread schedules explored
    "schedule_failures",     # explored schedules that failed or deadlocked
)

_lock = threading.Lock()
_counters: dict[str, int] = dict.fromkeys(_NAMES, 0)


def bump_analysis_counter(name: str, amount: int = 1) -> None:
    """Increment one analysis counter (thread-safe)."""
    if name not in _counters:
        raise KeyError(f"unknown analysis counter {name!r}; "
                       f"known: {sorted(_counters)}")
    with _lock:
        _counters[name] += int(amount)


def analysis_counters() -> dict[str, int]:
    """A snapshot copy of every analysis counter."""
    with _lock:
        return dict(_counters)


def reset_analysis_counters() -> None:
    """Zero every counter (test isolation)."""
    with _lock:
        for name in _NAMES:
            _counters[name] = 0
