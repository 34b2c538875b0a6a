"""Thread-tier concurrency certifier (DESIGN.md §14).

The acceptance bar: the shipped tree's lock-acquisition graph is
acyclic and matches the checked-in golden graph; a doctored two-lock
inversion fires C001 exactly once (and the waiver convention applies);
a real KernelService workload records a sync trace the vector-clock
checker certifies clean while a seeded unordered pair is flagged; the
schedule explorer drives inequivalent interleavings through the stock
scenarios without a failure; and the whole pipeline is reachable as
``repro analyze --threads --deadlocks --sync-traces ... --strict``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    LOCK_RULES,
    ScheduleExplorer,
    analysis_counters,
    analyze_lock_order,
    certify_sync_trace,
    certify_sync_trace_dir,
    explore_default_scenarios,
    reset_analysis_counters,
    schedule_footprint,
    seed_unordered_pair,
)
from repro.cli import main as cli_main
from repro.observability.sync import (
    SYNC_TRACE_VERSION,
    SyncTracer,
    TracedLock,
    active_sync_tracer,
    default_instrumented_classes,
    guarded_attrs_of,
    install_sync_tracer,
    instrument_guarded,
    load_sync_trace,
    make_condition,
    make_lock,
    make_rlock,
    save_sync_trace,
    sync_tracing,
    uninstall_sync_tracer,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "analysis" \
    / "lock_order.json"


@pytest.fixture(autouse=True)
def _fresh_sync_state():
    # These tests install their own tracers; never run under the
    # recording fixture's process-global one (see conftest).
    uninstall_sync_tracer()
    reset_analysis_counters()
    yield
    uninstall_sync_tracer()
    reset_analysis_counters()


# --------------------------------------------------------------------------
# Static lock-order analysis.
# --------------------------------------------------------------------------

CYCLIC = """\
import threading


class Pair:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()

    def forward(self):
        with self.a:
            with self.b:
                pass

    def backward(self):
        with self.b:
            with self.a:
                pass
"""


class TestLockOrder:
    def test_shipped_tree_certifies_acyclic(self):
        report = analyze_lock_order([SRC], base=REPO_ROOT)
        assert report.cycles == []
        assert report.findings == []
        # The graph is real: the serving stack's locks and the
        # interprocedural nesting edges are present.
        for lock in ("KernelService._cv", "KernelService._session_lock",
                     "PlanStore._lock", "Autotuner._lock",
                     "Autotuner._key_locks[*]", "KernelServer._lock",
                     "AuditLog._lock"):
            assert lock in report.locks, lock
        assert report.locks["PlanStore._lock"] == "rlock"
        assert report.locks["KernelService._cv"] == "condition"
        assert report.locks["Autotuner._key_locks[*]"] == "family"
        assert len(report.edges) > 0
        # Autotune nests its per-key lock over the store round-trip.
        assert ("Autotuner._key_locks[*]", "PlanStore._lock") \
            in report.edges
        assert analysis_counters()["lockorder_certified"] == 1
        assert analysis_counters()["lockorder_cycles"] == 0

    def test_golden_graph_matches(self):
        report = analyze_lock_order([SRC], base=REPO_ROOT)
        golden = json.loads(GOLDEN.read_text())
        assert report.summary() == golden, (
            "lock-acquisition graph drifted from the golden file; if the "
            "new ordering is intended, regenerate with `repro analyze "
            "--threads --lock-graph tests/fixtures/analysis/"
            "lock_order.json`")

    def test_inverted_pair_fires_c001_once(self, tmp_path):
        mod = tmp_path / "pair.py"
        mod.write_text(CYCLIC)
        report = analyze_lock_order([mod], base=tmp_path)
        assert [sorted(c) for c in report.cycles] == \
            [["Pair.a", "Pair.b"]]
        (finding,) = report.findings
        assert finding.rule == "C001"
        assert "C001" in LOCK_RULES
        assert not finding.waived
        assert "Pair.a" in finding.message and "Pair.b" in finding.message
        assert "deadlock" in finding.message
        assert analysis_counters()["lockorder_cycles"] == 1
        assert analysis_counters()["lockorder_certified"] == 0

    def test_cycle_waiver_applies(self, tmp_path):
        waived = CYCLIC.replace(
            "        with self.a:\n            with self.b:",
            "        with self.a:\n            with self.b:"
            "  # analysis: waive C001 -- demo inversion")
        assert waived != CYCLIC
        mod = tmp_path / "pair.py"
        mod.write_text(waived)
        report = analyze_lock_order([mod], base=tmp_path)
        (finding,) = report.findings
        assert finding.waived
        assert finding.waiver_reason == "demo inversion"
        assert report.to_doc()["unwaived_cycles"] == 0

    def test_rlock_reentry_is_not_a_cycle(self, tmp_path):
        mod = tmp_path / "reent.py"
        mod.write_text(
            "import threading\n\n\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.RLock()\n\n"
            "    def outer(self):\n"
            "        with self.lock:\n"
            "            self.inner()\n\n"
            "    def inner(self):\n"
            "        with self.lock:\n"
            "            pass\n")
        report = analyze_lock_order([mod], base=tmp_path)
        assert report.cycles == []
        assert ("Cache.lock", "Cache.lock") not in report.edges

    def test_summary_has_no_line_numbers(self):
        report = analyze_lock_order([SRC], base=REPO_ROOT)
        summary = report.summary()
        assert summary["lockorder_version"] == 1
        assert summary["locks"] == sorted(summary["locks"])
        assert all(isinstance(e, list) and len(e) == 2
                   for e in summary["edges"])


# --------------------------------------------------------------------------
# Traced primitives: zero-cost off, transparent on.
# --------------------------------------------------------------------------

class TestTracedPrimitives:
    def test_factories_are_plain_threading_without_tracer(self):
        assert active_sync_tracer() is None
        assert isinstance(make_lock("x"), type(threading.Lock()))
        assert isinstance(make_rlock("x"), type(threading.RLock()))
        assert isinstance(make_condition("x"), threading.Condition)

    def test_factories_trace_under_tracer(self):
        with sync_tracing("prims") as tracer:
            lock = make_lock("demo.lock")
            assert isinstance(lock, TracedLock)
            with lock:
                pass
            cv = make_condition("demo.cv")
            with cv:
                cv.notify_all()
        doc = tracer.to_doc()
        ops = [(ev["op"], ev.get("name")) for ev in doc["events"]]
        assert ("acquire", "demo.lock") in ops
        assert ("release", "demo.lock") in ops
        assert ("notify", "demo.cv") in ops

    def test_rlock_reentrancy_records_outermost_only(self):
        with sync_tracing("reent") as tracer:
            rlock = make_rlock("demo.rlock")
            with rlock:
                with rlock:
                    pass
        events = [ev for ev in tracer.to_doc()["events"]
                  if ev.get("name") == "demo.rlock"]
        assert [ev["op"] for ev in events] == ["acquire", "release"]

    def test_orphaned_traced_lock_degrades_to_plain(self):
        with sync_tracing("orphan"):
            lock = make_lock("demo.orphan")
        # The tracer is gone; the primitive must still synchronise.
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_nested_install_is_refused(self):
        with sync_tracing("outer"):
            with pytest.raises(RuntimeError, match="already installed"):
                install_sync_tracer(SyncTracer("inner"))

    def test_guarded_attrs_registry(self):
        from repro.net.server import AuditLog, KernelServer

        assert guarded_attrs_of(AuditLog) == {
            "lines": "self._lock", "write_failures": "self._lock"}
        attrs = guarded_attrs_of(KernelServer)
        assert attrs.get("_draining") == "self._lock"
        assert attrs.get("_serving") == "self._lock"
        assert len(default_instrumented_classes()) >= 5

    def test_instrument_guarded_records_and_undoes(self):
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0  # guarded-by: self._lock

        undo = instrument_guarded(Box)
        try:
            with sync_tracing("box") as tracer:
                box = Box()
                with box._lock:
                    box.n += 1
            events = [ev for ev in tracer.to_doc()["events"]
                      if ev["op"] in ("read", "write")]
            assert {ev["name"] for ev in events} == {"Box.n"}
            assert {ev["guard"] for ev in events} == {"self._lock"}
            assert {ev["op"] for ev in events} == {"read", "write"}
        finally:
            undo()
        assert not isinstance(Box.__dict__.get("n"), property)


# --------------------------------------------------------------------------
# Happens-before checker on synthetic traces: the rules, one by one.
# --------------------------------------------------------------------------

def _trace(events, threads):
    return {"sync_trace_version": SYNC_TRACE_VERSION, "name": "synthetic",
            "threads": {str(k): v for k, v in threads.items()},
            "events": events}


def _ev(seq, op, thread, **kw):
    return {"seq": seq, "op": op, "thread": thread, **kw}


class TestHappensBefore:
    def test_unordered_writes_are_flagged(self):
        trace = _trace([
            _ev(1, "write", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "write", 2, obj=7, name="C.x", guard="C._lock"),
        ], {1: "alpha", 2: "beta"})
        (violation,) = certify_sync_trace(trace)
        assert violation.attr == "C.x"
        assert violation.guard == "C._lock"
        assert {violation.thread_a, violation.thread_b} == {"alpha", "beta"}
        assert "unordered" in violation.format()
        assert analysis_counters()["sync_flagged"] == 1

    def test_lock_ordered_writes_certify(self):
        trace = _trace([
            _ev(1, "acquire", 1, obj=9, name="C._lock"),
            _ev(2, "write", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(3, "release", 1, obj=9, name="C._lock"),
            _ev(4, "acquire", 2, obj=9, name="C._lock"),
            _ev(5, "write", 2, obj=7, name="C.x", guard="C._lock"),
            _ev(6, "release", 2, obj=9, name="C._lock"),
        ], {1: "alpha", 2: "beta"})
        assert certify_sync_trace(trace) == []
        assert analysis_counters()["sync_certified"] == 1

    def test_fork_join_orders_child_against_parent(self):
        trace = _trace([
            _ev(1, "write", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "fork", 1, token=1),
            _ev(3, "child", 2, token=1),
            _ev(4, "write", 2, obj=7, name="C.x", guard="C._lock"),
            _ev(5, "child_end", 2, token=1),
            _ev(6, "join", 1, token=1),
            _ev(7, "write", 1, obj=7, name="C.x", guard="C._lock"),
        ], {1: "parent", 2: "child"})
        assert certify_sync_trace(trace) == []

    def test_future_orders_producer_before_consumer(self):
        trace = _trace([
            _ev(1, "write", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "fut_set", 1, obj=5),
            _ev(3, "fut_get", 2, obj=5),
            _ev(4, "read", 2, obj=7, name="C.x", guard="C._lock"),
        ], {1: "producer", 2: "consumer"})
        assert certify_sync_trace(trace) == []

    def test_concurrent_reads_do_not_conflict(self):
        trace = _trace([
            _ev(1, "read", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "read", 2, obj=7, name="C.x", guard="C._lock"),
        ], {1: "alpha", 2: "beta"})
        assert certify_sync_trace(trace) == []

    def test_unordered_read_write_pair_is_flagged(self):
        trace = _trace([
            _ev(1, "read", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "write", 2, obj=7, name="C.x", guard="C._lock"),
        ], {1: "alpha", 2: "beta"})
        (violation,) = certify_sync_trace(trace)
        assert "write" in (violation.mode_a, violation.mode_b)

    def test_version_gate(self):
        with pytest.raises(ValueError, match="not a v1 sync trace"):
            certify_sync_trace({"sync_trace_version": 99, "events": []})
        with pytest.raises(ValueError, match="not a v1 sync trace"):
            certify_sync_trace([])

    def test_seeding_needs_a_guarded_write(self):
        trace = _trace([
            _ev(1, "read", 1, obj=7, name="C.x", guard="C._lock"),
            _ev(2, "read", 2, obj=7, name="C.x", guard="C._lock"),
        ], {1: "alpha", 2: "beta"})
        with pytest.raises(ValueError, match="no guarded attribute"):
            seed_unordered_pair(trace)


# --------------------------------------------------------------------------
# End to end: a real KernelService workload records, replays, certifies.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service_trace():
    """A sync trace from a real traced service round-trip (recorded the
    way the conftest recording fixture does it)."""
    from repro.api.plan import PlanConfig
    from repro.api.service import KernelService

    uninstall_sync_tracer()
    undos = [instrument_guarded(cls)
             for cls in default_instrumented_classes()]
    tracer = SyncTracer("service-workload")
    install_sync_tracer(tracer)
    try:
        points = np.random.default_rng(3).random((64, 2))
        with KernelService(plan=PlanConfig(leaf_size=32, bacc=1e-6, p=4,
                                           seed=0),
                           max_batch=4, max_wait_ms=1.0) as svc:
            svc.register("pts", points, warm=True)
            W = np.random.default_rng(4).random((64, 2))
            Y = svc.request("pts", W, timeout=60)
            assert Y.shape == (64, 2) and np.all(np.isfinite(Y))
            assert svc.drain(timeout=60)
    finally:
        uninstall_sync_tracer()
        for undo in undos:
            undo()
    return tracer.to_doc()


class TestServiceTrace:
    def test_trace_is_concurrent_and_guarded(self, service_trace):
        assert service_trace["sync_trace_version"] == SYNC_TRACE_VERSION
        assert len(service_trace["threads"]) >= 2
        ops = {ev["op"] for ev in service_trace["events"]}
        # The dispatcher protocol leaves all three event families.
        assert {"acquire", "release", "fork"} <= ops
        assert {"read", "write"} & ops
        guarded = {ev["name"] for ev in service_trace["events"]
                   if ev["op"] in ("read", "write")}
        assert any(name.startswith("KernelService.") for name in guarded)

    def test_real_trace_certifies_clean(self, service_trace):
        assert certify_sync_trace(service_trace) == []
        assert analysis_counters()["sync_certified"] == 1

    def test_seeded_violation_is_flagged(self, service_trace):
        doctored = seed_unordered_pair(service_trace)
        violations = certify_sync_trace(doctored)
        assert violations
        assert any("ghost" in (v.thread_a, v.thread_b)
                   for v in violations)
        assert analysis_counters()["sync_flagged"] == 1
        # The original document was not mutated.
        assert certify_sync_trace(service_trace) == []

    def test_trace_roundtrip_and_dir_certification(self, service_trace,
                                                   tmp_path):
        path = save_sync_trace(service_trace,
                               tmp_path / "svc.synctrace.json")
        assert load_sync_trace(path) == service_trace
        results = certify_sync_trace_dir(tmp_path)
        assert results == {"svc.synctrace.json": []}
        with pytest.raises(FileNotFoundError, match="no sync traces"):
            certify_sync_trace_dir(tmp_path / "empty")


# --------------------------------------------------------------------------
# Schedule explorer: determinism, dedup, failure detection.
# --------------------------------------------------------------------------

def _two_workers_scenario():
    """Two threads racing over two traced locks (schedule diversity)."""
    a = make_lock("demo.a")
    b = make_lock("demo.b")

    def worker():
        with a:
            with b:
                pass

    threads = [threading.Thread(target=worker, name=f"w{i}")
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)


class TestScheduleExplorer:
    def test_footprint_canonicalises_threads(self):
        doc_a = {"events": [
            _ev(1, "acquire", 111, name="L"),
            _ev(2, "acquire", 222, name="M"),
            _ev(3, "release", 222, name="M"),
        ]}
        doc_b = {"events": [
            _ev(1, "acquire", 5, name="L"),
            _ev(2, "acquire", 9, name="M"),
        ]}
        assert schedule_footprint(doc_a) == (("L", "T0"), ("M", "T1"))
        assert schedule_footprint(doc_a) == schedule_footprint(doc_b)

    def test_explorer_dedupes_and_counts(self):
        report = ScheduleExplorer(_two_workers_scenario,
                                  name="two-workers", runs=6).explore()
        assert report.runs == 6
        assert report.ok
        assert 1 <= report.inequivalent <= 6
        assert len(report.footprints) == report.inequivalent
        assert analysis_counters()["schedules_explored"] \
            == report.inequivalent
        assert analysis_counters()["schedule_failures"] == 0
        doc = report.to_doc()
        assert doc["scenario"] == "two-workers"
        assert doc["failures"] == []

    def test_failing_scenario_is_reported(self):
        def bad():
            raise AssertionError("invariant violated")

        report = ScheduleExplorer(bad, runs=2).explore()
        assert not report.ok
        assert len(report.failures) == 2
        assert "invariant violated" in report.failures[0][1]
        assert analysis_counters()["schedule_failures"] == 2

    def test_hung_scenario_times_out_as_failure(self):
        def hang():
            time.sleep(5)

        report = ScheduleExplorer(hang, runs=1, timeout=0.2).explore()
        (failure,) = report.failures
        assert "did not finish" in failure[1]

    def test_tracer_is_uninstalled_after_exploration(self):
        ScheduleExplorer(_two_workers_scenario, runs=1).explore()
        assert active_sync_tracer() is None

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError, match="runs must be"):
            ScheduleExplorer(_two_workers_scenario, runs=0)

    def test_stock_scenarios_explore_clean(self):
        reports = explore_default_scenarios(runs=2)
        assert set(reports) == {"dispatcher_drain", "dispatcher_crash",
                                "store_eviction"}
        for name, report in reports.items():
            assert report.ok, f"{name}: {report.failures}"
            assert report.runs == 2
            assert report.inequivalent >= 1


# --------------------------------------------------------------------------
# CLI wiring: repro analyze --threads / --sync-traces / --deadlocks.
# --------------------------------------------------------------------------

class TestAnalyzeCLI:
    def test_threads_strict_exits_zero(self, capsys):
        assert cli_main(["analyze", "--threads", "--strict",
                         str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "lock graph:" in out
        assert "0 cycle(s) (0 unwaived)" in out

    def test_lock_graph_export_matches_golden(self, tmp_path, capsys):
        out_json = tmp_path / "lock_order.json"
        assert cli_main(["analyze", "--threads", "--lock-graph",
                         str(out_json), str(SRC)]) == 0
        assert json.loads(out_json.read_text()) \
            == json.loads(GOLDEN.read_text())

    def test_inverted_pair_fails_strict(self, tmp_path, capsys):
        mod = tmp_path / "pair.py"
        mod.write_text(CYCLIC)
        assert cli_main(["analyze", "--threads", "--strict",
                         str(mod)]) == 1
        captured = capsys.readouterr()
        assert "C001" in captured.out
        assert "strict mode: 1 failure(s)" in captured.err

    def test_sync_trace_replay(self, service_trace, tmp_path, capsys):
        save_sync_trace(service_trace, tmp_path / "svc.synctrace.json")
        assert cli_main(["analyze", "--strict", "--sync-traces",
                         str(tmp_path), str(SRC)]) == 0
        assert "1 sync trace(s) certified, 0 happens-before " \
            "violation(s)" in capsys.readouterr().out

        save_sync_trace(seed_unordered_pair(service_trace),
                        tmp_path / "bad.synctrace.json")
        assert cli_main(["analyze", "--strict", "--sync-traces",
                         str(tmp_path), str(SRC)]) == 1
        assert "UNORDERED" in capsys.readouterr().out

    def test_sync_trace_empty_dir_exits_two(self, tmp_path, capsys):
        assert cli_main(["analyze", "--sync-traces", str(tmp_path),
                         str(SRC)]) == 2
        assert "no sync traces" in capsys.readouterr().err

    def test_deadlocks_explores_schedules(self, tmp_path, capsys):
        out_json = tmp_path / "analysis.json"
        assert cli_main(["analyze", "--strict", "--deadlocks",
                         "--schedules", "1", "--json", str(out_json),
                         str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "inequivalent schedule(s) explored across 3 scenario(s), " \
            "0 failure(s)" in out
        doc = json.loads(out_json.read_text())
        sched = doc["schedules"]
        assert sched["failures"] == 0
        assert sched["inequivalent"] >= 3
        assert set(sched["scenarios"]) == {
            "dispatcher_drain", "dispatcher_crash", "store_eviction"}

    def test_counters_surface_in_collect_stats(self):
        from repro.observability import collect_stats

        analyze_lock_order([SRC], base=REPO_ROOT)
        counters = collect_stats()["analysis"]
        assert counters["lockorder_certified"] == 1
        for key in ("lockorder_cycles", "sync_certified", "sync_flagged",
                    "schedules_explored", "schedule_failures"):
            assert key in counters
