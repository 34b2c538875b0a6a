"""repro.analysis: lint rules R001-R004 and the engine tier of the
happens-before checker.

The acceptance bar for the analysis layer: each fixture under
``tests/fixtures/analysis/`` fires its rule exactly once, the shipped
tree lints clean (``repro analyze --strict`` exits 0), and the
happens-before checker proves a real engine's barrier protocol orders
every conflicting shared-array access and flags a seeded overlap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import ProcessEngine, inspector
from repro.analysis import (
    Finding,
    HBViolation,
    analysis_counters,
    bump_analysis_counter,
    certify_sync_trace,
    certify_sync_trace_dir,
    findings_to_doc,
    is_engine_trace,
    lint_paths,
    lint_source,
    reset_analysis_counters,
    seed_overlap_violation,
)
from repro.cli import main as cli_main
from repro.observability.sync import (
    SYNC_TRACE_VERSION,
    load_sync_trace,
    maybe_dump_sync_trace,
    save_sync_trace,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


@pytest.fixture(autouse=True)
def _reset_analysis_state():
    reset_analysis_counters()
    yield
    reset_analysis_counters()


@pytest.fixture(scope="module")
def H():
    points = np.random.default_rng(7).random((600, 2))
    H = inspector(points, kernel="gaussian", structure="h2-geometric",
                  leaf_size=32)
    assert H.evaluator.decision.batch
    return H


@pytest.fixture(scope="module")
def W(H):
    return np.random.default_rng(8).random((H.dim, 6))


# --------------------------------------------------------------------------
# Lint rules on their fixtures: each fires exactly once, unwaived.
# --------------------------------------------------------------------------

class TestLintFixtures:
    @pytest.mark.parametrize("filename,rule", [
        ("bad_r001.py", "R001"),
        ("bad_r002.py", "R002"),
        ("bad_r003_store.py", "R003"),
        ("bad_r004_manifest.py", "R004"),
    ])
    def test_fixture_fires_exactly_once(self, filename, rule):
        path = FIXTURES / filename
        findings = lint_source(path.read_text(encoding="utf-8"),
                               f"tests/fixtures/analysis/{filename}")
        assert [f.rule for f in findings] == [rule]
        assert not findings[0].waived
        assert findings[0].line > 0

    def test_fixture_directory_totals(self):
        doc = findings_to_doc(lint_paths([FIXTURES], base=REPO_ROOT))
        assert doc["analysis_version"] == 1
        assert doc["by_rule"] == {"R001": 1, "R002": 1,
                                  "R003": 1, "R004": 1}
        assert doc["total"] == doc["unwaived"] == 4
        assert doc["waived"] == 0
        # Findings carry repo-relative posix paths.
        paths = {f["path"] for f in doc["findings"]}
        assert all(p.startswith("tests/fixtures/analysis/") for p in paths)

    def test_r002_locked_write_does_not_fire(self):
        source = (FIXTURES / "bad_r002.py").read_text(encoding="utf-8")
        (finding,) = lint_source(source, "counter.py")
        # The one finding is the unlocked write in racy_increment, not
        # the locked one and not the __init__ assignment.
        assert "racy" not in finding.message  # message names attr + lock
        assert finding.line > source.splitlines().index(
            "    def racy_increment(self):") + 1 - 1

    def test_parse_failure_is_a_finding(self):
        (finding,) = lint_source("def broken(:\n", "oops.py")
        assert finding.rule == "parse"
        assert "does not parse" in finding.message


class TestWaivers:
    def test_same_line_waiver(self):
        source = ("def resolve(policy, fallback):\n"
                  "    return policy or fallback"
                  "  # analysis: waive R001 -- legacy shim\n")
        (finding,) = lint_source(source, "x.py")
        assert finding.rule == "R001"
        assert finding.waived
        assert finding.waiver_reason == "legacy shim"

    def test_own_line_waiver_covers_next_code_line(self):
        source = ("def resolve(policy, fallback):\n"
                  "    # analysis: waive R001 -- documented fallback\n"
                  "    return policy or fallback\n")
        (finding,) = lint_source(source, "x.py")
        assert finding.waived
        assert finding.waiver_reason == "documented fallback"

    def test_waiver_for_other_rule_does_not_apply(self):
        source = ("def resolve(policy, fallback):\n"
                  "    return policy or fallback"
                  "  # analysis: waive R002 -- wrong rule\n")
        (finding,) = lint_source(source, "x.py")
        assert not finding.waived


class TestPathScoping:
    CLOCKY = "import time\n\ndef stamp():\n    return time.time()\n"
    SWALLOW = ("class PlanStoreError(Exception):\n    pass\n\n"
               "def f(p):\n    try:\n        return p.read()\n"
               "    except PlanStoreError:\n        pass\n")

    def test_r004_only_on_scoped_paths(self):
        assert [f.rule for f in lint_source(
            self.CLOCKY, "src/repro/observability/manifest.py")] == ["R004"]
        assert lint_source(self.CLOCKY, "src/repro/core/tree.py") == []

    def test_r003_only_on_scoped_paths(self):
        assert [f.rule for f in lint_source(
            self.SWALLOW, "src/repro/api/store.py")] == ["R003"]
        assert lint_source(self.SWALLOW, "src/repro/core/tree.py") == []


class TestShippedTreeClean:
    def test_src_repro_has_no_unwaived_findings(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"], base=REPO_ROOT)
        unwaived = [f for f in findings if not f.waived]
        assert unwaived == [], "\n".join(f.format() for f in unwaived)
        # The tree does carry *waived* findings — wall-clock reads
        # (profiling and store mtimes legitimately sample clocks) and
        # one quota-refund write whose callers all hold the lock — so
        # the waiver machinery is live, not vacuous.
        waived = [f for f in findings if f.waived]
        assert waived and all(f.rule in ("R002", "R004") for f in waived)
        assert any(f.rule == "R004" for f in waived)
        assert all(f.waiver_reason for f in waived)


# --------------------------------------------------------------------------
# Engine traces: a real engine certifies clean; a seeded overlap flags.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def engine(H):
    with ProcessEngine(H, num_workers=2) as eng:
        yield eng


@pytest.fixture(scope="module")
def clean_trace(engine, H, W):
    np.testing.assert_array_equal(engine.matmul(W),
                                  H.matmul(W, order="batched"))
    return engine.access_trace()


def _overlaps(a, b):
    return a[0] < b[1] and b[0] < a[1]


class TestRaceCertifier:
    def test_real_engine_certifies_race_free(self, clean_trace):
        assert clean_trace["sync_trace_version"] == SYNC_TRACE_VERSION
        assert sorted(clean_trace["threads"].values()) == [
            "master", "worker0", "worker1"]
        ops = {ev["op"] for ev in clean_trace["events"]}
        assert ops == {"q_put", "q_get", "read", "write"}
        accesses = [ev for ev in clean_trace["events"]
                    if ev["op"] in ("read", "write")]
        assert {ev["name"] for ev in accesses} == {"W", "Y", "T", "S"}
        assert all(ev["rows"][0] < ev["rows"][1] for ev in accesses)
        assert certify_sync_trace(clean_trace) == []
        assert analysis_counters()["sync_certified"] == 1
        assert analysis_counters()["sync_flagged"] == 0

    def test_seeded_overlap_is_flagged(self, clean_trace):
        doctored = seed_overlap_violation(clean_trace)
        violations = certify_sync_trace(doctored)
        assert violations
        v = violations[0]
        assert isinstance(v, HBViolation)
        assert {v.thread_a, v.thread_b} <= {"worker0", "worker1"}
        assert v.thread_a != v.thread_b
        assert "write" in (v.mode_a, v.mode_b)
        assert _overlaps(v.rows_a, v.rows_b)
        assert v.guard.startswith("barrier:")
        text = v.format()
        assert v.attr in text and f"rows [{v.rows_b[0]}, " in text
        assert analysis_counters()["sync_flagged"] == 1
        # The original trace is untouched (the mutation is a copy).
        assert certify_sync_trace(clean_trace) == []

    def test_seeding_needs_two_writers(self, clean_trace):
        solo = dict(clean_trace,
                    events=[ev for ev in clean_trace["events"]
                            if ev["thread"] in (0, 1)])
        with pytest.raises(ValueError, match="two distinct writers"):
            seed_overlap_violation(solo)

    def test_unanswered_barrier_is_flagged(self, clean_trace):
        """The pipe messages carry the order: a master that stops
        waiting for the replies races the workers it commanded (and
        the workers' phases no longer order each other)."""
        doctored = dict(clean_trace, events=[
            ev for ev in clean_trace["events"]
            if not (ev["op"] == "q_get" and ev["thread"] == 0)])
        violations = certify_sync_trace(doctored)
        assert any("master" in (v.thread_a, v.thread_b)
                   for v in violations)

    def test_version_gate(self):
        # The retired per-engine access-trace format fails loudly.
        with pytest.raises(ValueError, match="not a v1 sync trace"):
            certify_sync_trace({"trace_version": 1, "accesses": []})
        with pytest.raises(ValueError, match="not a v1 sync trace"):
            certify_sync_trace([])

    def test_trace_roundtrip_and_dir_certification(self, clean_trace,
                                                   tmp_path):
        save_sync_trace(clean_trace, tmp_path / "trace-1.synctrace.json")
        save_sync_trace(seed_overlap_violation(clean_trace),
                        tmp_path / "trace-2.synctrace.json")
        assert load_sync_trace(tmp_path / "trace-1.synctrace.json") \
            == clean_trace
        results = certify_sync_trace_dir(tmp_path)
        assert sorted(results) == ["trace-1.synctrace.json",
                                   "trace-2.synctrace.json"]
        assert results["trace-1.synctrace.json"] == []
        assert results["trace-2.synctrace.json"]

    def test_empty_trace_dir_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no sync traces"):
            certify_sync_trace_dir(tmp_path)

    def test_engine_dumps_trace_on_close(self, H, W, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("MATROX_SYNC_TRACE_DIR", str(tmp_path))
        with ProcessEngine(H, num_workers=2) as eng:
            eng.matmul(W)
        results = certify_sync_trace_dir(tmp_path)
        assert len(results) == 1
        name, violations = next(iter(results.items()))
        assert name.startswith("engine.") and violations == []

    def test_idle_engine_dumps_nothing(self, H, tmp_path, monkeypatch):
        monkeypatch.setenv("MATROX_SYNC_TRACE_DIR", str(tmp_path))
        with ProcessEngine(H, num_workers=2):
            pass  # never ran: nothing worth certifying
        assert list(tmp_path.glob("*.json")) == []

    @pytest.mark.parametrize("workers", [4, 8])
    def test_wider_deals_certify_and_flag(self, H, workers):
        with ProcessEngine(H, num_workers=workers) as eng:
            trace = eng.access_trace()
        assert len(trace["threads"]) == workers + 1
        assert certify_sync_trace(trace) == []
        assert certify_sync_trace(seed_overlap_violation(trace))


def _rows_trace(*events):
    """A synthetic two-thread trace; events are (op, thread, rows)."""
    return {"sync_trace_version": SYNC_TRACE_VERSION, "name": "rows",
            "threads": {"1": "alpha", "2": "beta"},
            "events": [
                {"seq": i, "op": op, "thread": t, "obj": 7 if rows else 5,
                 "name": "Y" if rows else "pipe", "guard": "barrier:x",
                 **({"rows": rows} if rows else {})}
                for i, (op, t, rows) in enumerate(events, 1)]}


class TestRowIntervals:
    """Row intervals in the happens-before checker: conflicts need
    overlapping rows, and an access without rows covers them all."""

    def test_disjoint_unordered_writes_certify(self):
        assert certify_sync_trace(_rows_trace(
            ("write", 1, [0, 4]), ("write", 2, [4, 8]))) == []

    def test_overlapping_unordered_writes_are_flagged(self):
        (v,) = certify_sync_trace(_rows_trace(
            ("write", 1, [0, 4]), ("write", 2, [3, 8])))
        assert (v.thread_a, v.rows_a, v.thread_b, v.rows_b) == (
            "alpha", (0, 4), "beta", (3, 8))
        assert "Y (guarded-by barrier:x): alpha write rows [0, 4)" \
            in v.format()

    def test_whole_variable_access_covers_every_row(self):
        trace = _rows_trace(("write", 1, [0, 4]), ("read", 2, [6, 8]))
        del trace["events"][0]["rows"]
        (v,) = certify_sync_trace(trace)
        assert v.rows_a is None and v.rows_b == (6, 8)

    def test_every_epoch_of_a_thread_is_kept(self):
        # alpha writes rows [0, 4), hands off, then writes [4, 8): beta
        # is ordered after the first write only.
        events = [("write", 1, [0, 4]), ("q_put", 1, None),
                  ("write", 1, [4, 8]), ("q_get", 2, None)]
        assert certify_sync_trace(_rows_trace(
            *events, ("write", 2, [0, 4]))) == []
        (v,) = certify_sync_trace(_rows_trace(
            *events, ("write", 2, [6, 7])))
        assert v.rows_a == (4, 8)

    def test_whole_variable_access_replaces_earlier_epochs(self):
        # alpha's last write covers every row: beta is reported against
        # it, not against the row-carrying write before it.
        trace = _rows_trace(("write", 1, [0, 4]), ("write", 1, [0, 1]),
                            ("read", 2, [6, 8]))
        del trace["events"][1]["rows"]
        (v,) = certify_sync_trace(trace)
        assert (v.seq_a, v.rows_a, v.rows_b) == (2, None, (6, 8))


# --------------------------------------------------------------------------
# Counters and observability wiring.
# --------------------------------------------------------------------------

class TestCounters:
    def test_bump_and_snapshot(self):
        bump_analysis_counter("lint_findings", 3)
        bump_analysis_counter("lint_findings")
        snap = analysis_counters()
        assert snap["lint_findings"] == 4
        snap["lint_findings"] = 0  # a copy, not the live dict
        assert analysis_counters()["lint_findings"] == 4

    def test_unknown_counter_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown analysis counter"):
            bump_analysis_counter("writset_verified")

    def test_reset(self):
        bump_analysis_counter("sync_certified")
        reset_analysis_counters()
        assert set(analysis_counters().values()) == {0}

    def test_collect_stats_exposes_analysis_section(self):
        from repro.observability.stats import collect_stats

        bump_analysis_counter("sync_certified")
        section = collect_stats()["analysis"]
        assert section["sync_certified"] == 1
        assert {"sync_certified", "sync_flagged", "lint_findings",
                "lockorder_certified"} <= set(section)
        # Engine traces count under sync_*: the race counters are gone.
        assert not {"races_certified", "races_flagged"} & set(section)


# --------------------------------------------------------------------------
# CLI: `repro analyze` exit codes and findings JSON.
# --------------------------------------------------------------------------

class TestAnalyzeCLI:
    def test_clean_tree_strict_exits_zero(self, capsys):
        assert cli_main(["analyze", "--strict",
                         str(REPO_ROOT / "src" / "repro")]) == 0
        out = capsys.readouterr().out
        assert "0 unwaived" in out

    def test_fixtures_fail_strict_and_write_json(self, tmp_path, capsys):
        out_json = tmp_path / "findings.json"
        assert cli_main(["analyze", "--strict", "--json", str(out_json),
                         str(FIXTURES)]) == 1
        doc = json.loads(out_json.read_text())
        assert doc["unwaived"] == 4
        assert doc["by_rule"] == {"R001": 1, "R002": 1,
                                  "R003": 1, "R004": 1}
        err = capsys.readouterr().err
        assert "strict mode: 4 failure(s)" in err

    def test_fixtures_without_strict_exit_zero(self, capsys):
        assert cli_main(["analyze", str(FIXTURES)]) == 0
        assert "4 unwaived" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert cli_main(["analyze", "/no/such/tree.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_race_replay(self, clean_trace, tmp_path, capsys):
        maybe_dump_sync_trace(clean_trace, tmp_path)
        assert cli_main(["analyze", "--strict", "--sync-traces",
                         str(tmp_path),
                         str(REPO_ROOT / "src" / "repro")]) == 0
        assert "1 sync trace(s) certified, 0 happens-before violation(s) " \
            "(1 engine, 0 thread)" in capsys.readouterr().out

        maybe_dump_sync_trace(seed_overlap_violation(clean_trace), tmp_path)
        assert cli_main(["analyze", "--strict", "--sync-traces",
                         str(tmp_path),
                         str(REPO_ROOT / "src" / "repro")]) == 1
        assert "UNORDERED" in capsys.readouterr().out

    def test_race_replay_empty_dir_exits_two(self, tmp_path, capsys):
        assert cli_main(["analyze", "--sync-traces", str(tmp_path),
                         str(FIXTURES / "bad_r001.py")]) == 2
        assert "no sync traces" in capsys.readouterr().err

    def test_json_doc_records_extras(self, clean_trace, tmp_path):
        # A trace's tier is what it holds, whatever its file is called:
        # engine accesses carry rows, a thread trace's do not.
        thread_trace = _rows_trace(("write", 1, None), ("q_put", 1, None),
                                   ("q_get", 2, None), ("write", 2, None))
        assert is_engine_trace(clean_trace)
        assert not is_engine_trace(thread_trace)
        save_sync_trace(clean_trace, tmp_path / "svc.1.synctrace.json")
        save_sync_trace(thread_trace, tmp_path / "engine.1.synctrace.json")
        out_json = tmp_path / "doc.json"
        assert cli_main(["analyze", "--json", str(out_json),
                         "--sync-traces", str(tmp_path),
                         str(FIXTURES / "bad_r001.py")]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["sync"] == {"traces": 2, "engine_traces": 1,
                               "thread_traces": 1, "violations": 0}
        assert doc["unwaived"] == 1


def test_finding_format_is_clickable():
    f = Finding(rule="R001", path="src/repro/x.py", line=3, col=4,
                message="policy coalesced")
    assert f.format() == "src/repro/x.py:3:4: R001 policy coalesced"
    f.waived, f.waiver_reason = True, "because"
    assert f.format().endswith("[waived: because]")
