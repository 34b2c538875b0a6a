"""Analysis: the paper's structure algorithms + the correctness passes.

Two families live here. The *structure analysis* side consumes the
information produced by modular compression (HTree, CTree, sranks) and
produces the structure sets — ``blockset`` for the reduction loops and
``coarsenset`` for the loops over the CTree — that drive code generation
and the CDS data layout.

The *correctness analysis* side (DESIGN.md §13) proves invariants the
tests can only sample: project-aware AST lint rules (:mod:`.lint`) and
the concurrency certifier (DESIGN.md §14): static lock-order analysis
(:mod:`.lockorder`), the vector-clock happens-before checker over sync
traces of both tiers — the thread tier's recorded traces and the
process engine's barrier protocol (:mod:`.happens_before`) — and the
DPOR-lite schedule explorer (:mod:`.explore`). All are wired into the ``repro
analyze`` CLI verb; their outcome counters (:mod:`.counters`) surface in
``repro stats`` and the run manifest.
"""

from repro.analysis.binpack import first_fit_binpack
from repro.analysis.blocking import build_blockset
from repro.analysis.coarsening import build_coarsenset
from repro.analysis.cost_model import node_cost, subtree_cost
from repro.analysis.explore import (
    ScenarioSuite,
    ScheduleExplorer,
    ScheduleReport,
    explore_default_scenarios,
    schedule_footprint,
)
from repro.analysis.happens_before import (
    HBViolation,
    certify_sync_trace,
    certify_sync_trace_dir,
    certify_sync_trace_file,
    is_engine_trace,
    seed_overlap_violation,
    seed_unordered_pair,
)
from repro.analysis.counters import (
    analysis_counters,
    bump_analysis_counter,
    reset_analysis_counters,
)
from repro.analysis.lockorder import (
    LOCK_RULES,
    LockOrderReport,
    analyze_lock_order,
)
from repro.analysis.lint import (
    RULES,
    Finding,
    findings_to_doc,
    lint_paths,
    lint_source,
)
from repro.analysis.structure_sets import BlockSet, CoarsenLevel, CoarsenSet, SubTree

__all__ = [
    "build_blockset",
    "build_coarsenset",
    "first_fit_binpack",
    "node_cost",
    "subtree_cost",
    "BlockSet",
    "CoarsenSet",
    "CoarsenLevel",
    "SubTree",
    # correctness analysis (DESIGN.md §13)
    "Finding",
    "HBViolation",
    "LOCK_RULES",
    "LockOrderReport",
    "RULES",
    "ScenarioSuite",
    "ScheduleExplorer",
    "ScheduleReport",
    "analysis_counters",
    "analyze_lock_order",
    "bump_analysis_counter",
    "certify_sync_trace",
    "certify_sync_trace_dir",
    "certify_sync_trace_file",
    "explore_default_scenarios",
    "findings_to_doc",
    "is_engine_trace",
    "lint_paths",
    "lint_source",
    "reset_analysis_counters",
    "schedule_footprint",
    "seed_overlap_violation",
    "seed_unordered_pair",
]
