"""Failure-injection tests: malformed inputs must fail fast and clearly.

A downstream adopter's first contact with the library is often a wrong
shape or a bad parameter; every public entry point should reject those with
an actionable ValueError instead of a deep NumPy broadcast error.

The chaos classes at the bottom go further (DESIGN.md section 10): a
:class:`~repro.observability.FaultPlan` names the exact interleaving
point where a worker process dies or a store artifact rots, and the
tests assert the *whole* failure contract — a typed error on the faulted
request, counters proving exactly one respawn/rebuild, and a bit-identical
result on the retry.
"""

import json

import numpy as np
import pytest

from repro import (
    Autotuner,
    ExecutionPolicy,
    Inspector,
    PlanConfig,
    PlanStore,
    PlanStoreError,
    Session,
    WorkerCrashError,
    inspector,
    load_hmatrix,
)
from repro.compression import interpolative_decomposition
from repro.core.evaluation import evaluate_reference
from repro.observability import FaultPlan, inject_faults
from repro.observability.faults import BARRIER_PHASES
from repro.sampling import build_sampling_plan
from repro.tree import build_cluster_tree
from repro.tree.cluster_tree import ClusterTree

#: Plan used by every chaos test (small + fixed p: fingerprints are
#: machine-independent, so compile/tamper/retry all address one artifact).
CHAOS_PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)


class TestPointValidation:
    def test_empty_points(self):
        with pytest.raises(ValueError):
            inspector(np.zeros((0, 2)), kernel="gaussian")

    def test_nan_points(self):
        pts = np.random.default_rng(0).random((50, 2))
        pts[7, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            inspector(pts, kernel="gaussian")

    def test_inf_points(self):
        pts = np.random.default_rng(0).random((50, 2))
        pts[3, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            build_cluster_tree(pts)

    def test_3d_array_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            build_cluster_tree(np.zeros((4, 4, 4)))

    def test_1d_points_promoted(self):
        """1-D input is a valid d=1 point set, not an error."""
        tree = build_cluster_tree(np.linspace(0, 1, 40), leaf_size=8)
        assert tree.dim == 1


class TestParameterValidation:
    def test_bad_bacc(self, points_2d):
        # Validation moved up front: a bad plan fails at construction,
        # not deep inside the compression sweep.
        with pytest.raises(ValueError, match="bacc"):
            Inspector(bacc=-1e-5, leaf_size=32)

    def test_bad_structure(self, points_2d):
        with pytest.raises(ValueError, match="unknown structure"):
            inspector(points_2d, kernel="gaussian", structure="h5")

    def test_bad_kernel_name(self, points_2d):
        with pytest.raises(KeyError, match="unknown kernel"):
            inspector(points_2d, kernel="rbf-typo")

    def test_bad_sampling_k(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        # k is clamped to N-1 internally; only a degenerate tree fails.
        plan = build_sampling_plan(tree, k=10**9, seed=0)
        assert plan.k == len(points_2d) - 1

    def test_id_on_garbage(self):
        with pytest.raises(ValueError):
            interpolative_decomposition(np.array([1.0, 2.0]))  # 1-D


class TestEvaluationInputs:
    def test_wrong_w_rows(self, hmatrix_2d):
        with pytest.raises(ValueError, match="rows"):
            hmatrix_2d.matmul(np.zeros((hmatrix_2d.dim + 1, 2)))

    def test_reference_wrong_rows(self, hmatrix_2d):
        with pytest.raises(ValueError, match="rows"):
            evaluate_reference(hmatrix_2d.factors,
                               np.zeros((3, 2)))

    def test_w_dtype_coerced_not_crash(self, hmatrix_2d):
        W = np.ones((hmatrix_2d.dim, 2), dtype=np.float32)
        Y = hmatrix_2d.matmul(W)
        assert Y.dtype == np.float64

    def test_w_fortran_order_ok(self, hmatrix_2d):
        W = np.asfortranarray(
            np.random.default_rng(0).random((hmatrix_2d.dim, 3)))
        Y = hmatrix_2d.matmul(W)
        assert np.isfinite(Y).all()


class TestCorruptArtifacts:
    def test_load_nonexistent_file(self, tmp_path):
        with pytest.raises(PlanStoreError, match="does not exist"):
            load_hmatrix(tmp_path / "missing.npz")

    def test_load_wrong_file(self, tmp_path):
        path = tmp_path / "notanhmatrix.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(PlanStoreError, match="corrupted"):
            load_hmatrix(path)

    def test_version_check(self, hmatrix_2d, tmp_path):
        from repro.core import io as hio

        path = hio.save_hmatrix(hmatrix_2d, tmp_path / "h.npz")
        old = hio._FORMAT_VERSION
        try:
            hio._FORMAT_VERSION = 999
            with pytest.raises(PlanStoreError, match="version"):
                hio.load_hmatrix(path)
        finally:
            hio._FORMAT_VERSION = old


class TestTreeInvariantEnforcement:
    def test_bad_perm_rejected(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        bad_perm = tree.perm.copy()
        bad_perm[0] = bad_perm[1]  # not a permutation
        with pytest.raises(ValueError, match="permutation"):
            ClusterTree(tree.points, bad_perm, tree.parent, tree.lchild,
                        tree.rchild, tree.level, tree.start, tree.stop)

    def test_root_range_checked(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        bad_stop = tree.stop.copy()
        bad_stop[0] = 5
        with pytest.raises(ValueError, match="root"):
            ClusterTree(tree.points, tree.perm, tree.parent, tree.lchild,
                        tree.rchild, tree.level, tree.start, bad_stop)

    def test_array_length_mismatch(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        with pytest.raises(ValueError, match="length"):
            ClusterTree(tree.points, tree.perm, tree.parent[:-1],
                        tree.lchild, tree.rchild, tree.level, tree.start,
                        tree.stop)


# --------------------------------------------------------------------------
# Chaos: deterministic fault schedules against the process pool and the
# plan store. Every test proves the full contract: typed error on the
# faulted request, counters showing exactly one respawn/rebuild, and a
# correct (bit-identical where the engine guarantees it) retry.
# --------------------------------------------------------------------------


def _flip_payload(directory, tier) -> int:
    """Flip one byte in every on-disk payload of ``tier``; returns count."""
    hit = 0
    for manifest_path in directory.glob("*.json"):
        if json.loads(manifest_path.read_text())["tier"] != tier:
            continue
        payload = manifest_path.with_suffix(".npz")
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        hit += 1
    assert hit, f"no {tier} artifact found to tamper with"
    return hit


class TestChaosWorkerCrash:
    """SIGKILL a pool worker at each barrier phase; the request must fail
    with the typed WorkerCrashError and the *next* request must respawn
    the pool (exactly one respawn counted) and match the serial result
    bit for bit."""

    @pytest.mark.parametrize("phase", BARRIER_PHASES)
    def test_kill_at_each_phase_then_respawn(self, phase, points_2d,
                                             gaussian_kernel):
        W = np.random.default_rng(7).random((len(points_2d), 4))
        policy = ExecutionPolicy(backend="process", num_workers=2)
        with Session(plan=CHAOS_PLAN, policy=policy) as session:
            H = session.inspect(points_2d, kernel=gaussian_kernel)
            ref = H.matmul(W, order="batched")  # serial ground truth
            np.testing.assert_array_equal(session.matmul(H, W), ref)

            with inject_faults(FaultPlan(kill_worker=(phase, 0))) as fp, \
                    pytest.raises(WorkerCrashError):
                session.matmul(H, W)
            assert fp.fired == [f"kill_worker:{phase}:0"]

            # Recovery: the dead engine is rebuilt once, then serves a
            # bit-identical product again.
            np.testing.assert_array_equal(session.matmul(H, W), ref)
            engines = session.cache_info()["engines"]
            assert engines["respawns"] == 1
            assert engines["built"] == 2
            assert engines["active"] == 1

    def test_worker_crash_error_is_runtime_error(self):
        # The typed error must stay catchable by pre-existing callers
        # that match RuntimeError.
        assert issubclass(WorkerCrashError, RuntimeError)

    def test_fault_plan_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="phase"):
            FaultPlan(kill_worker=("warmup", 0))

    def test_overlapping_plans_rejected(self):
        with inject_faults(FaultPlan()), \
                pytest.raises(RuntimeError, match="already installed"), \
                inject_faults(FaultPlan()):
            pass  # pragma: no cover


class TestChaosStoreCorruption:
    """Corruption under a *live* session: artifacts rot after warm() but
    before the next load. Every load fails closed (PlanStoreError), the
    rotten artifact is quarantined, and the retry rebuilds — counters
    prove exactly one miss + rebuild per corrupted tier."""

    def _compiled_store(self, tmp_path, points, kernel):
        d = tmp_path / "store"
        with Session(plan=CHAOS_PLAN, store=PlanStore(d)) as s:
            s.inspect(points, kernel=kernel)
        return d

    def test_hmatrix_rot_fails_closed_then_rebuilds(self, tmp_path,
                                                    points_2d,
                                                    gaussian_kernel):
        d = self._compiled_store(tmp_path, points_2d, gaussian_kernel)
        store = PlanStore(d)
        with Session(plan=CHAOS_PLAN, store=store) as session:
            assert session.warm() == 2  # p1 + hmatrix verified into memory
            _flip_payload(d, "hmatrix")
            store.clear_memory()  # the next get must go back to disk

            with pytest.raises(PlanStoreError):
                session.inspect(points_2d, kernel=gaussian_kernel)
            assert store.stats.quarantined == 1

            misses_before = store.stats.misses
            session.inspect(points_2d, kernel=gaussian_kernel)  # retry
            # Exactly one miss (the quarantined hmatrix) + one rebuild;
            # the intact p1 artifact still serves from disk.
            assert store.stats.misses == misses_before + 1
            assert session.stats.p2_builds == 1
            assert session.stats.p1_builds == 0
            assert session.stats.p1_hits == 1

            # Third request: clean hit on the rebuilt artifact.
            session.inspect(points_2d, kernel=gaussian_kernel)
            assert session.stats.hmatrix_hits >= 1
            assert store.stats.quarantined == 1  # still exactly one

    def test_cascading_rot_recovers_layer_by_layer(self, tmp_path,
                                                   points_2d,
                                                   gaussian_kernel):
        d = self._compiled_store(tmp_path, points_2d, gaussian_kernel)
        _flip_payload(d, "hmatrix")
        _flip_payload(d, "p1")
        store = PlanStore(d)
        with Session(plan=CHAOS_PLAN, store=store) as session:
            # First attempt dies on the hmatrix tier, second on p1: each
            # failure quarantines one layer, never more.
            with pytest.raises(PlanStoreError):
                session.inspect(points_2d, kernel=gaussian_kernel)
            assert store.stats.quarantined == 1
            with pytest.raises(PlanStoreError):
                session.inspect(points_2d, kernel=gaussian_kernel)
            assert store.stats.quarantined == 2
            # Both layers clean misses now: full rebuild, then verify the
            # rebuilt artifacts round-trip from disk.
            session.inspect(points_2d, kernel=gaussian_kernel)
            assert session.stats.p1_builds == 1
            assert session.stats.p2_builds == 1
            assert PlanStore(d).warm() == 2

    def test_verify_to_decode_rot_quarantines(self, tmp_path, points_2d,
                                              gaussian_kernel):
        """The TOCTOU window an on-disk tamper cannot reach: bytes rot
        *between* SHA-256 verification and decode. The store cannot tell
        this from real rot, so it must fail closed and quarantine."""
        d = self._compiled_store(tmp_path, points_2d, gaussian_kernel)
        store = PlanStore(d)
        with Session(plan=CHAOS_PLAN, store=store) as session:
            with inject_faults(FaultPlan(corrupt_tier="hmatrix")) as fp, \
                    pytest.raises(PlanStoreError):
                session.inspect(points_2d, kernel=gaussian_kernel)
            assert fp.fired == ["corrupt:hmatrix"]
            assert store.stats.quarantined == 1
            # Plan exhausted: the retry reads healthy bytes and rebuilds.
            session.inspect(points_2d, kernel=gaussian_kernel)
            assert session.stats.p2_builds == 1

    def test_profile_rot_fails_closed_then_retunes(self, tmp_path,
                                                   points_2d,
                                                   gaussian_kernel):
        H = Inspector(leaf_size=32, bacc=1e-6, p=4, seed=0).run(
            points_2d, gaussian_kernel)
        d = tmp_path / "store"
        auto = ExecutionPolicy(order="auto")
        first = Autotuner(store=PlanStore(d), reps=1, trial_cols=4)
        first.resolve(H, 4, auto)
        assert first.stats.tunes == 1

        _flip_payload(d, "profile")
        store = PlanStore(d)
        fresh = Autotuner(store=store, reps=1, trial_cols=4)
        # Fail closed: a rotten profile is NOT performance metadata to
        # shrug off — it is an integrity failure like any other artifact.
        with pytest.raises(PlanStoreError):
            fresh.resolve(H, 4, auto)
        assert store.stats.quarantined == 1
        # Retry re-tunes from scratch (no store hit) and repersists.
        fresh.resolve(H, 4, auto)
        assert fresh.stats.tunes == 1
        assert fresh.stats.store_hits == 0
