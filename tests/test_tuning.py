"""repro.tuning: profile-guided policy autotuning.

Covers the tentpole acceptance criteria:

* profiles round-trip through a PlanStore reopen with **zero re-tunes**
  (counter-asserted);
* ``order="auto"`` returns **bit-identical** results to every fixed
  policy it can select (orders x backends x float32/float64);
* re-tunes trigger exactly on the profile-key axes (width-bucket drift,
  pins, fingerprint);
* the satellite policy-resolution bugfixes (identity-against-None in
  ``Executor``; weakref-guarded engine identity) stay fixed.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.api.policy import (
    DEFAULT_POLICY,
    VALID_ORDERS,
    ExecutionPolicy,
    coalesce_policy,
    effective_cpu_count,
    resolve_policy,
)
from repro.api.service import KernelService
from repro.api.session import Session
from repro.api.store import PlanStore
from repro.api.plan import PlanConfig
from repro.core.executor import Executor
from repro.core.io import (
    PlanStoreError,
    load_tuning_profile,
    save_tuning_profile,
)
from repro.host import host_key, host_signature
from repro.tuning import (
    Autotuner,
    TuningProfile,
    hmatrix_fingerprint,
    policy_from_knobs,
    policy_knobs,
    tune,
    width_bucket,
)
from repro.tuning.profile import policy_pins

PLAN_32 = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)


@pytest.fixture()
def H(points_2d, gaussian_kernel, inspector_small):
    return inspector_small.run(points_2d, gaussian_kernel)


@pytest.fixture()
def W(points_2d):
    return np.random.default_rng(3).random((len(points_2d), 8))


def make_tuner(**kw):
    """A fast test tuner: 1 rep, tiny trial panels."""
    kw.setdefault("reps", 1)
    kw.setdefault("trial_cols", 4)
    return Autotuner(**kw)


# --------------------------------------------------------------------------
# Keys: width bucket, host signature, HMatrix fingerprint.
# --------------------------------------------------------------------------

class TestProfileKeys:
    def test_width_bucket_power_of_two_ceiling(self):
        assert [width_bucket(q) for q in (1, 2, 3, 4, 5, 16, 17, 256, 257)] \
            == [1, 2, 4, 4, 8, 16, 32, 256, 512]
        assert width_bucket(0) == 1
        assert width_bucket(10**9) == 4096  # capped

    def test_host_signature_axes(self):
        host = host_signature()
        assert set(host) == {"cpus", "blas", "machine"}
        assert host["cpus"] == effective_cpu_count() >= 1
        assert isinstance(host["blas"], str) and host["blas"]
        # canonical key is stable and order-independent
        assert host_key(host) == host_key(dict(reversed(list(host.items()))))

    def test_effective_cpu_count_respects_affinity(self):
        import os
        if hasattr(os, "sched_getaffinity"):
            assert effective_cpu_count() == len(os.sched_getaffinity(0))
        assert effective_cpu_count() >= 1

    def test_fingerprint_is_content_not_identity(self, H, points_2d,
                                                 gaussian_kernel,
                                                 inspector_small, tmp_path):
        from repro.core.io import load_hmatrix, save_hmatrix

        fp = hmatrix_fingerprint(H)
        assert fp == hmatrix_fingerprint(H)
        # survives a save/load round trip (different Python object)
        save_hmatrix(H, tmp_path / "h.npz")
        H2 = load_hmatrix(tmp_path / "h.npz")
        assert H2 is not H and hmatrix_fingerprint(H2) == fp
        # a different operator fingerprints differently
        other = inspector_small.run(
            np.random.default_rng(99).random((400, 2)), gaussian_kernel)
        assert hmatrix_fingerprint(other) != fp

    def test_key_separates_pins(self, H):
        host = host_signature()
        fp = hmatrix_fingerprint(H)
        plain = TuningProfile.make_key(fp, 16, host, {})
        pinned = TuningProfile.make_key(fp, 16, host, {"q_chunk": 64})
        assert plain != pinned

    def test_policy_pins(self):
        assert policy_pins(ExecutionPolicy(order="auto")) == {}
        pins = policy_pins(ExecutionPolicy(order="auto", q_chunk=64,
                                           num_threads=2))
        assert pins == {"q_chunk": 64, "num_threads": 2}


# --------------------------------------------------------------------------
# Profile record: dict round trip, version skew, io artifacts.
# --------------------------------------------------------------------------

class TestProfileRecord:
    def make(self):
        return TuningProfile(
            hmatrix_fp="abc", width_bucket=16, host=host_signature(),
            policy={"order": "batched"},
            candidates=[{"policy": {"order": "batched"}, "seconds": 0.01,
                         "measured": True}],
            source="measured", margin=1.5, trials=2)

    def test_dict_round_trip(self):
        prof = self.make()
        clone = TuningProfile.from_dict(prof.to_dict())
        assert clone.key == prof.key
        assert clone.policy == prof.policy
        assert clone.best_policy() == ExecutionPolicy(order="batched")

    def test_version_skew_rejected(self):
        doc = self.make().to_dict()
        doc["version"] = 999
        with pytest.raises(ValueError, match="version"):
            TuningProfile.from_dict(doc)

    def test_malformed_policy_rejected(self):
        doc = self.make().to_dict()
        doc["policy"] = {"order": "no-such-order"}
        with pytest.raises(ValueError):
            TuningProfile.from_dict(doc)

    def test_io_round_trip_and_fail_closed(self, tmp_path):
        prof = self.make()
        path = save_tuning_profile(prof, tmp_path / "prof.npz")
        assert load_tuning_profile(path) == prof.to_dict()
        # truncation fails closed like every other artifact
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(PlanStoreError):
            load_tuning_profile(path)

    def test_policy_knob_round_trip(self):
        pol = ExecutionPolicy(order="original", num_threads=2, q_chunk=64)
        assert policy_from_knobs(policy_knobs(pol)) == pol
        with pytest.raises(ValueError, match="unknown policy knob"):
            policy_from_knobs({"order": "batched", "bogus": 1})


# --------------------------------------------------------------------------
# Tuning runs: priors, measurement, pins, counters.
# --------------------------------------------------------------------------

#: The grids the candidate-backend registry returned for the
#: ``hmatrix_2d`` plan before the fused order was retired, keyed
#: "<cpus>:<q>". The fixed grid must return them minus that order.
REGISTRY_GRIDS = {
    "1:1": [{"order": "batched"}, {"order": "original"},
            {"order": "compiled"}],
    "1:32": [{"order": "batched"}, {"order": "original"}],
    "1:512": [{"order": "batched"}, {"order": "batched", "q_chunk": 512},
              {"order": "original"}],
    "2:1": [{"order": "batched"}, {"order": "original"},
            {"num_threads": 2, "order": "original"}, {"order": "compiled"}],
    "2:32": [{"order": "batched"}, {"order": "original"},
             {"num_threads": 2, "order": "original"}],
    "2:512": [{"order": "batched"}, {"order": "batched", "q_chunk": 512},
              {"order": "original"}, {"num_threads": 2, "order": "original"},
              {"backend": "process", "num_workers": 2, "order": "batched"}],
}


class TestCandidateGrid:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("q", [1, 32, 512])
    def test_grid_is_the_registry_grid_minus_the_fused_order(
            self, hmatrix_2d, cpus, q):
        want = [knobs for knobs in REGISTRY_GRIDS[f"{cpus}:{q}"]
                if knobs != {"order": "compiled"}]
        tuner = Autotuner(host={"cpus": cpus})
        assert tuner.candidate_policies(hmatrix_2d, q) == want


class TestAutotuner:
    def test_prior_shortcut_below_measurement_floor(self, H):
        tuner = make_tuner(min_measured_flops=float("inf"))
        prof = tuner.tune(H, 8)
        assert prof.source == "prior" and prof.trials == 0
        assert tuner.stats.prior_shortcuts == 1
        assert all(not c["measured"] for c in prof.candidates)

    def test_measured_tuning_ranks_candidates(self, H):
        tuner = make_tuner(min_measured_flops=0.0)
        prof = tuner.tune(H, 8)
        assert prof.source == "measured" and prof.trials > 0
        secs = [c["seconds"] for c in prof.candidates]
        assert secs == sorted(secs)
        assert prof.policy == prof.candidates[0]["policy"]
        assert prof.margin >= 1.0

    def test_resolve_passes_fixed_policies_through(self, H):
        tuner = make_tuner()
        fixed = ExecutionPolicy(order="original", q_chunk=32)
        assert tuner.resolve(H, 8, fixed) is fixed
        assert tuner.stats.tunes == 0

    def test_resolve_auto_never_returns_auto(self, H):
        tuner = make_tuner()
        pol = tuner.resolve(H, 8, ExecutionPolicy(order="auto"))
        assert not pol.is_auto
        assert pol.order in ("batched", "original")

    def test_pinned_knobs_are_honored(self, H):
        tuner = make_tuner(min_measured_flops=0.0)
        pinned = ExecutionPolicy(order="auto", q_chunk=48)
        prof = tuner.profile_for(H, 8, pinned)
        assert prof.pins == {"q_chunk": 48}
        assert all(c["policy"]["q_chunk"] == 48 for c in prof.candidates)
        assert tuner.resolve(H, 8, pinned).q_chunk == 48

    def test_candidates_use_concrete_orders(self, H):
        # Every candidate names an order the policy accepts, and never
        # "auto" itself: auto must resolve to something it can run.
        tuner = make_tuner()
        concrete = set(VALID_ORDERS) - {"auto"}
        for knobs in tuner.candidate_policies(H, 8):
            assert knobs["order"] in concrete

    def test_memory_hit_on_second_resolve(self, H):
        tuner = make_tuner()
        tuner.resolve(H, 8, ExecutionPolicy(order="auto"))
        tuner.resolve(H, 8, ExecutionPolicy(order="auto"))
        assert tuner.stats.tunes == 1
        assert tuner.stats.memory_hits == 1

    def test_width_bucket_drift_retunes(self, H):
        tuner = make_tuner()
        auto = ExecutionPolicy(order="auto")
        tuner.resolve(H, 2, auto)
        tuner.resolve(H, 2, auto)        # same bucket: no re-tune
        tuner.resolve(H, 300, auto)      # bucket 512: re-tune
        assert tuner.stats.tunes == 2
        assert len(tuner.profiles()) == 2

    def test_fingerprint_memo_evicted_on_collection(
            self, inspector_small, gaussian_kernel):
        # The tuner's id()-keyed fingerprint memo is weakref-guarded like
        # every other identity cache: a recycled id must never serve (or
        # persist a profile under) a stale fingerprint.
        tuner = make_tuner()
        Hx = inspector_small.run(
            np.random.default_rng(55).random((300, 2)), gaussian_kernel)
        tuner.resolve(Hx, 2, ExecutionPolicy(order="auto"))
        key = id(Hx)
        assert key in tuner._fingerprints
        del Hx
        gc.collect()
        assert key not in tuner._fingerprints

    def test_concurrent_cold_resolutions_tune_once(self, H):
        import threading

        tuner = make_tuner(min_measured_flops=0.0)
        real_measure = tuner._measure
        started = threading.Barrier(4)

        def slow_measure(Hm, pol, W):
            return real_measure(Hm, pol, W)

        tuner._measure = slow_measure
        results = []

        def resolve():
            started.wait()
            results.append(tuner.resolve(H, 8, ExecutionPolicy(
                order="auto")))

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tuner.stats.tunes == 1        # one trial grid, not four
        assert len(set(results)) == 1        # everyone got the winner

    def test_wide_bucket_chunk_candidate_is_discriminated(self, H):
        # The q_chunk candidate only appears when the trial panel is
        # actually wide enough to tell it apart from the default chunk
        # (a candidate measured on identical work is pure noise).
        tuner = Autotuner(reps=1)           # default trial width
        for knobs in tuner.candidate_policies(H, 2048):
            chunk = knobs.get("q_chunk")
            if chunk is not None:
                assert chunk <= tuner._trial_width(2048)
                assert chunk > 256          # genuinely different chunking
        narrow = Autotuner(reps=1, trial_cols=4)
        assert all("q_chunk" not in knobs
                   for knobs in narrow.candidate_policies(H, 2048))

    def test_module_level_tune_convenience(self, H, tmp_path):
        store = PlanStore(tmp_path)
        prof = tune(H, q=8, store=store, reps=1)
        assert isinstance(prof, TuningProfile)
        assert store.get("profile", prof.key) == prof.to_dict()


# --------------------------------------------------------------------------
# Persistence: PlanStore round trip, zero re-tunes across "restarts".
# --------------------------------------------------------------------------

class TestProfilePersistence:
    def test_store_round_trip_zero_retunes(self, H, tmp_path):
        cold = make_tuner(store=PlanStore(tmp_path))
        cold.resolve(H, 8, ExecutionPolicy(order="auto"))
        assert cold.stats.tunes == 1

        # a "fresh process": new tuner, new PlanStore over the same dir
        warm = make_tuner(store=PlanStore(tmp_path))
        pol = warm.resolve(H, 8, ExecutionPolicy(order="auto"))
        assert warm.stats.tunes == 0          # zero re-tunes when warm
        assert warm.stats.store_hits == 1
        assert pol == cold.resolve(H, 8, ExecutionPolicy(order="auto"))

    def test_corrupt_stored_profile_degrades_to_retune(self, H, tmp_path):
        store = PlanStore(tmp_path)
        cold = make_tuner(store=store)
        prof = cold.profile_for(H, 8, ExecutionPolicy(order="auto"))
        # overwrite with a version-skewed doc: valid artifact, stale schema
        doc = prof.to_dict()
        doc["version"] = 999
        store.put("profile", prof.key, doc)
        store.clear_memory()
        warm = make_tuner(store=store)
        warm.profile_for(H, 8, ExecutionPolicy(order="auto"))
        assert warm.stats.tunes == 1          # skew = re-tune, not error

    def test_stored_retired_order_profile_retunes_once(self, H, tmp_path):
        """A profile stored by a build that still had the fused
        "compiled" order names a winner this build cannot run: it is a
        miss that re-tunes once (never served, never raised), and the
        re-persisted profile replays."""
        auto = ExecutionPolicy(order="auto")
        prof = make_tuner(store=PlanStore(tmp_path)).profile_for(H, 8, auto)
        retired = {"order": "compiled"}
        doc = prof.to_dict()
        doc["policy"] = dict(retired)
        doc["candidates"] = [{"policy": dict(retired), "seconds": 1e-6,
                              "measured": True}, *doc["candidates"]]
        PlanStore(tmp_path).put("profile", prof.key, doc)

        fresh = make_tuner(store=PlanStore(tmp_path))
        pol = fresh.resolve(H, 8, auto)
        assert fresh.stats.tunes == 1
        assert fresh.stats.store_hits == 0
        assert pol.order in ("batched", "original")

        replay = make_tuner(store=PlanStore(tmp_path))
        assert replay.resolve(H, 8, auto) == pol
        assert replay.stats.tunes == 0
        assert replay.stats.store_hits == 1

    def test_host_signature_change_misses_and_like_host_replays(
            self, H, tmp_path, monkeypatch):
        """Profiles key off repro.host's signature: a like host replays
        a stored profile, a moved signature (new BLAS vendor) misses."""
        store = PlanStore(tmp_path)
        auto = ExecutionPolicy(order="auto")
        h1 = host_signature()
        make_tuner(store=store, host=h1).profile_for(H, 4, auto)

        store.clear_memory()
        like = make_tuner(store=store, host=h1)
        like.profile_for(H, 4, auto)
        assert like.stats.tunes == 0 and like.stats.store_hits == 1

        monkeypatch.setattr("repro.host._blas_vendor", lambda: "other-blas")
        h2 = host_signature()
        assert host_key(h2) != host_key(h1)
        moved = make_tuner(store=store, host=h2)
        moved.profile_for(H, 4, auto)
        assert moved.stats.tunes == 1 and moved.stats.store_hits == 0

    def test_session_persists_profiles(self, points_2d, tmp_path):
        auto = ExecutionPolicy(order="auto")
        W = np.random.default_rng(0).random((len(points_2d), 8))
        with Session(plan=PLAN_32, policy=auto,
                     store=PlanStore(tmp_path)) as cold:
            Hc = cold.inspect(points_2d)
            Yc = cold.matmul(Hc, W)
            assert cold.cache_info()["autotune"]["tunes"] == 1

        with Session(plan=PLAN_32, policy=auto,
                     store=PlanStore(tmp_path)) as warm:
            Hw = warm.inspect(points_2d)
            Yw = warm.matmul(Hw, W)
            info = warm.cache_info()
        assert info["p1_builds"] == 0 and info["p2_builds"] == 0
        assert info["autotune"]["tunes"] == 0          # profile warm too
        assert info["autotune"]["store_hits"] == 1
        np.testing.assert_array_equal(Yc, Yw)


# --------------------------------------------------------------------------
# Equivalence matrix: auto is bit-identical to whatever it selects.
# --------------------------------------------------------------------------

FIXED_POLICIES = [
    ExecutionPolicy(order="batched"),
    ExecutionPolicy(order="original"),
    ExecutionPolicy(order="batched", q_chunk=64),
    ExecutionPolicy(order="original", num_threads=2),
    ExecutionPolicy(order="batched", backend="process", num_workers=0),
]


class TestAutoEquivalenceMatrix:
    """order="auto" must add *zero* numerical perturbation: for every
    fixed policy the tuner can select (orders x backends), resolving to
    it and evaluating yields bit-identical results, for float32 and
    float64 right-hand sides."""

    @pytest.mark.parametrize("fixed", FIXED_POLICIES,
                             ids=lambda p: f"{p.order}-{p.backend}"
                             f"-t{p.num_threads}-w{p.num_workers}"
                             f"-c{p.q_chunk}")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_auto_bit_identical_to_selected_policy(self, H, points_2d,
                                                   fixed, dtype):
        W = np.random.default_rng(5).random(
            (len(points_2d), 8)).astype(dtype)
        tuner = make_tuner()
        # Pin the tuner's verdict to `fixed` by planting its profile.
        prof = TuningProfile(
            hmatrix_fp=hmatrix_fingerprint(H), width_bucket=width_bucket(8),
            host=tuner.host, policy=policy_knobs(fixed), source="measured")
        tuner._profiles[prof.key] = prof

        with Executor(policy=ExecutionPolicy(order="auto"),
                      autotuner=tuner) as ex_auto, \
                Executor(policy=fixed) as ex_fixed:
            Y_auto = ex_auto.matmul(H, W)
            Y_fixed = ex_fixed.matmul(H, W)
        assert tuner.stats.memory_hits >= 1   # the profile actually served
        np.testing.assert_array_equal(Y_auto, Y_fixed)

    def test_organically_tuned_auto_matches_winner(self, H, points_2d):
        W = np.random.default_rng(6).random((len(points_2d), 8))
        tuner = make_tuner(min_measured_flops=0.0)
        with Executor(policy=ExecutionPolicy(order="auto"),
                      autotuner=tuner) as ex:
            Y_auto = ex.matmul(H, W)
        winner = tuner.profiles()[0].best_policy()
        np.testing.assert_array_equal(Y_auto, H.matmul(W, policy=winner))


# --------------------------------------------------------------------------
# Service integration: auto under the dispatcher, drift re-tunes.
# --------------------------------------------------------------------------

class TestServiceAuto:
    def test_service_resolves_auto_and_reports_stats(self, points_2d):
        with KernelService(plan=PLAN_32,
                           policy=ExecutionPolicy(order="auto"),
                           max_batch=4, max_wait_ms=0.0) as service:
            service.register("pts", points_2d, kernel="gaussian")
            W = np.random.default_rng(0).random((len(points_2d), 4))
            Y = service.request("pts", W, timeout=60)
            stats = service.stats()
        assert Y.shape == (len(points_2d), 4)
        assert stats["autotune"]["tunes"] >= 1

    def test_batch_width_drift_retunes(self, points_2d):
        with KernelService(plan=PLAN_32,
                           policy=ExecutionPolicy(order="auto"),
                           max_batch=1, max_wait_ms=0.0) as service:
            service.register("pts", points_2d, kernel="gaussian",
                             warm=True)
            rng = np.random.default_rng(1)
            n = len(points_2d)
            service.request("pts", rng.random((n, 2)), timeout=60)
            t1 = service.stats()["autotune"]["tunes"]
            service.request("pts", rng.random((n, 2)), timeout=60)
            t2 = service.stats()["autotune"]["tunes"]
            service.request("pts", rng.random((n, 300)), timeout=60)
            t3 = service.stats()["autotune"]["tunes"]
        assert t1 == 1
        assert t2 == 1        # same bucket: served from the profile
        assert t3 == 2        # drifted bucket: exactly one re-tune


# --------------------------------------------------------------------------
# Satellite regressions: Executor policy resolution + engine identity.
# --------------------------------------------------------------------------

class FalsyPolicy(ExecutionPolicy):
    """A policy that is falsy — the exact hazard `policy or self.policy`
    had: an explicitly passed policy silently swapped for the default."""

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return False


class TestExecutorPolicyResolutionRegression:
    """Mirrors PR 4's Session.matmul tests for Executor.matmul /
    matmul_many / engine_for: identity-against-None is the contract."""

    def test_coalesce_policy_uses_identity(self):
        falsy = FalsyPolicy(order="original")
        assert coalesce_policy(falsy, DEFAULT_POLICY) is falsy
        assert coalesce_policy(None, DEFAULT_POLICY) is DEFAULT_POLICY

    def test_resolve_policy_honors_falsy_policy(self):
        assert resolve_policy(FalsyPolicy(order="original")).order \
            == "original"
        fallback = ExecutionPolicy(order="auto")
        assert resolve_policy(None, fallback=fallback).order == "auto"
        assert resolve_policy(FalsyPolicy(order="original"),
                              fallback=fallback).order == "original"

    def test_executor_matmul_honors_falsy_policy(self, H, W):
        captured = {}
        real = H.matmul

        def spy(W_, **kw):
            captured.update(kw)
            return real(W_, **kw)

        H.matmul = spy
        try:
            with Executor(policy=ExecutionPolicy(order="original",
                                                 q_chunk=96)) as ex:
                ex.matmul(H, W, policy=FalsyPolicy(order="batched",
                                                   q_chunk=32))
        finally:
            del H.matmul
        assert captured["order"] == "batched"      # not the executor's
        assert captured["q_chunk"] == 32

    def test_executor_matmul_many_honors_falsy_policy(self, H, W):
        captured = {}
        real = H.matmul

        def spy(W_, **kw):
            captured.update(kw)
            return real(W_, **kw)

        H.matmul = spy
        try:
            with Executor(policy=ExecutionPolicy(order="original")) as ex:
                ex.matmul_many(H, W, policy=FalsyPolicy(order="batched"))
        finally:
            del H.matmul
        assert captured["order"] == "batched"

    def test_engine_for_honors_falsy_policy(self, H):
        with Executor(policy=ExecutionPolicy(
                backend="process", num_workers=0, q_chunk=128)) as ex:
            engine = ex.engine_for(H, FalsyPolicy(
                backend="process", num_workers=0, q_chunk=32))
            assert engine.q_cap == 32              # not the executor's 128


class TestEngineIdentityRegression:
    """Satellite fix: engines are keyed by weakref-guarded identity.
    CPython reuses ids after collection, so an HMatrix's death must
    evict (and close) its engine before a recycled id can alias it."""

    def make_H(self, seed, inspector_small, gaussian_kernel):
        pts = np.random.default_rng(seed).random((300, 2))
        return inspector_small.run(pts, gaussian_kernel)

    def test_engine_evicted_and_closed_on_collection(
            self, inspector_small, gaussian_kernel):
        with Executor(policy=ExecutionPolicy(backend="process",
                                             num_workers=0)) as ex:
            H = self.make_H(21, inspector_small, gaussian_kernel)
            engine = ex.engine_for(H)
            assert len(ex._engines) == 1
            del H
            gc.collect()
            assert len(ex._engines) == 0           # finalizer evicted it
            assert engine.closed                   # and closed it
            assert engine.H is None                # weak ref, not a pin

    def test_id_reuse_never_aliases_a_stale_engine(
            self, inspector_small, gaussian_kernel):
        # Force the allocator toward id reuse: repeatedly drop an
        # HMatrix and build a similar one. Whether or not CPython
        # actually recycles the id, every lookup must yield an engine
        # whose H *is* the matrix asked about, with correct results.
        with Executor(policy=ExecutionPolicy(backend="process",
                                             num_workers=0)) as ex:
            seen_ids = set()
            reused = False
            for seed in range(6):
                H = self.make_H(seed, inspector_small, gaussian_kernel)
                reused |= id(H) in seen_ids
                seen_ids.add(id(H))
                engine = ex.engine_for(H)
                assert engine.H is H
                W = np.random.default_rng(seed).random((300, 3))
                np.testing.assert_array_equal(
                    engine.matmul(W), H.matmul(W, order="batched"))
                del H
                gc.collect()
            assert len(ex._engines) == 0

    def test_capacity_eviction_detaches_finalizer(
            self, inspector_small, gaussian_kernel):
        # An H dying *after* its engine was LRU-evicted must not close a
        # successor entry that may have recycled its id.
        with Executor(policy=ExecutionPolicy(backend="process",
                                             num_workers=0)) as ex:
            ex._max_engines = 1
            H1 = self.make_H(31, inspector_small, gaussian_kernel)
            H2 = self.make_H(32, inspector_small, gaussian_kernel)
            e1 = ex.engine_for(H1)
            e2 = ex.engine_for(H2)           # evicts e1 (capacity)
            assert e1.closed and not e2.closed
            del H1
            gc.collect()
            assert list(ex._engines.values())[0][0] is e2
            assert not e2.closed


class TestPointsFingerprintIdReuseRegression:
    """Satellite fix companion: the id()-keyed fingerprint memo must
    never serve a stale hash after collection recycles an id."""

    def test_forced_gc_evicts_memo_entry(self):
        from repro.api.session import _FP_CACHE, points_fingerprint

        pts = np.random.default_rng(41).random((128, 2))
        key = id(pts)
        points_fingerprint(pts)
        assert key in _FP_CACHE
        del pts
        gc.collect()
        assert key not in _FP_CACHE            # finalizer evicted it

    def test_id_reuse_yields_correct_fingerprints(self):
        from repro.api.session import points_fingerprint

        seen = {}
        reused = 0
        for seed in range(8):
            pts = np.random.default_rng(seed).random((256, 2))
            fp = points_fingerprint(pts)
            if id(pts) in seen:
                reused += 1
            seen[id(pts)] = fp
            # recompute from scratch (memo bypassed via a copy): the
            # memoized answer must match the true content hash
            assert points_fingerprint(pts.copy()) == fp
            del pts
            gc.collect()
