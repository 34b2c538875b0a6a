"""Tests for the process-parallel sharded backend (``backend="process"``).

Covers the ISSUE 3 checklist: process-vs-thread-vs-serial equivalence,
worker-count edge cases (0 / 1 / more workers than shard units), pool
reuse across ``matmul_many`` calls, and clean teardown (no leaked
shared-memory segments, no resource-tracker complaints).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import (
    Executor,
    ExecutionPolicy,
    ProcessEngine,
    Session,
    inspector,
    matmul,
    matmul_many,
)
from repro.api.policy import resolve_policy
from repro.core.parallel import shard_by_weight


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).random((900, 2))


@pytest.fixture(scope="module")
def H(points):
    H = inspector(points, kernel="gaussian", structure="h2-geometric",
                  leaf_size=32)
    assert H.evaluator.decision.batch  # buckets exist; batched path active
    return H


@pytest.fixture(scope="module")
def W(H):
    return np.random.default_rng(8).random((H.dim, 24))


@pytest.fixture(scope="module")
def y_batched(H, W):
    return H.matmul(W, order="batched")


@pytest.fixture(scope="module")
def engine(H):
    """One persistent 2-worker pool shared by the equivalence tests."""
    with ProcessEngine(H, num_workers=2) as eng:
        yield eng


class TestEquivalence:
    def test_bit_identical_to_serial_batched(self, engine, W, y_batched):
        np.testing.assert_array_equal(engine.matmul(W), y_batched)

    def test_matches_serial_and_threaded(self, engine, H, W):
        y_proc = engine.matmul(W)
        y_serial = H.matmul(W, order="original")
        with Executor(num_threads=2) as ex:
            y_thread = ex.matmul(H, W, order="original")
        scale = np.linalg.norm(y_serial)
        assert np.linalg.norm(y_proc - y_serial) / scale < 1e-12
        assert np.linalg.norm(y_proc - y_thread) / scale < 1e-12

    def test_vector_rhs(self, engine, H, W):
        y = engine.matmul(W[:, 0])
        assert y.ndim == 1
        # Compare at the same GEMM shape (q=1): BLAS picks different
        # kernels per shape, so bit-identity holds per identical call.
        np.testing.assert_array_equal(
            y, H.matmul(W[:, 0], order="batched"))

    def test_q_chunk_streaming_is_bit_identical(self, H, W):
        with ProcessEngine(H, num_workers=2, q_chunk=7) as eng:
            y = eng.matmul(W)
            assert eng.chunks == -(-W.shape[1] // 7)
        np.testing.assert_array_equal(
            y, H.matmul(W, order="batched", q_chunk=7))

    def test_wrong_row_count_rejected(self, engine, W):
        with pytest.raises(ValueError, match="rows"):
            engine.matmul(W[:-1])

    def test_batch_rejected_structure_matches_to_tolerance(self, points):
        # HSS declines batch lowering: serial order="batched" falls back
        # to per-block code, while the engine always runs the batched
        # tables — agreement is <1e-12 here, bitwise with the plan's
        # batched evaluator.
        H = inspector(points, kernel="gaussian", structure="hss",
                      leaf_size=32)
        assert not H.evaluator.decision.batch
        W = np.random.default_rng(9).random((H.dim, 6))
        ref = H.matmul(W, order="original")
        with ProcessEngine(H, num_workers=2) as eng:
            y = eng.matmul(W)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-12
        tables = np.empty_like(W)
        tables[H.tree.perm] = H.batched_evaluator(W[H.tree.perm])
        assert y.tobytes() == tables.tobytes()

    def test_order_original_wins_over_process_backend(self, H, W):
        # order="original" names the per-block code explicitly; it runs
        # in-process (no pool is built for it).
        pol = ExecutionPolicy(backend="process", num_workers=2)
        with Executor(policy=pol) as ex:
            y = ex.matmul(H, W, order="original")
            assert not ex._engines  # no engine was spun up
        np.testing.assert_array_equal(y, H.matmul(W, order="original"))


class TestWorkerCountEdgeCases:
    @pytest.mark.parametrize("workers", [0, 1, 16])
    def test_worker_counts(self, H, W, y_batched, workers):
        # 0 = inline (sharded code path, no pool); 1 = degenerate pool;
        # 16 far exceeds the shard-unit supply at N=900 (idle workers).
        with ProcessEngine(H, num_workers=workers) as eng:
            np.testing.assert_array_equal(eng.matmul(W), y_batched)
            assert len(eng.worker_pids()) == workers

    def test_inline_mode_uses_no_shared_memory(self, H, W):
        with ProcessEngine(H, num_workers=0) as eng:
            eng.matmul(W)
            assert eng.segment_names() == []

    def test_negative_workers_rejected_by_policy(self):
        with pytest.raises(ValueError, match="num_workers"):
            ExecutionPolicy(backend="process", num_workers=-1)


class TestPolicy:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy(backend="mpi")

    def test_default_backend_is_thread(self):
        assert ExecutionPolicy().backend == "thread"
        assert ExecutionPolicy().num_workers is None

    def test_resolution_precedence(self):
        pol = ExecutionPolicy(backend="process", num_workers=2)
        merged = resolve_policy(pol, num_workers=5)
        assert merged.backend == "process" and merged.num_workers == 5
        assert resolve_policy(None, backend="process").backend == "process"

    def test_free_functions_route_process_backend(self, H, W, y_batched):
        pol = ExecutionPolicy(backend="process", num_workers=1)
        np.testing.assert_array_equal(matmul(H, W, policy=pol), y_batched)
        np.testing.assert_array_equal(matmul_many(H, W, policy=pol),
                                      y_batched)

    def test_hmatrix_matmul_routes_process_backend(self, H, W, y_batched):
        pol = ExecutionPolicy(backend="process", num_workers=1)
        np.testing.assert_array_equal(H.matmul(W, policy=pol), y_batched)


class TestPoolReuse:
    def test_executor_reuses_engine_across_matmul_many(self, H, W,
                                                       y_batched):
        pol = ExecutionPolicy(backend="process", num_workers=2)
        with Executor(policy=pol) as ex:
            ex.matmul(H, W)
            engine = ex.engine_for(H)
            pids = engine.worker_pids()
            calls = engine.calls
            # Panel-stream form of matmul_many: one list in, list out.
            outs = ex.matmul_many(H, [W[:, :8], W[:, 8:]])
            assert engine.worker_pids() == pids       # same processes
            assert ex.engine_for(H) is engine         # same pool object
            assert engine.calls > calls
            np.testing.assert_array_equal(outs[0], y_batched[:, :8])
            np.testing.assert_array_equal(outs[1], y_batched[:, 8:])
        assert engine.closed

    def test_engine_cache_is_bounded(self, points, W):
        # Engines pin workers + shared memory, so the executor keeps an
        # LRU of at most _max_engines and closes evictees — a serving
        # Session over many datasets stays bounded. The HMatrices are
        # kept alive here: an engine whose HMatrix dies is evicted
        # immediately by its weakref finalizer (separate test), which
        # would otherwise empty the cache below the LRU bound.
        pol = ExecutionPolicy(backend="process", num_workers=0)
        with Executor(policy=pol) as ex:
            ex._max_engines = 2
            rng = np.random.default_rng(11)
            engines, hmats = [], []
            for _ in range(3):
                H = inspector(rng.random((300, 2)), kernel="gaussian",
                              structure="h2-geometric", leaf_size=32)
                hmats.append(H)
                ex.matmul(H, rng.random((300, 4)))
                engines.append(ex.engine_for(H))
            assert len(ex._engines) == 2
            assert engines[0].closed          # LRU victim
            assert not engines[1].closed and not engines[2].closed

    def test_session_owns_pool_lifecycle(self, points, W):
        pol = ExecutionPolicy(backend="process", num_workers=1)
        with Session(policy=pol) as session:
            H = session.inspect(points)
            y = session.matmul(H, W)
            engine = session._executor.engine_for(H)
            assert not engine.closed
            np.testing.assert_array_equal(y, H.matmul(W, order="batched"))
        assert engine.closed
        assert not any(
            os.path.exists(f"/dev/shm/{name}")
            for name in engine.segment_names()
        )


class TestSharedTables:
    """Workers run entries of the serial engine's own tables: they are
    dealt at start, nothing is rebuilt, and only scratch is shared."""

    def test_spawn_start_method_bytes_equal_batched(self, H, W, y_batched):
        with ProcessEngine(H, num_workers=2, start_method="spawn") as eng:
            np.testing.assert_array_equal(eng.matmul(W), y_batched)
            assert eng.matmul(W[:, :1]).tobytes() == H.matmul(
                W[:, :1], order="batched").tobytes()

    def test_pool_shares_scratch_only(self, H):
        with ProcessEngine(H, num_workers=2) as eng:
            assert len(eng.segment_names()) == 4  # W, Y, T, S

    def test_entries_are_the_serial_tables(self, H):
        tables = H.batched_evaluator.tables
        with ProcessEngine(H, num_workers=2) as eng:
            shards = eng._shards
        panels = [e[0] for shard in shards for e in shard.near]
        assert sorted(map(id, panels)) == sorted(
            id(e[0]) for e in tables.near)
        dealt = sum(len(P) for shard in shards for P, *_rest in shard.far)
        assert dealt == sum(len(P) for P, *_rest in tables.far)

    def test_rejected_plan_builds_its_tables_once(self, points,
                                                  monkeypatch):
        """A plan whose batching was rejected still owns one set of
        tables: two convenience calls (an engine each) build them once,
        and order="batched" keeps the per-block fallback."""
        from repro.codegen import emit

        H = inspector(points, kernel="gaussian", structure="hss",
                      leaf_size=32)
        assert not H.evaluator.decision.batch
        builds = []
        real = emit.build_batched_tables
        monkeypatch.setattr(emit, "build_batched_tables",
                            lambda cds: builds.append(cds) or real(cds))
        W = np.random.default_rng(12).random((H.dim, 4))
        pol = ExecutionPolicy(backend="process", num_workers=0)
        first = H.matmul(W, policy=pol)
        assert H.matmul(W, policy=pol).tobytes() == first.tobytes()
        assert len(builds) == 1
        assert (H.matmul(W, order="batched").tobytes()
                == H.matmul(W, order="original").tobytes())
        tables = H.batched_evaluator.tables
        with ProcessEngine(H, num_workers=0) as eng:
            assert eng._shards[0].near[0][0] is tables.near[0][0]
        assert len(builds) == 1

    def test_shard_pickle_rebinds_views(self, H):
        """Spawn pickles a worker's entries: every narrow-path slice must
        come back as a view of its unpickled panel (one copy, no extra
        per-call work), and every transposed stack and member slice as a
        view of its stack, in the layout the serial engine's GEMMs use."""
        with ProcessEngine(H, num_workers=2) as eng:
            shard = eng._shards[0]
        back = pickle.loads(pickle.dumps(shard))
        assert back.near and back.max_k == shard.max_k
        for e, f in zip(shard.near, back.near, strict=True):
            panel, slices = f[0], f[5]
            np.testing.assert_array_equal(panel, e[0])
            assert len(slices) == len(e[5])
            for (rows, a, b), (want, a0, b0) in zip(slices, e[5],
                                                     strict=True):
                assert np.shares_memory(rows, panel)
                assert (a, b) == (a0, b0)
                np.testing.assert_array_equal(rows, want)
        for level, level0 in zip(back.levels, shard.levels, strict=True):
            for bucket, bucket0 in zip(level, level0, strict=True):
                G, GT = bucket[0], bucket[1]
                assert np.shares_memory(GT, G)
                assert GT.strides == bucket0[1].strides
                np.testing.assert_array_equal(GT, bucket0[1])
                assert all(np.shares_memory(m[0], G) for m in bucket[6])
        for (P, *_rest, members), stack0 in zip(back.far, shard.far,
                                                strict=True):
            assert len(members) == len(stack0[3])
            assert all(np.shares_memory(m[0], P) for m in members)


class TestTeardown:
    def test_close_unlinks_all_segments(self, H, W):
        eng = ProcessEngine(H, num_workers=2)
        names = eng.segment_names()
        assert names  # W/Y/T/S scratch
        eng.matmul(W)
        eng.close()
        if os.path.isdir("/dev/shm"):
            leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
            assert leaked == []
        assert eng.closed
        eng.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            eng.matmul(W)

    def test_no_resource_tracker_leak_warnings(self, tmp_path):
        """End-of-process check: a clean run must not trip the
        multiprocessing resource tracker ("leaked shared_memory")."""
        script = tmp_path / "leakcheck.py"
        script.write_text(
            "import numpy as np\n"
            "from repro import ProcessEngine, inspector\n"
            "pts = np.random.default_rng(0).random((600, 2))\n"
            "H = inspector(pts, kernel='gaussian',\n"
            "              structure='h2-geometric', leaf_size=32)\n"
            "W = np.random.default_rng(1).random((600, 8))\n"
            "with ProcessEngine(H, num_workers=2) as eng:\n"
            "    eng.matmul(W)\n"
            "print('done')\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "resource_tracker" not in proc.stderr

    def test_worker_death_raises_instead_of_hanging(self, H, W):
        eng = ProcessEngine(H, num_workers=1)
        try:
            eng._workers[0].terminate()
            eng._workers[0].join(timeout=5)
            with pytest.raises(RuntimeError, match="worker"):
                eng.matmul(W)
            assert eng.closed  # failure path tears the pool down
        finally:
            eng.close()


class TestSharding:
    def test_lpt_is_deterministic_and_covers_all(self):
        weights = [5.0, 1.0, 3.0, 3.0, 2.0, 8.0]
        a = shard_by_weight(weights, 3)
        b = shard_by_weight(weights, 3)
        assert a == b
        assert sorted(i for s in a for i in s) == list(range(len(weights)))

    def test_more_shards_than_items(self):
        shards = shard_by_weight([1.0, 2.0], 5)
        assert len(shards) == 5
        assert sorted(i for s in shards for i in s) == [0, 1]
        assert sum(1 for s in shards if s) == 2

    def test_load_balance(self):
        weights = [1.0] * 64
        loads = [len(s) for s in shard_by_weight(weights, 4)]
        assert max(loads) - min(loads) <= 1


class TestCLI:
    def test_evaluate_backend_process(self, tmp_path, capsys):
        from repro.cli import main

        pts = tmp_path / "pts.npy"
        np.save(pts, np.random.default_rng(3).random((400, 2)))
        h = tmp_path / "h.npz"
        assert main(["inspect", str(pts), "-o", str(h),
                     "--leaf-size", "32"]) == 0
        capsys.readouterr()
        y_p = tmp_path / "yp.npy"
        y_s = tmp_path / "ys.npy"
        assert main(["evaluate", str(h), "-q", "4", "--backend", "process",
                     "--workers", "2", "-o", str(y_p)]) == 0
        assert "backend=process, workers=2" in capsys.readouterr().out
        assert main(["evaluate", str(h), "-q", "4", "-o", str(y_s)]) == 0
        np.testing.assert_array_equal(np.load(y_p), np.load(y_s))

    def test_evaluate_rejects_bad_backend(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["evaluate", "whatever.npz", "--backend", "mpi"])
