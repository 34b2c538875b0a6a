"""Executor coverage: serial vs thread-pool vs batched agreement, streaming
chunks, the batch cost-model gate, the batched program's stacked and
member-slice paths, and Executor lifecycle semantics."""

import numpy as np
import pytest

from repro import Executor, matmul, matmul_many, relative_error
from repro.codegen import (
    batch_occupancy,
    build_ir,
    decide_lowering,
    emit,
    generate_batched_evaluator,
    lower_batched,
)
from repro.codegen.emit import (
    MEMBER_MIN_MACS,
    BatchedTables,
    _by_members,
    down_pass,
)
from repro.core.evaluation import evaluate_reference
from repro.runtime.tasks import matrox_batched_phases, matrox_phases


@pytest.fixture(scope="module")
def W_2d(hmatrix_2d):
    return np.random.default_rng(42).random((hmatrix_2d.dim, 8))


class TestOrderAgreement:
    def test_serial_threaded_batched_agree(self, hmatrix_2d, W_2d):
        """The acceptance bar: all three paths within 1e-12 relative."""
        y_serial = hmatrix_2d.matmul(W_2d, order="original")
        y_batched = hmatrix_2d.matmul(W_2d, order="batched")
        with Executor(num_threads=4) as ex:
            y_threaded = ex.matmul(hmatrix_2d, W_2d, order="original")
            y_batched2 = ex.matmul(hmatrix_2d, W_2d, order="batched")
        assert relative_error(y_threaded, y_serial) < 1e-12
        assert relative_error(y_batched, y_serial) < 1e-12
        assert relative_error(y_batched2, y_serial) < 1e-12

    def test_batched_matches_reference_numerics(self, hmatrix_2d, W_2d):
        ev = generate_batched_evaluator(hmatrix_2d.cds)
        ref = evaluate_reference(hmatrix_2d.factors, W_2d)
        np.testing.assert_allclose(ev(W_2d), ref, atol=1e-10)

    def test_q1_vector_and_column(self, hmatrix_2d):
        w = np.random.default_rng(1).random(hmatrix_2d.dim)
        y_serial = hmatrix_2d.matmul(w)
        y_batched = hmatrix_2d.matmul(w, order="batched")
        assert y_batched.shape == (hmatrix_2d.dim,)
        assert relative_error(y_batched, y_serial) < 1e-12
        y_col = hmatrix_2d.matmul(w[:, None], order="batched")
        np.testing.assert_allclose(y_col[:, 0], y_batched, atol=1e-14)

    def test_wide_q_streams_through_chunks(self, hmatrix_2d):
        """Q > 64 exercises the chunked-Q streaming path end to end."""
        W = np.random.default_rng(2).random((hmatrix_2d.dim, 100))
        ev = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=32)
        one_pass = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=None)
        np.testing.assert_allclose(ev(W), one_pass(W), atol=1e-12)
        y_serial = hmatrix_2d.matmul(W)
        assert relative_error(hmatrix_2d.matmul(W, order="batched"),
                              y_serial) < 1e-12

    def test_zero_column_rhs(self, hmatrix_2d):
        y = hmatrix_2d.matmul(np.zeros((hmatrix_2d.dim, 0)), order="batched")
        assert y.shape == (hmatrix_2d.dim, 0)

    def test_uneven_chunk_remainder(self, hmatrix_2d):
        W = np.random.default_rng(3).random((hmatrix_2d.dim, 17))
        ev = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=7)
        np.testing.assert_allclose(
            ev(W), evaluate_reference(hmatrix_2d.factors, W), atol=1e-10)


class TestMatmulMany:
    def test_wide_array_equals_matmul(self, hmatrix_2d):
        W = np.random.default_rng(4).random((hmatrix_2d.dim, 80))
        got = matmul_many(hmatrix_2d, W, q_chunk=32)
        want = hmatrix_2d.matmul(W, order="batched")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_narrow_array_single_pass(self, hmatrix_2d):
        W = np.random.default_rng(5).random((hmatrix_2d.dim, 4))
        np.testing.assert_allclose(
            matmul_many(hmatrix_2d, W),
            hmatrix_2d.matmul(W, order="batched"), atol=1e-14)

    def test_panel_stream_returns_list(self, hmatrix_2d):
        rng = np.random.default_rng(6)
        panels = [rng.random((hmatrix_2d.dim, q)) for q in (1, 5, 70)]
        outs = matmul_many(hmatrix_2d, panels, q_chunk=32)
        assert isinstance(outs, list) and len(outs) == 3
        for w, y in zip(panels, outs, strict=True):
            assert relative_error(y, hmatrix_2d.matmul(w)) < 1e-12


class TestBatchGate:
    def test_hss_gate_rejects_and_falls_back(self, points_2d, gaussian_kernel,
                                             monkeypatch):
        """HSS declines batch lowering: order="batched" runs the per-block
        code, while the plan still owns its batched tables (the process
        engine runs them)."""
        from repro import inspector
        H = inspector(points_2d, kernel=gaussian_kernel, structure="hss",
                      leaf_size=32, bacc=1e-6, seed=0)
        assert not H.evaluator.decision.batch
        assert H.summary()["lowering"]["batch"] is False
        assert isinstance(H.batched_evaluator.tables, BatchedTables)
        runs = []
        for name in ("run_batched", "run_blocks"):
            real = getattr(emit, name)
            monkeypatch.setattr(emit, name, lambda *a, real=real, name=name:
                                runs.append(name) or real(*a))
        W = np.random.default_rng(7).random((H.dim, 3))
        # order="batched" must still work — identical per-block fallback.
        np.testing.assert_array_equal(
            H.matmul(W, order="batched"), H.matmul(W, order="original"))
        assert runs == ["run_blocks", "run_blocks"]

    def test_h2_gate_accepts(self, hmatrix_2d):
        assert hmatrix_2d.evaluator.decision.batch
        ev = hmatrix_2d.batched_evaluator
        assert ev is hmatrix_2d.batched_evaluator
        assert isinstance(ev.tables, BatchedTables)

    def test_occupancy_and_lowering_annotation(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        ir = build_ir(cds.factors, coarsenset=cds.coarsenset,
                      near_blockset=cds.near_blockset,
                      far_blockset=cds.far_blockset)
        assert batch_occupancy(ir) > 2.0
        d = decide_lowering(ir)
        assert d.batch
        d2 = lower_batched(ir, d)
        assert d2.batch
        for loop in ("near", "upward", "coupling", "downward"):
            assert ir.loop(loop).lowered_to == "batched"

    def test_batched_evaluator_records_plan_decision(self, points_2d,
                                                     gaussian_kernel):
        """The batched evaluator carries the plan's own lowering decision
        (non-default thresholds included), with batching recorded on top,
        instead of re-deciding with default thresholds."""
        from repro import inspector
        H = inspector(points_2d, kernel=gaussian_kernel,
                      structure="h2-geometric", leaf_size=16,
                      block_threshold=10**9, coarsen_threshold=100)
        plan = H.evaluator.decision
        assert plan.batch
        assert (plan.block_near, plan.coarsen, plan.peel_root) == (
            False, False, False)
        got = H.batched_evaluator.decision
        for name in ("block_near", "block_far", "coarsen", "peel_root",
                     "block_threshold", "far_block_threshold",
                     "coarsen_threshold", "batch_threshold"):
            assert getattr(got, name) == getattr(plan, name), name
        assert got.batch
        assert got.reasons[:len(plan.reasons)] == plan.reasons

    def test_summary_reports_batch(self, hmatrix_2d):
        assert hmatrix_2d.summary()["lowering"]["batch"] is True

    def test_save_load_preserves_batch_gate(self, hmatrix_2d, tmp_path):
        from repro import load_hmatrix, save_hmatrix
        save_hmatrix(hmatrix_2d, tmp_path / "h.npz")
        H2 = load_hmatrix(tmp_path / "h.npz")
        assert H2.evaluator.decision.batch == hmatrix_2d.evaluator.decision.batch
        W = np.random.default_rng(8).random((H2.dim, 4))
        assert (H2.matmul(W, order="batched").tobytes()
                == hmatrix_2d.matmul(W, order="batched").tobytes())


class TestShapeBuckets:
    def test_gather_matches_accessors(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        for level in cds.basis_level_buckets():
            for bucket in level:
                stack = bucket.gather(cds.basis_buf)
                assert stack.shape == (bucket.batch, *bucket.shape)
                for b, v in enumerate(bucket.keys):
                    np.testing.assert_array_equal(stack[b], cds.basis(v))

    def test_basis_nodes_are_post_ordered(self, hmatrix_2d, hmatrix_hss):
        for H in (hmatrix_2d, hmatrix_hss):
            assert H.cds.basis_nodes() == [
                v for v in H.tree.postorder()
                if v != 0 and H.factors.srank(v) > 0]

    def test_level_buckets_partition_basis_nodes(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        seen = [v for lvl in cds.basis_level_buckets()
                for b in lvl for v in b.keys]
        assert sorted(seen) == sorted(cds.basis_nodes())


class TestBatchedPhases:
    def test_flops_match_per_block_schedule(self, hmatrix_2d):
        """The batched schedule performs the same arithmetic."""
        cds = hmatrix_2d.cds
        q = 16
        serial = sum(p.total_flops() for p in matrox_phases(cds, q))
        batched = sum(p.total_flops()
                      for p in matrox_batched_phases(cds, q))
        assert batched == pytest.approx(serial)

    def test_all_phases_are_blas(self, hmatrix_2d):
        for p in matrox_batched_phases(hmatrix_2d.cds, 8):
            assert p.kind == "blas"

    def test_q_chunk_repeats_schedule(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        base = matrox_batched_phases(cds, 16)
        chunked = matrox_batched_phases(cds, 40, q_chunk=16)
        assert len(chunked) == 3 * len(base)
        total = sum(p.total_flops() for p in chunked)
        assert total == pytest.approx(
            sum(p.total_flops() for p in matrox_batched_phases(cds, 40)))

    def test_simulated_batched_rung(self, hmatrix_2d):
        from repro.baselines import MatRoxSystem
        from repro.runtime import HASWELL
        mx = MatRoxSystem(hmatrix_2d)
        bat = mx.simulate(hmatrix_2d.factors, 64, HASWELL, p=4,
                          rung="+batched")
        seq = mx.simulate(hmatrix_2d.factors, 64, HASWELL, p=4,
                          rung="cds-seq")
        assert bat.time_s < seq.time_s


@pytest.fixture(scope="module")
def hmatrix_hss(points_2d, gaussian_kernel):
    """An HSS plan: sibling-only coupling, so its stacks have slices."""
    from repro import inspector
    return inspector(points_2d, kernel=gaussian_kernel, structure="hss",
                     leaf_size=32, bacc=1e-6, seed=0)


#: Widths on both sides of every group's switch between one stacked GEMM
#: and member slices in the fixtures' plans.
SELECTION_QS = [1, 4, 31, 32, 128, 512]


class TestDownPass:
    @pytest.mark.parametrize("q", SELECTION_QS)
    def test_leaf_adds_match_one_scatter_per_bucket(self, hmatrix_2d, q):
        """A leaf-bucket or interior-bucket member whose product is big
        enough adds it into its rows by slice; the bytes equal one
        fancy-indexed ``dst[flat] += P`` per bucket, the scatter smaller
        members of larger buckets keep."""
        tables = hmatrix_2d.batched_evaluator.tables
        assert any(to_y and len(G) > 1 for level in tables.levels
                   for G, *_rest, to_y in level)
        assert any(not to_y and len(G) > 1 and members
                   for level in tables.levels
                   for G, *_rest, members, to_y in level)
        rng = np.random.default_rng(q)
        S = rng.standard_normal((tables.rank_rows, q))
        Y = rng.standard_normal((hmatrix_2d.dim, q))
        S_ref, Y_ref = S.copy(), Y.copy()
        for level in reversed(tables.levels):
            for G, _GT, _gather, flat, _own, own2d, _members, to_y in level:
                P = np.matmul(G, S_ref[own2d]).reshape(-1, q)
                if to_y:
                    Y_ref[flat] += P
                else:
                    S_ref[flat] += P
        down_pass(tables.levels, S, Y)
        assert Y.tobytes() == Y_ref.tobytes()
        assert S.tobytes() == S_ref.tobytes()


class TestMemberSlices:
    """A tree bucket or coupling stack whose members each read and write
    one run of rows runs member by member on row slices when each
    member's product takes at least ``MEMBER_MIN_MACS`` multiply-adds,
    and when it has one member; the bytes equal its stacked GEMM's."""

    @pytest.fixture(params=["h2", "hss"])
    def H(self, request, hmatrix_2d, hmatrix_hss):
        return hmatrix_2d if request.param == "h2" else hmatrix_hss

    def test_selection_takes_both_paths(self, H):
        """Over ``SELECTION_QS`` the tree and coupling groups of more than
        one member run both ways, and the switch follows the members'
        multiply-adds per product."""
        tables = H.batched_evaluator.tables
        groups = [(b[0], b[6]) for level in tables.levels for b in level]
        groups += [(P, members) for P, *_rest, members in tables.far]
        seen = set()
        for q in SELECTION_QS:
            for G, members in groups:
                if not members:
                    continue
                g, m, k = G.shape
                by_members = _by_members(G, members, q)
                assert by_members == (g == 1 or m * k * q >= MEMBER_MIN_MACS)
                if g > 1:
                    seen.add(by_members)
        assert seen == {True, False}

    def test_interior_members_read_one_run(self, H):
        """T/S rows go level by level, left to right, so two siblings'
        skeleton rows are adjacent, and every tree-bucket member's gather
        is the one run its member slice reads."""
        t, srank = H.tree, H.factors.srank
        toff, _rank_rows = emit._rank_offsets(H.cds)
        for v in H.cds.basis_nodes():
            if not t.is_leaf(v):
                lc, rc = int(t.lchild[v]), int(t.rchild[v])
                assert toff[rc] == toff[lc] + srank(lc)
        for level in H.batched_evaluator.tables.levels:
            for _G, _GT, gather, *_rest, members, _from_w in level:
                np.testing.assert_array_equal(np.diff(gather, axis=1), 1)
                assert [(a, b) for _Gk, a, b, _o, _p in members] == [
                    (row[0], row[-1] + 1) for row in gather.tolist()]

    @pytest.mark.parametrize("q", SELECTION_QS)
    def test_up_pass_matches_stacked_gemms(self, H, q):
        tables = H.batched_evaluator.tables
        W = np.random.default_rng(q).standard_normal((H.dim, q))
        T = np.zeros((tables.rank_rows, q))
        T_ref = T.copy()
        for level in tables.levels:
            for _G, GT, gather, _flat, own, _own2d, _members, from_w in level:
                src = W if from_w else T_ref
                T_ref[own] = np.matmul(GT, src[gather]).reshape(-1, q)
        emit.up_pass(tables.levels, W, T)
        assert T.tobytes() == T_ref.tobytes()

    @pytest.mark.parametrize("q", SELECTION_QS)
    def test_far_pass_matches_stacked_gemms(self, H, q):
        tables = H.batched_evaluator.tables
        assert any(members for *_stack, members in tables.far)
        T = np.random.default_rng(q).standard_normal((tables.rank_rows, q))
        S = np.zeros_like(T)
        S_ref = S.copy()
        for P, idx, rows, _members in tables.far:
            S_ref[rows] = np.matmul(P, T[idx]).reshape(-1, q)
        emit.far_pass(tables.far, T, S)
        assert S.tobytes() == S_ref.tobytes()

    def test_lone_members_are_cds_views(self, hmatrix_hss):
        """A group of one member binds its generator's view of the CDS
        buffer instead of a copy: HSS's near panels (diagonal blocks),
        lone tree buckets and lone coupling panels."""
        cds, tables = hmatrix_hss.cds, hmatrix_hss.batched_evaluator.tables
        assert all(np.shares_memory(e[0], cds.near_buf) for e in tables.near)
        lone = [G for level in tables.levels for G, *_rest in level
                if len(G) == 1]
        assert lone and all(np.shares_memory(G, cds.basis_buf) for G in lone)
        lone = [P for P, *_rest in tables.far if len(P) == 1]
        assert lone and all(np.shares_memory(P, cds.far_buf) for P in lone)


class TestExecutorLifecycle:
    def test_context_manager_closes_pool(self, hmatrix_2d, W_2d):
        ex = Executor(num_threads=3)
        assert ex._pool is not None
        with ex as handle:
            assert handle is ex
            handle.matmul(hmatrix_2d, W_2d)
        assert ex._pool is None

    def test_close_is_idempotent(self):
        ex = Executor(num_threads=2)
        ex.close()
        ex.close()
        assert ex._pool is None

    def test_matmul_after_close_runs_serially(self, hmatrix_2d, W_2d):
        ex = Executor(num_threads=2)
        ex.close()
        np.testing.assert_allclose(
            ex.matmul(hmatrix_2d, W_2d), hmatrix_2d.matmul(W_2d), atol=1e-14)

    def test_serial_executor_has_no_pool(self):
        for nt in (None, 1):
            assert Executor(num_threads=nt)._pool is None

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError, match="num_threads"):
            Executor(num_threads=0)

    def test_module_level_matmul_threaded(self, hmatrix_2d, W_2d):
        y = matmul(hmatrix_2d, W_2d, num_threads=3)
        np.testing.assert_allclose(y, hmatrix_2d.matmul(W_2d), atol=1e-12)
