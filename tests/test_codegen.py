"""Unit tests for IR construction, lowering decisions, and code emission."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import build_blockset, build_coarsenset
from repro.codegen import build_ir, decide_lowering, emit, generate_evaluator
from repro.compression import compress
from repro.core.evaluation import evaluate_reference
from repro.core.io import load_hmatrix, save_hmatrix
from repro.storage import build_cds


def make_cds(points, kernel, structure="h2-geometric", **kw):
    res = compress(points, kernel, structure=structure, bacc=1e-6,
                   leaf_size=32, seed=0, **kw)
    cs = build_coarsenset(res.tree, res.sranks, p=4, agg=2)
    nb = build_blockset(res.htree, 2, kind="near")
    fb = build_blockset(res.htree, 4, kind="far")
    return res, build_cds(res.factors, cs, nb, fb)


#: (block threshold, coarsen threshold, low_level) of every lowering
#: combination the per-block program can take.
LOWERINGS = {
    "fully_lowered": (None, 4, True),
    "no_blocking": (10**9, 4, True),
    "no_coarsening": (None, 10**9, True),
    "fully_serial": (10**9, 10**9, False),
    "no_peeling": (None, 4, False),
}


def lowered(cds, block_thr, coars_thr, low):
    return generate_evaluator(cds, block_threshold=block_thr,
                              far_block_threshold=block_thr,
                              coarsen_threshold=coars_thr, low_level=low)


@pytest.fixture(scope="module")
def cds_2d(points_2d, gaussian_kernel):
    return make_cds(points_2d, gaussian_kernel)


@pytest.fixture(scope="module")
def cds_hss(points_2d, gaussian_kernel):
    return make_cds(points_2d, gaussian_kernel, structure="hss")


class TestIR:
    def test_loops_present(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        assert set(ir.loops) == {"near", "upward", "coupling", "downward"}
        assert ir.loop("near").kind == "reduction"
        assert ir.loop("upward").kind == "tree"

    def test_trip_counts(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors)
        assert ir.loop("near").trip_count == res.htree.num_near()
        assert ir.loop("coupling").trip_count == res.htree.num_far()

    def test_upward_downward_reversed(self, cds_2d):
        res, _ = cds_2d
        ir = build_ir(res.factors)
        up = ir.loop("upward").iterations
        down = ir.loop("downward").iterations
        assert up == list(reversed(down))


class TestLoweringDecision:
    def test_h2_activates_block_and_coarsen(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        d = decide_lowering(ir)
        assert d.block_near      # dense near list for tau=0.65
        assert d.coarsen

    def test_hss_never_blocks(self, cds_hss):
        """Paper: 'block lowering is never activated for HSS'."""
        res, cds = cds_hss
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        d = decide_lowering(ir)
        assert not d.block_near
        assert not d.block_far
        assert d.coarsen

    def test_coarsen_threshold_gates(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        d = decide_lowering(ir, coarsen_threshold=10_000)
        assert not d.coarsen
        assert not d.peel_root  # peeling requires coarsening

    def test_low_level_flag(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        d = decide_lowering(ir, low_level=False)
        assert not d.peel_root

    def test_reasons_populated(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        d = decide_lowering(ir)
        assert len(d.reasons) >= 3

    def test_ir_loops_annotated(self, cds_2d):
        res, cds = cds_2d
        ir = build_ir(res.factors, cds.coarsenset, cds.near_blockset,
                      cds.far_blockset)
        decide_lowering(ir)
        assert ir.loop("upward").lowered_to == "coarsened"


class TestGeneratedCode:
    def test_matches_reference(self, cds_2d):
        res, cds = cds_2d
        ev = generate_evaluator(cds)
        rng = np.random.default_rng(0)
        W = rng.random((res.tree.num_points, 5))
        np.testing.assert_allclose(
            ev(W), evaluate_reference(res.factors, W), atol=1e-10
        )

    def test_hss_matches_reference(self, cds_hss):
        res, cds = cds_hss
        ev = generate_evaluator(cds)
        rng = np.random.default_rng(1)
        W = rng.random((res.tree.num_points, 3))
        np.testing.assert_allclose(
            ev(W), evaluate_reference(res.factors, W), atol=1e-10
        )

    def test_all_lowering_combinations_agree(self, cds_2d):
        """Every specialization must compute the same product."""
        res, cds = cds_2d
        rng = np.random.default_rng(2)
        W = rng.random((res.tree.num_points, 4))
        ref = evaluate_reference(res.factors, W)
        for name, lowering in LOWERINGS.items():
            ev = lowered(cds, *lowering)
            np.testing.assert_allclose(ev(W), ref, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("lowering", LOWERINGS.values(), ids=LOWERINGS)
    def test_parallel_pool_agrees_with_serial(self, cds_2d, lowering):
        """Blocks and coarsen sub-trees write disjoint rows, so running
        them over a pool changes no byte of the product."""
        res, cds = cds_2d
        ev = lowered(cds, *lowering)
        rng = np.random.default_rng(3)
        W = rng.random((res.tree.num_points, 4))
        serial = ev(W)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = ev(W, pool=pool)
        assert parallel.tobytes() == serial.tobytes()

    def test_matvec_1d_input(self, cds_2d):
        res, cds = cds_2d
        ev = generate_evaluator(cds)
        rng = np.random.default_rng(4)
        w = rng.random(res.tree.num_points)
        y = ev(w)
        assert y.shape == (res.tree.num_points,)
        y2 = ev(w[:, None])
        np.testing.assert_allclose(y, y2[:, 0], atol=1e-12)

    def test_wrong_dimension_rejected(self, cds_2d):
        _res, cds = cds_2d
        ev = generate_evaluator(cds)
        with pytest.raises(ValueError, match="rows"):
            ev(np.zeros((3, 2)))

    def test_source_reflects_decision(self, cds_2d):
        """The tables carry the decision: a blocked near loop holds one
        task per near block, a coarsened upward pass the coarsenset's
        levels minus the peeled one."""
        _res, cds = cds_2d
        ev = generate_evaluator(cds)
        assert ev.decision.block_near and ev.decision.coarsen
        assert ev.tables.block_near
        assert len(ev.tables.near) == len(cds.near_blockset.blocks)
        assert len(ev.tables.up) == (len(cds.coarsenset.levels)
                                     - ev.decision.peel_root)
        assert len(ev.tables.down) == len(ev.tables.up)

    def test_source_serial_variant(self, cds_2d):
        """Serial reduction loops hold one task each; an un-coarsened
        upward pass is one level holding one sub-tree."""
        _res, cds = cds_2d
        ev = lowered(cds, *LOWERINGS["fully_serial"])
        assert not (ev.tables.block_near or ev.tables.block_far)
        assert len(ev.tables.near) == 1 and len(ev.tables.far) == 1
        assert len(ev.tables.up) == 1 and len(ev.tables.up[0]) == 1

    def test_peeled_source_marker(self, cds_2d):
        """The peeled root iteration's ops exist exactly when the root is
        peeled, and the downward pass runs them in reverse."""
        _res, cds = cds_2d
        for low in (True, False):
            ev = generate_evaluator(cds, low_level=low)
            assert ev.decision.peel_root == low
            assert bool(ev.tables.up_peeled) == ev.decision.peel_root
            assert ev.tables.down_peeled == ev.tables.up_peeled[::-1]

    def test_repeated_calls_consistent(self, cds_2d):
        res, cds = cds_2d
        ev = generate_evaluator(cds)
        rng = np.random.default_rng(5)
        W = rng.random((res.tree.num_points, 2))
        np.testing.assert_array_equal(ev(W), ev(W))


@pytest.fixture
def block_table_builds(monkeypatch):
    """A list that grows by one entry per per-block table build."""
    builds = []
    build = emit.build_block_tables

    def counting(cds, decision):
        builds.append(cds)
        return build(cds, decision)

    monkeypatch.setattr(emit, "build_block_tables", counting)
    return builds


class TestBlockTablesOnFirstUse:
    """The per-block program's tables are built on its first run (or
    first read of ``tables``), once per plan; a plan served by the
    batched program never builds them."""

    def test_inspect_load_and_batched_products_build_none(
            self, points_2d, gaussian_kernel, inspector_small, tmp_path,
            block_table_builds):
        H = inspector_small.run(points_2d, gaussian_kernel)
        H2 = load_hmatrix(save_hmatrix(H, tmp_path / "hmat.npz"))
        assert H2.evaluator.decision.batch
        rng = np.random.default_rng(0)
        for q in (1, 4, emit.WIDE_Q_MIN, 300):
            H2.matmul(rng.random((H2.dim, q)))
        assert block_table_builds == []

    def test_original_order_builds_once_per_plan(self, hmatrix_2d, tmp_path,
                                                  block_table_builds):
        """The first call carries a ``q_chunk`` override, so it runs a
        ``dataclasses.replace`` copy of the evaluator; the copy and the
        plan's own evaluator share one build."""
        H = load_hmatrix(save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz"))
        W = np.random.default_rng(1).random((H.dim, 6))
        ref = hmatrix_2d.matmul(W, order="original")
        for q_chunk in (2, None, None, 3):
            Y = H.matmul(W, order="original", q_chunk=q_chunk)
            np.testing.assert_allclose(Y, ref, rtol=1e-12, atol=0)
        assert len(block_table_builds) == 1

    def test_copies_share_the_tables(self, cds_2d, block_table_builds):
        res, cds = cds_2d
        ev = generate_evaluator(cds)
        chunked = replace(ev, q_chunk=2)
        W = np.random.default_rng(2).random((res.tree.num_points, 5))
        np.testing.assert_allclose(chunked(W), ev(W), rtol=1e-12, atol=0)
        assert chunked.tables is ev.tables
        assert len(block_table_builds) == 1

    def test_racing_first_runs_agree(self, cds_2d, block_table_builds):
        """Threads racing into the first run may each build the tables
        (there is no lock); every product is still the serial one, and
        once one build is kept no later run builds again."""
        res, cds = cds_2d
        W = np.random.default_rng(3).random((res.tree.num_points, 3))
        ref = generate_evaluator(cds)(W)
        ev = generate_evaluator(cds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ev, W) for _ in range(8)]
                products = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(Y.tobytes() == ref.tobytes() for Y in products)
        built = len(block_table_builds)
        assert 2 <= built <= 9
        assert ev(W).tobytes() == ref.tobytes()
        assert len(block_table_builds) == built
