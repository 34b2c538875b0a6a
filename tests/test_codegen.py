"""Unit tests for IR construction, lowering decisions, and code emission."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import build_blockset, build_coarsenset
from repro.codegen import build_ir, decide_lowering, generate_evaluator
from repro.compression import compress
from repro.core.evaluation import evaluate_reference
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
