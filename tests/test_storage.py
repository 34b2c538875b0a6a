"""Unit tests for the CDS and tree-based storage formats."""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.analysis import build_blockset, build_coarsenset
from repro.analysis.structure_sets import BlockSet, CoarsenSet
from repro.compression import compress
from repro.compression.factors import Factors
from repro.htree.htree import HTree
from repro.storage import build_cds, build_treebased
from repro.tree.build import build_cluster_tree

GENERATOR_DICTS = ("leaf_basis", "transfer", "near_blocks", "coupling")


@pytest.fixture(scope="module")
def packed(points_2d, gaussian_kernel):
    """``(res, cds, before)``: ``before`` holds copies of the generators
    taken before packing, since ``build_cds`` re-points ``res.factors``
    at its own buffers."""
    res = compress(points_2d, gaussian_kernel, structure="h2-geometric",
                   tau=0.65, bacc=1e-5, leaf_size=32, seed=0)
    cs = build_coarsenset(res.tree, res.sranks, p=4, agg=2)
    nb = build_blockset(res.htree, 2, kind="near")
    fb = build_blockset(res.htree, 4, kind="far")
    before = {name: {k: a.copy() for k, a in getattr(res.factors, name).items()}
              for name in GENERATOR_DICTS}
    cds = build_cds(res.factors, cs, nb, fb)
    return res, cds, before


class TestCDS:
    def test_basis_roundtrip(self, packed):
        res, cds, before = packed
        tree = res.tree
        for v in cds.basis_offset:
            expect = (before["leaf_basis"][v] if tree.is_leaf(v)
                      else before["transfer"][v])
            np.testing.assert_array_equal(cds.basis(v), expect)

    def test_near_roundtrip(self, packed):
        _res, cds, before = packed
        for pair, D in before["near_blocks"].items():
            np.testing.assert_array_equal(cds.near(*pair), D)

    def test_far_roundtrip(self, packed):
        _res, cds, before = packed
        for pair, B in before["coupling"].items():
            np.testing.assert_array_equal(cds.far(*pair), B)

    def test_factors_hold_views_into_cds(self, packed,
                                         assert_generators_live_in_cds):
        """Each generator is stored once: the Factors dicts hold views
        into the CDS buffers, with the values they held before packing."""
        res, cds, before = packed
        assert_generators_live_in_cds(res.factors, cds)
        for name in GENERATOR_DICTS:
            now = getattr(res.factors, name)
            assert now.keys() == before[name].keys()
            for k, gen in now.items():
                np.testing.assert_array_equal(gen, before[name][k])

    def test_inspector_generators_live_in_cds(
            self, hmatrix_2d, assert_generators_live_in_cds):
        assert_generators_live_in_cds(hmatrix_2d.factors, hmatrix_2d.cds)

    def test_packing_frees_the_per_block_arrays(self, points_2d,
                                                gaussian_kernel):
        res = compress(points_2d, gaussian_kernel, structure="h2-geometric",
                       tau=0.65, bacc=1e-5, leaf_size=32, seed=0)
        gens = [a for name in GENERATOR_DICTS
                for a in getattr(res.factors, name).values()]
        # Near and coupling blocks are column slices of one kernel block
        # per row node; those row blocks must go too.
        refs = [weakref.ref(a) for a in gens]
        refs += [weakref.ref(a.base) for a in gens if a.base is not None]
        del gens
        build_cds(res.factors,
                  build_coarsenset(res.tree, res.sranks, p=4, agg=2),
                  build_blockset(res.htree, 2, kind="near"),
                  build_blockset(res.htree, 4, kind="far"))
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_packing_is_linear_in_pairs(self):
        """About 20k 1x1 near blocks pack in under 2 s; a membership set
        rebuilt for every block would take tens of seconds."""
        tree = build_cluster_tree(
            np.random.default_rng(0).random((142, 2)), leaf_size=1)
        leaves = [v for v in range(tree.num_nodes) if tree.is_leaf(v)]
        rows = [[(i, j) for j in leaves] for i in leaves]
        assert len(leaves) * len(leaves) >= 20_000
        factors = Factors(htree=HTree(tree=tree, near={}, far={},
                                      structure="h2-geometric"))
        factors.sranks = np.zeros(tree.num_nodes, dtype=np.intp)
        factors.near_blocks = {p: np.full((1, 1), float(n))
                               for n, p in enumerate(p for r in rows for p in r)}
        t0 = time.perf_counter()
        cds = build_cds(factors, CoarsenSet(),
                        BlockSet(blocks=rows, kind="near"),
                        BlockSet(kind="far"))
        assert time.perf_counter() - t0 < 2.0
        np.testing.assert_array_equal(cds.near_buf,
                                      np.arange(len(cds.near_buf)))

    def test_missing_block_rejected(self, packed):
        res, _cds, _before = packed
        nb = build_blockset(res.htree, 2, kind="near")
        blocks = dict(res.factors.near_blocks)
        blocks.pop(nb.blocks[0][0])
        factors = Factors(htree=res.htree,
                          sranks=np.zeros_like(res.factors.sranks),
                          near_blocks=blocks)
        with pytest.raises(ValueError, match="missing blocks"):
            build_cds(factors, CoarsenSet(), nb, BlockSet(kind="far"))

    def test_accessors_return_views_not_copies(self, packed):
        _res, cds, _before = packed
        v = next(iter(cds.basis_offset))
        view = cds.basis(v)
        assert view.base is cds.basis_buf

    def test_visit_order_matches_buffer_order(self, packed):
        """CDS property: walking the coarsenset touches the basis buffer in
        monotonically increasing offsets (no jumping back)."""
        _res, cds, _before = packed
        offsets = [cds.basis_offset[v] for v in cds.basis_visit_order()]
        assert offsets == sorted(offsets)

    def test_near_visit_order_contiguous(self, packed):
        _res, cds, _before = packed
        offsets = [cds.near_offset[p] for p in cds.near_visit_order()]
        assert offsets == sorted(offsets)

    def test_far_visit_order_contiguous(self, packed):
        _res, cds, _before = packed
        offsets = [cds.far_offset[p] for p in cds.far_visit_order()]
        assert offsets == sorted(offsets)

    def test_buffers_fully_packed_no_gaps(self, packed):
        res, cds, _before = packed
        used = sum(
            np.prod(cds.basis_shape[v]) for v in cds.basis_offset
        )
        assert used == len(cds.basis_buf)
        near_used = sum(D.size for D in res.factors.near_blocks.values())
        assert near_used == len(cds.near_buf)
        far_used = sum(B.size for B in res.factors.coupling.values())
        assert far_used == len(cds.far_buf)

    def test_total_bytes_matches_factor_bytes(self, packed):
        res, cds, _before = packed
        assert cds.total_bytes() == res.factors.memory_bytes()

    def test_every_basis_node_present(self, packed):
        res, cds, _before = packed
        for v in range(res.tree.num_nodes):
            if res.factors.srank(v) > 0:
                assert v in cds.basis_offset


class TestTreeBased:
    def test_roundtrip(self, packed):
        res, _cds, _before = packed
        tb = build_treebased(res.factors)
        for v, arr in tb.basis.items():
            expect = (res.factors.leaf_basis[v] if res.tree.is_leaf(v)
                      else res.factors.transfer[v])
            np.testing.assert_array_equal(arr, expect)

    def test_separate_allocations(self, packed):
        res, _cds, _before = packed
        tb = build_treebased(res.factors)
        arrays = list(tb.basis.values())
        assert arrays[0].base is None  # owns its memory

    def test_allocation_order_is_construction_order(self, packed):
        """TB allocates basis in BFS node order, then near, then far —
        the compression order, NOT the evaluation visit order."""
        res, _cds, _before = packed
        tb = build_treebased(res.factors)
        kinds = [k for k, _ in tb.allocation_order]
        assert kinds == sorted(kinds, key=["basis", "far", "near"].index) or (
            kinds.index("near") < kinds.index("far")
            if "near" in kinds and "far" in kinds else True
        )
        basis_ids = [key for k, key in tb.allocation_order if k == "basis"]
        assert basis_ids == sorted(basis_ids)

    def test_same_bytes_as_cds(self, packed):
        res, cds, _before = packed
        tb = build_treebased(res.factors)
        assert tb.total_bytes() == cds.total_bytes()
