"""Unit tests for structure analysis: blocking, coarsening, bin-packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_blockset,
    build_coarsenset,
    first_fit_binpack,
    node_cost,
)
from repro.analysis.binpack import bin_loads
from repro.analysis.coarsening import node_heights
from repro.compression import compress
from repro.tree import build_cluster_tree


@pytest.fixture(scope="module")
def compressed_2d(points_2d, gaussian_kernel):
    return compress(points_2d, gaussian_kernel, structure="h2-geometric",
                    tau=0.65, bacc=1e-5, leaf_size=32, seed=0)


class TestBinpack:
    def test_balanced_loads(self):
        costs = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        bins = first_fit_binpack(costs, 2)
        loads = bin_loads(costs, bins)
        assert abs(loads[0] - loads[1]) <= 2.0

    def test_all_items_assigned_once(self):
        costs = list(np.random.default_rng(0).random(37))
        bins = first_fit_binpack(costs, 5)
        flat = sorted(i for b in bins for i in b)
        assert flat == list(range(37))

    def test_fewer_items_than_bins(self):
        bins = first_fit_binpack([1.0, 2.0], 8)
        assert len(bins) == 2  # empty bins dropped

    def test_single_bin(self):
        bins = first_fit_binpack([1.0, 2.0, 3.0], 1)
        assert len(bins) == 1 and sorted(bins[0]) == [0, 1, 2]

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            first_fit_binpack([1.0], 0)

    @given(
        costs=st.lists(st.floats(0.1, 100), min_size=1, max_size=60),
        n_bins=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_lpt_bound(self, costs, n_bins):
        """LPT makespan is within 4/3 + eps of the trivial lower bound max."""
        bins = first_fit_binpack(costs, n_bins)
        loads = bin_loads(costs, bins)
        lower = max(max(costs), sum(costs) / n_bins)
        assert max(loads) <= (4.0 / 3.0) * lower + max(costs)


class TestBlocking:
    def test_near_blockset_covers_all_interactions(self, compressed_2d):
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=2, kind="near")
        assert sorted(bs.all_interactions()) == sorted(ht.near_pairs())

    def test_far_blockset_covers_all_interactions(self, compressed_2d):
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=4, kind="far")
        assert sorted(bs.all_interactions()) == sorted(ht.far_pairs())

    def test_blocks_have_disjoint_writers(self, compressed_2d):
        """The key guarantee: no two blocks write the same output node, so
        the loop over blocks is synchronization-free."""
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=2, kind="near")
        for a in range(bs.num_blocks):
            for b in range(a + 1, bs.num_blocks):
                assert bs.writer_rows(a).isdisjoint(bs.writer_rows(b))

    def test_far_blocks_disjoint_writers(self, compressed_2d):
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=4, kind="far")
        for a in range(bs.num_blocks):
            for b in range(a + 1, bs.num_blocks):
                assert bs.writer_rows(a).isdisjoint(bs.writer_rows(b))

    def test_blocksize_one_groups_by_output_node(self, compressed_2d):
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=1, kind="near")
        for block in bs.blocks:
            writers = {i for (i, _) in block}
            # blocksize 1 -> each grid row holds exactly one writer node
            assert len(writers) == 1

    def test_larger_blocksize_fewer_blocks(self, compressed_2d):
        ht = compressed_2d.htree
        small = build_blockset(ht, blocksize=1, kind="near").num_blocks
        large = build_blockset(ht, blocksize=8, kind="near").num_blocks
        assert large <= small

    def test_same_writer_same_block(self, compressed_2d):
        ht = compressed_2d.htree
        bs = build_blockset(ht, blocksize=2, kind="near")
        home = {}
        for bidx, block in enumerate(bs.blocks):
            for (i, _j) in block:
                assert home.setdefault(i, bidx) == bidx

    def test_invalid_blocksize(self, compressed_2d):
        with pytest.raises(ValueError):
            build_blockset(compressed_2d.htree, blocksize=0)

    def test_empty_interactions(self, compressed_2d):
        bs = build_blockset(compressed_2d.htree, blocksize=2,
                            kind="near", interactions=[])
        assert bs.num_blocks == 0

    @pytest.mark.parametrize("blocksize", [1, 2, 4])
    def test_one_node_tree_keeps_the_root_self_pair(self, blocksize):
        """N at most the leaf size: the root is the only node and its self
        pair the only near block (the batched tables and the process
        engine read the blockset, so dropping it zeroed their product)."""
        points = np.random.default_rng(3).random((10, 2))
        res = compress(points, "gaussian", structure="h2-geometric",
                       leaf_size=16, seed=0)
        assert res.tree.num_nodes == 1
        bs = build_blockset(res.htree, blocksize=blocksize, kind="near")
        assert bs.all_interactions() == [(0, 0)] == res.htree.near_pairs()


class TestCoarsening:
    def test_heights(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        h = node_heights(tree)
        assert (h[tree.leaves] == 0).all()
        assert h[0] == max(h)

    def test_all_active_nodes_covered_once(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=2)
        nodes = cs.all_nodes()
        active = set(np.flatnonzero(sranks > 0).tolist())
        assert sorted(nodes) == sorted(active)
        assert len(nodes) == len(set(nodes))

    def test_children_before_parents_globally(self, compressed_2d):
        """Upward execution order (level by level, subtree by subtree) must
        respect tree dependencies."""
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=2)
        seen = set()
        for cl in cs.levels:
            # All subtrees in a level conceptually run in parallel: children
            # computed in earlier levels or earlier in the same subtree.
            for st_ in cl.subtrees:
                local_seen = set(seen)
                for v in st_.nodes:
                    if not tree.is_leaf(v):
                        for c in (int(tree.lchild[v]), int(tree.rchild[v])):
                            if sranks[c] > 0:
                                assert c in local_seen, (
                                    f"node {v} before child {c}"
                                )
                    local_seen.add(v)
            seen.update(cl.all_nodes())

    def test_subtrees_within_level_disjoint(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=2)
        for cl in cs.levels:
            all_nodes = cl.all_nodes()
            assert len(all_nodes) == len(set(all_nodes))

    def test_partition_count_bounded_by_p(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        for p in (1, 2, 4, 8):
            cs = build_coarsenset(tree, sranks, p=p, agg=2)
            for cl in cs.levels:
                assert len(cl.subtrees) <= max(
                    p, 1
                ), f"p={p}: {len(cl.subtrees)} subtrees"

    def test_load_balance_quality(self, compressed_2d):
        """Max subtree cost per level should be within 2x of the mean (LPT)."""
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=2)
        for cl in cs.levels:
            costs = [st_.cost for st_ in cl.subtrees]
            if len(costs) >= 2 and sum(costs) > 0:
                assert max(costs) <= 2.5 * (sum(costs) / len(costs)) + max(costs) / 2

    def test_agg_one_matches_tree_levels(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=1)
        h = node_heights(tree)
        for cl in cs.levels:
            for v in cl.all_nodes():
                assert cl.lb <= h[v] < cl.ub
                assert cl.ub - cl.lb == 1

    def test_large_agg_single_level(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=tree.height + 1)
        assert cs.num_levels == 1

    def test_cost_model_values(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        leaf = int(tree.leaves[0])
        if sranks[leaf] > 0:
            assert node_cost(tree, sranks, leaf) == tree.node_size(leaf) * sranks[leaf]
        interior = int(tree.parent[leaf])
        if sranks[interior] > 0:
            lc, rc = int(tree.lchild[interior]), int(tree.rchild[interior])
            assert node_cost(tree, sranks, interior) == (
                (sranks[lc] + sranks[rc]) * sranks[interior]
            )

    def test_inactive_nodes_excluded(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        cs = build_coarsenset(tree, sranks, p=4, agg=2)
        assert 0 not in cs.all_nodes()  # root srank 0

    def test_all_sranks_zero(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        cs = build_coarsenset(tree, np.zeros(tree.num_nodes), p=4)
        assert cs.num_levels == 0

    def test_invalid_params(self, compressed_2d):
        tree, sranks = compressed_2d.tree, compressed_2d.sranks
        with pytest.raises(ValueError):
            build_coarsenset(tree, sranks, p=0)
        with pytest.raises(ValueError):
            build_coarsenset(tree, sranks, p=2, agg=0)
