"""System-level property-based tests (hypothesis).

Each property runs the real pipeline on randomized configurations and checks
an invariant that must hold for *every* valid input — the invariants the
paper's correctness rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProcessEngine, inspector
from repro.analysis import build_blockset, build_coarsenset
from repro.codegen.emit import (generate_batched_evaluator,
                                generate_evaluator)
from repro.compression import compress
from repro.core.evaluation import evaluate_reference
from repro.htree import build_htree
from repro.kernels import GaussianKernel
from repro.tree import build_cluster_tree

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def rand_points(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, d))


def degenerate_points(kind: str, seed: int) -> np.ndarray:
    """Point sets off the well-spread path: repeated points, fewer points
    than a leaf holds, one dimension, far more dimensions than points,
    points on one line, float32 storage, a large offset, a tiny scale,
    tight clusters far apart."""
    g = np.random.default_rng(seed)
    if kind == "coincident":
        return np.repeat(g.random((int(g.integers(2, 8)), 2)),
                         int(g.integers(10, 40)), axis=0)
    if kind == "below_leaf":
        return g.random((int(g.integers(2, 16)), 2))
    if kind == "clustered":
        centers = g.random((int(g.integers(2, 6)), 3)) * 10
        return np.concatenate([c + 1e-3 * g.standard_normal((50, 3))
                               for c in centers])
    if kind == "wide":
        return g.random((40, 200))
    n = int(g.integers(40, 250))
    if kind == "d1":
        return g.random((n, 1))
    if kind == "collinear":
        return np.outer(g.random(n), g.standard_normal(3)) + g.random(3)
    if kind == "float32":
        return g.random((n, 2)).astype(np.float32)
    if kind == "offset":
        return g.random((n, 2)) + 1e9
    assert kind == "tiny", kind
    return g.random((n, 2)) * 1e-150


class TestHTreeProperties:
    @given(seed=st.integers(0, 50), n=st.integers(40, 250),
           leaf=st.sampled_from([8, 16, 32]),
           tau=st.floats(0.3, 3.0))
    @SLOW
    def test_geometric_tiling_always_exact(self, seed, n, leaf, tau):
        """Near+far interactions tile the N x N matrix exactly once, for any
        point set, leaf size, and admissibility parameter."""
        pts = rand_points(seed, n, 2)
        tree = build_cluster_tree(pts, leaf_size=leaf)
        ht = build_htree(tree, "h2-geometric", tau=tau)
        cov = ht.coverage_matrix()
        assert (cov == 1).all()

    @given(seed=st.integers(0, 50), n=st.integers(40, 200),
           budget=st.floats(0.0, 0.5))
    @SLOW
    def test_budget_tiling_always_exact(self, seed, n, budget):
        pts = rand_points(seed, n, 3)
        tree = build_cluster_tree(pts, leaf_size=16)
        ht = build_htree(tree, "h2-b", budget=budget)
        cov = ht.coverage_matrix()
        assert (cov == 1).all()


class TestBlockingProperties:
    @given(seed=st.integers(0, 50), blocksize=st.integers(1, 8))
    @SLOW
    def test_blocks_always_conflict_free(self, seed, blocksize):
        pts = rand_points(seed, 150, 2)
        tree = build_cluster_tree(pts, leaf_size=16)
        ht = build_htree(tree, "h2-geometric", tau=0.65)
        bs = build_blockset(ht, blocksize, kind="near")
        # Partition of the interaction set...
        assert sorted(bs.all_interactions()) == sorted(ht.near_pairs())
        # ...with pairwise-disjoint writer sets.
        writers = [bs.writer_rows(b) for b in range(bs.num_blocks)]
        for a in range(len(writers)):
            for b in range(a + 1, len(writers)):
                assert writers[a].isdisjoint(writers[b])


class TestCoarseningProperties:
    @given(seed=st.integers(0, 50), p=st.integers(1, 8),
           agg=st.integers(1, 5))
    @SLOW
    def test_schedule_respects_dependencies(self, seed, p, agg):
        """For any (p, agg): nodes appear exactly once, children always
        scheduled before parents in the upward order."""
        pts = rand_points(seed, 200, 2)
        kernel = GaussianKernel(0.5)
        res = compress(pts, kernel, structure="h2-geometric", tau=0.65,
                       bacc=1e-4, leaf_size=16, seed=0)
        cs = build_coarsenset(res.tree, res.sranks, p=p, agg=agg)
        order = []
        for cl in cs.levels:
            # Sub-trees in a level may interleave arbitrarily: validate each
            # sub-tree locally against everything scheduled in prior levels.
            done_before = set(order)
            for st_ in cl.subtrees:
                local = set(done_before)
                for v in st_.nodes:
                    if not res.tree.is_leaf(v):
                        for c in (int(res.tree.lchild[v]),
                                  int(res.tree.rchild[v])):
                            if res.sranks[c] > 0:
                                assert c in local
                    local.add(v)
            order.extend(cl.all_nodes())
        active = set(np.flatnonzero(res.sranks > 0).tolist())
        assert sorted(order) == sorted(active)


class TestEvaluationProperties:
    @given(seed=st.integers(0, 30),
           structure=st.sampled_from(["hss", "h2-geometric"]),
           q=st.integers(1, 4))
    @SLOW
    def test_accuracy_always_within_tolerance(self, seed, structure, q):
        """End to end, for random point sets: ε_f stays under a loose bound
        tied to bacc (the paper's loose-upper-bound relationship)."""
        pts = rand_points(seed, 220, 2)
        kernel = GaussianKernel(0.5)
        res = compress(pts, kernel, structure=structure, bacc=1e-7,
                       leaf_size=16, seed=0)
        rng = np.random.default_rng(seed + 1)
        W = rng.random((220, q))
        Y = evaluate_reference(res.factors, W)
        K = kernel.block(res.tree.ordered_points, res.tree.ordered_points)
        err = np.linalg.norm(Y - K @ W) / np.linalg.norm(K @ W)
        assert err < 1e-3

    @given(seed=st.integers(0, 30), block_near=st.booleans(),
           block_far=st.booleans(), coarsened=st.booleans(),
           peeled=st.booleans())
    @SLOW
    def test_generated_code_always_matches_reference(
            self, seed, block_near, block_far, coarsened, peeled):
        """Codegen correctness is input-independent, for every lowering
        combination the per-block tables can take."""
        from repro.core.inspector import Inspector

        pts = rand_points(seed, 180, 2)
        insp = Inspector(structure="h2-geometric", tau=0.65, bacc=1e-5,
                         leaf_size=16, p=3, seed=0)
        H = insp.run(pts, GaussianKernel(0.5))
        on = {True: 0, False: 10**9}  # a threshold forcing each lowering
        ev = generate_evaluator(
            H.cds, block_threshold=on[block_near],
            far_block_threshold=on[block_far],
            coarsen_threshold=on[coarsened], low_level=peeled)
        d = ev.decision
        assert (d.block_near, d.block_far, d.coarsen, d.peel_root) == (
            block_near, block_far, coarsened, peeled and coarsened)
        rng = np.random.default_rng(seed)
        W = rng.random((180, 2))
        Wt = W[H.tree.perm]
        np.testing.assert_allclose(
            ev(Wt), evaluate_reference(H.factors, Wt), atol=1e-9)


class TestEngineProperties:
    @pytest.mark.parametrize("kind", ["uniform", "coincident", "below_leaf",
                                      "d1", "clustered", "wide", "collinear",
                                      "float32", "offset", "tiny"])
    @given(seed=st.integers(0, 50), q=st.integers(1, 8))
    @settings(SLOW, max_examples=6)
    def test_engines_agree_on_degenerate_inputs(self, kind, seed, q):
        """Batched (stacked coupling loop included) and the process
        engine return the same bytes, and the per-block code agrees to
        rounding, whatever the point set looks like."""
        pts = (rand_points(seed, 200, 2) if kind == "uniform"
               else degenerate_points(kind, seed))
        H = inspector(pts, kernel=GaussianKernel(0.5),
                      structure="h2-geometric", leaf_size=16, bacc=1e-6)
        batched = generate_batched_evaluator(H.cds)
        W = np.random.default_rng(seed + 1).standard_normal((len(pts), q))
        Y = batched(W)
        perm = H.tree.perm
        Y_user = np.empty_like(Y)
        Y_user[perm] = batched(W[perm])
        with ProcessEngine(H, num_workers=2) as eng:
            assert eng.matmul(W).tobytes() == Y_user.tobytes()
        Y_block = H.evaluator(W)
        assert np.linalg.norm(Y - Y_block) <= 1e-12 * np.linalg.norm(Y_block)
