"""Super-row near panels: layout, GEMM shapes per width, engine agreement.

The batched engine's near loop runs one row panel per *super-row*: a
cluster-tree node whose sibling leaves merged bottom-up while the panel
(its rows by the union of their near columns) holds at most
``_PAD_LIMIT`` times the entries of the D blocks it carries. Wide
products run one GEMM per panel, narrow ones one GEMM per leaf-row slice
of it; the process engine deals out the same table's panels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProcessEngine, inspector, relative_error
from repro.analysis import certify_sync_trace
from repro.codegen.emit import (
    _PAD_LIMIT,
    WIDE_Q_MIN,
    _batched_near_tables,
    _super_rows,
    generate_batched_evaluator,
)
from repro.datasets import load_dataset
from repro.kernels.base import get_kernel


@pytest.fixture(scope="module")
def H():
    """1500 2-d points, leaf 32: 64 leaves in a few dozen super-rows."""
    points = load_dataset("random", n=1500, seed=3)
    H = inspector(points, kernel=get_kernel("gaussian", bandwidth=5.0),
                  structure="h2-geometric", leaf_size=32)
    assert H.evaluator.decision.batch
    return H


@pytest.fixture(scope="module")
def panels(H):
    return _batched_near_tables(H.cds)


def _leaf_ranges(H):
    t = H.tree
    leaves = sorted(int(v) for v in t.leaves)
    return {v: (int(t.start[v]), int(t.stop[v])) for v in leaves}


def _subtree_leaves(t, v):
    if t.is_leaf(v):
        return [v]
    return (_subtree_leaves(t, int(t.lchild[v]))
            + _subtree_leaves(t, int(t.rchild[v])))


class TestLayout:
    def test_fixture_has_merged_and_gathered_panels(self, H, panels):
        assert 1 < len(panels) < len(H.tree.leaves)
        assert any(len(e[1]) > 1 for e in panels)  # a gathered operand
        assert any(len(e[5]) > 1 for e in panels)  # a merged super-row

    def test_panels_partition_rows_into_sibling_groups(self, H, panels):
        t = H.tree
        groups = _super_rows(H.cds)
        assert len(groups) == len(panels)
        stops = [0]
        for group, (panel, _runs, _k, si, ei, slices) in zip(
                groups, panels, strict=True):
            assert si == stops[-1]
            stops.append(ei)
            assert panel.shape[0] == ei - si
            # The group is exactly the leaf set of one cluster-tree node.
            nodes = [v for v in range(t.num_nodes)
                     if t.start[v] == si and t.stop[v] == ei]
            assert any(_subtree_leaves(t, v) == list(group) for v in nodes)
            # Its leaf-row slices tile the panel, one per leaf, in order.
            assert [(a, b) for _rows, a, b in slices] == [
                (int(t.start[v]), int(t.stop[v])) for v in group]
            for rows, a, b in slices:
                assert np.shares_memory(rows, panel)
                assert rows.shape == (b - a, panel.shape[1])
        assert stops[-1] == H.dim

    def test_every_near_block_lands_exactly_once(self, H, panels):
        cds, t = H.cds, H.tree
        want = np.zeros((H.dim, H.dim))
        for (i, j) in cds.near_visit_order():
            want[t.start[i]:t.stop[i], t.start[j]:t.stop[j]] += cds.near(i, j)
        got = np.zeros((H.dim, H.dim))
        for panel, runs, k, si, ei, _slices in panels:
            cols = np.concatenate([np.arange(a, b) for a, b in runs])
            assert cols.size == k == panel.shape[1]
            assert np.unique(cols).size == cols.size
            got[si:ei, cols] += panel
        # Equal bytes: every block at its rows and columns, once, and the
        # panels are zero wherever a row and a column leaf are not near.
        np.testing.assert_array_equal(got, want)

    def test_panel_entries_within_pad_limit(self, H, panels):
        t = H.tree
        carried = {}
        for (i, j) in H.cds.near_visit_order():
            carried[i] = carried.get(i, 0) + t.node_size(i) * t.node_size(j)
        for group, (panel, *_rest) in zip(_super_rows(H.cds), panels,
                                          strict=True):
            assert panel.size <= _PAD_LIMIT * sum(carried[v] for v in group)

    def test_merging_stops_at_the_bound(self, H):
        """No two adjacent sibling super-rows could merge within it."""
        t = H.tree
        ranges = _leaf_ranges(H)
        groups = _super_rows(H.cds)
        near_cols: dict[int, set[int]] = {}
        carried: dict[int, int] = {}
        for (i, j) in H.cds.near_visit_order():
            near_cols.setdefault(i, set()).add(j)
            carried[i] = carried.get(i, 0) + t.node_size(i) * t.node_size(j)
        checked = 0
        for a, b in zip(groups, groups[1:], strict=False):
            merged = list(a) + list(b)
            lo, hi = ranges[merged[0]][0], ranges[merged[-1]][1]
            parent = [v for v in range(t.num_nodes)
                      if t.start[v] == lo and t.stop[v] == hi
                      and _subtree_leaves(t, v) == merged]
            if not parent:
                continue  # not siblings: never a merge candidate
            k = sum(ranges[j][1] - ranges[j][0]
                    for j in set().union(*(near_cols[v] for v in merged)))
            assert (hi - lo) * k > _PAD_LIMIT * sum(carried[v]
                                                    for v in merged)
            checked += 1
        assert checked


class _RecordingPanel(np.ndarray):
    """A panel view that logs the row count of every GEMM it heads."""

    rows: list[int] = []

    def __matmul__(self, other):
        _RecordingPanel.rows.append(self.shape[0])
        return np.matmul(self.view(np.ndarray), other)


def _recording(panels):
    def rec(a):
        return a.view(_RecordingPanel)
    return tuple(
        (rec(panel), runs, k, si, ei,
         tuple((rec(rows), a, b) for rows, a, b in slices))
        for panel, runs, k, si, ei, slices in panels)


class TestGemmShapes:
    @pytest.mark.parametrize("q", [1, 4, 8])
    def test_narrow_batched_gemms_are_leaf_sized(self, H, panels, q):
        ev = generate_batched_evaluator(H.cds)
        W = np.random.default_rng(q).random((H.dim, q))
        want = ev(W)
        ev.tables.near = _recording(ev.tables.near)
        _RecordingPanel.rows = []
        np.testing.assert_array_equal(ev(W), want)
        sizes = sorted(b - a for a, b in _leaf_ranges(H).values())
        assert sorted(_RecordingPanel.rows) == sizes

    def test_wide_batched_gemms_span_super_rows(self, H, panels):
        ev = generate_batched_evaluator(H.cds)
        ev.tables.near = _recording(ev.tables.near)
        _RecordingPanel.rows = []
        ev(np.random.default_rng(0).random((H.dim, WIDE_Q_MIN)))
        assert sorted(_RecordingPanel.rows) == sorted(
            e[0].shape[0] for e in panels)


@pytest.fixture(scope="module")
def engine(H):
    with ProcessEngine(H, num_workers=2) as eng:
        yield eng


class TestEngineAgreement:
    @pytest.mark.parametrize("q", [1, 4, 8, WIDE_Q_MIN - 1, WIDE_Q_MIN, 300])
    def test_matches_original_and_process(self, H, engine, q):
        W = np.random.default_rng(q).random((H.dim, q))
        y_orig = H.matmul(W, order="original")
        y_batched = H.matmul(W, order="batched")
        assert relative_error(y_batched, y_orig) < 1e-12
        assert engine.matmul(W).tobytes() == y_batched.tobytes()

    @pytest.mark.parametrize("q", [4, WIDE_Q_MIN + 8])
    def test_process_engine_bit_identical(self, H, q):
        W = np.random.default_rng(q).random((H.dim, q))
        with ProcessEngine(H, num_workers=2) as eng:
            np.testing.assert_array_equal(eng.matmul(W),
                                          H.matmul(W, order="batched"))
            assert certify_sync_trace(eng.access_trace()) == []

    def test_process_engine_keeps_super_rows_whole(self, H, panels):
        """Workers hold whole super-row panels of the serial engine's own
        table: each one exactly once, none rebuilt."""
        with ProcessEngine(H, num_workers=3) as eng:
            dealt = [e[0] for shard in eng._shards for e in shard.near]
        assert len(dealt) == len(panels)
        assert sorted(map(id, dealt)) == sorted(
            id(e[0]) for e in H.batched_evaluator.tables.near)
