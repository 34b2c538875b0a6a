"""Stacked coupling loop: layout, one np.matmul per stack, engine agreement.

The batched engine's coupling loop groups its row panels (one per output
node) by shape ``(m, k)`` and runs each group as one stacked
``np.matmul``: ``S[rows] = np.matmul(P, T[idx]).reshape(-1, Q)``, or,
for a stack whose members each gather one run of T, member by member on
row slices when its members' products are big enough and for a lone
member. NumPy runs a stack as one BLAS GEMM per member, the same call as
the member's 2-D GEMM, so the products keep their bits. The process
engine deals out members of the same stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProcessEngine, inspector, relative_error
from repro.codegen.emit import (
    _batched_far_tables,
    _by_members,
    _coupling_stack,
    _rank_offsets,
    _row_panel_tables,
    _stacked_panels,
    generate_batched_evaluator,
)
from repro.datasets import load_dataset
from repro.kernels.base import get_kernel


def _plan(n, seed, bandwidth, bacc):
    points = load_dataset("random", n=n, seed=seed)
    H = inspector(points, kernel=get_kernel("gaussian", bandwidth=bandwidth),
                  structure="h2-geometric", leaf_size=32, bacc=bacc)
    assert H.evaluator.decision.batch
    return H


@pytest.fixture(scope="module", params=["fixture", "mixed_sranks"])
def H(request):
    """The super-row fixture plan (srank 3 throughout: a few large stacks)
    and a plan whose sranks run 6-8 (stacks of one member and of several).
    """
    if request.param == "fixture":
        return _plan(1500, 3, 5.0, 1e-5)
    return _plan(1200, 4, 2.0, 1e-7)


@pytest.fixture(scope="module")
def stacks(H):
    toff, _rank_rows = _rank_offsets(H.cds)
    return _batched_far_tables(H.cds, toff)


def _skeleton_ranges(H):
    toff, rank_rows = _rank_offsets(H.cds)
    srank = H.cds.factors.srank
    return {v: (int(toff[v]), int(toff[v]) + srank(v))
            for v in H.cds.basis_nodes()}, rank_rows


class TestLayout:
    def test_stacks_of_one_and_of_many(self, stacks):
        sizes = [P.shape[0] for P, *_rest in stacks]
        assert min(sizes) == 1 < max(sizes)

    def test_members_share_their_shape(self, stacks):
        shapes = set()
        for P, idx, rows, _members in stacks:
            g, m, k = P.shape
            assert idx.shape == (g, k)
            assert rows.shape == (g * m,)
            shapes.add((m, k))
        assert len(shapes) == len(stacks)  # one stack per shape

    def test_output_rows_are_disjoint_node_ranges(self, H, stacks):
        ranges, _rank_rows = _skeleton_ranges(H)
        written = np.concatenate([rows for _P, _idx, rows, _m in stacks])
        assert np.unique(written).size == written.size
        outputs = {i for (i, _j) in H.cds.far_visit_order()}
        want = np.concatenate([np.arange(*ranges[i]) for i in outputs])
        np.testing.assert_array_equal(np.sort(written), np.sort(want))
        for P, _idx, rows, _members in stacks:
            m = P.shape[1]
            for member in rows.reshape(-1, m):
                a, b = int(member[0]), int(member[-1]) + 1
                assert (a, b) in ranges.values()
                np.testing.assert_array_equal(member, np.arange(a, b))

    def test_groups_partition_the_far_pairs(self, H, stacks):
        """Every coupling block lands exactly once, at its skeleton rows and
        columns, and the stacks are zero wherever two nodes do not
        interact."""
        cds = H.cds
        ranges, rank_rows = _skeleton_ranges(H)
        want = np.zeros((rank_rows, rank_rows))
        for (i, j) in cds.far_visit_order():
            (a, b), (c, d) = ranges[i], ranges[j]
            want[a:b, c:d] += cds.far(i, j)
        got = np.zeros_like(want)
        for P, idx, rows, _members in stacks:
            g, m, _k = P.shape
            for panel, cols, out in zip(P, idx, rows.reshape(g, m),
                                        strict=True):
                assert np.unique(cols).size == cols.size
                got[np.ix_(out, cols)] += panel
        np.testing.assert_array_equal(got, want)

    def test_overlapping_output_rows_rejected(self, H):
        ranges, _rank_rows = _skeleton_ranges(H)
        cds = H.cds
        panels = _row_panel_tables(cds.far_visit_order(), ranges,
                                   cds.far_buf, cds.far_offset)
        with pytest.raises(ValueError, match="overlapping"):
            _stacked_panels(panels + panels[:1])


class _RecordingStack(np.ndarray):
    """A stack that logs the shape of every np.matmul it heads."""

    calls: list[tuple[int, ...]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _RecordingStack.calls.append(self.shape)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _RecordingStack)
                       else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestOneMatmulPerStack:
    @pytest.mark.parametrize("q", [1, 4, 512])
    def test_batched_issues_one_matmul_per_stack(self, H, stacks, q):
        """One np.matmul per stack, or one per member for a stack run by
        member slices (big enough members, or a lone member)."""
        ev = generate_batched_evaluator(H.cds)
        W = np.random.default_rng(q).random((H.dim, q))
        want = ev(W)
        ev.tables.far = tuple(_coupling_stack(P.view(_RecordingStack), idx,
                                              rows)
                              for P, idx, rows, _members in ev.tables.far)
        _RecordingStack.calls = []
        assert ev(W).tobytes() == want.tobytes()
        passes = -(-q // ev.q_chunk)
        calls = []
        for P, _idx, _rows, members in stacks:
            if _by_members(P, members, min(q, ev.q_chunk)):
                calls += [P.shape[1:]] * len(P)
            else:
                calls.append(P.shape)
        assert any(len(c) == 3 for c in calls)
        assert _RecordingStack.calls == calls * passes


@pytest.fixture(scope="module")
def engine(H):
    with ProcessEngine(H, num_workers=2) as eng:
        yield eng


class TestEngineAgreement:
    @pytest.mark.parametrize("q", [1, 4, 8, 32, 300])
    def test_batched_process_original(self, H, engine, q):
        W = np.random.default_rng(q).standard_normal((H.dim, q))
        y_batched = H.matmul(W, order="batched")
        y_original = H.matmul(W, order="original")
        assert relative_error(y_batched, y_original) < 1e-12
        assert engine.matmul(W).tobytes() == y_batched.tobytes()

    def test_process_engine_bytes(self, H):
        rng = np.random.default_rng(9)
        with ProcessEngine(H, num_workers=2) as eng:
            for q in (1, 4, 40):
                W = rng.standard_normal((H.dim, q))
                assert (eng.matmul(W).tobytes()
                        == H.matmul(W, order="batched").tobytes())
