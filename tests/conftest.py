"""Shared fixtures: small point sets and pre-built compression pipelines."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.inspector import Inspector
from repro.kernels.gaussian import GaussianKernel


@pytest.fixture(autouse=True)
def _sync_trace_recording(request):
    """Record a sync trace per test when ``MATROX_SYNC_TRACE_DIR`` is set.

    Process engines dump their protocol traces into the same directory
    at close: the CI analyze job sets the variable while running the
    engine and service/store/net suites, then replays every dumped trace
    through ``repro analyze --sync-traces``.
    Locks built by the ``make_lock``/``make_rlock``/``make_condition``
    factories *during* the test are traced; ``# guarded-by:`` attributes
    of the thread-tier classes record every access. Traces touching
    fewer than two threads are discarded at dump time.
    """
    if not os.environ.get("MATROX_SYNC_TRACE_DIR"):
        yield
        return
    from repro.observability.sync import (
        SyncTracer,
        default_instrumented_classes,
        install_sync_tracer,
        instrument_guarded,
        maybe_dump_sync_trace,
        uninstall_sync_tracer,
    )

    tracer = SyncTracer(request.node.name)
    undos = [instrument_guarded(cls)
             for cls in default_instrumented_classes()]
    install_sync_tracer(tracer)
    try:
        yield
    finally:
        uninstall_sync_tracer()
        for undo in undos:
            undo()
        maybe_dump_sync_trace(tracer.to_doc())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def points_2d():
    """600 uniform points in the unit square (kd-tree path)."""
    return np.random.default_rng(7).random((600, 2))


@pytest.fixture(scope="session")
def points_hd():
    """400 clustered 12-dimensional points (two-means path)."""
    g = np.random.default_rng(8)
    centers = g.normal(scale=2.0, size=(5, 12))
    labels = g.integers(0, 5, size=400)
    return centers[labels] + 0.3 * g.normal(size=(400, 12))


@pytest.fixture(scope="session")
def gaussian_kernel():
    return GaussianKernel(bandwidth=0.5)


@pytest.fixture(scope="session")
def inspector_small():
    """Inspector configured for test-scale problems."""
    return Inspector(structure="h2-geometric", tau=0.65, leaf_size=32,
                     bacc=1e-6, p=4, seed=0)


@pytest.fixture(scope="session")
def hmatrix_2d(points_2d, gaussian_kernel, inspector_small):
    """A fully-inspected HMatrix on the 2-D point set (shared, read-only)."""
    return inspector_small.run(points_2d, gaussian_kernel)


@pytest.fixture(scope="session")
def p1_2d(points_2d, inspector_small):
    return inspector_small.run_p1(points_2d)


def _check_generators_live_in_cds(factors, cds) -> None:
    for v, gen in {**factors.leaf_basis, **factors.transfer}.items():
        assert np.shares_memory(gen, cds.basis(v)), v
    for pair, gen in factors.near_blocks.items():
        assert np.shares_memory(gen, cds.near(*pair)), pair
    for pair, gen in factors.coupling.items():
        assert np.shares_memory(gen, cds.far(*pair)), pair


@pytest.fixture(scope="session")
def assert_generators_live_in_cds():
    """``check(factors, cds)``: every generator in ``factors`` is a view
    into its own slot of the ``cds`` buffers (one copy in memory)."""
    return _check_generators_live_in_cds
