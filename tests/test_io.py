"""Round-trip tests for HMatrix and InspectionP1 persistence."""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.inspector import Inspector
from repro.core.io import (
    PlanStoreError,
    load_hmatrix,
    load_inspection_p1,
    save_hmatrix,
    save_inspection_p1,
)

PLANS = Path(__file__).parent / "fixtures" / "plans"


@pytest.fixture
def decoded_arrays(monkeypatch):
    """The arrays ``np.load`` decodes from .npz members during the test,
    by member name (the last one decoded under each name)."""
    decoded = {}
    getitem = np.lib.npyio.NpzFile.__getitem__

    def spy(self, key):
        decoded[key] = getitem(self, key)
        return decoded[key]

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
    return decoded


def _assert_keeps_decoded_buffers(H, decoded, names=("basis_buf", "near_buf",
                                                     "far_buf")):
    for name in names:
        assert getattr(H.cds, name) is decoded[name], name


class TestHMatrixRoundtrip:
    def test_product_identical(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        rng = np.random.default_rng(0)
        W = rng.random((hmatrix_2d.dim, 5))
        np.testing.assert_array_equal(hmatrix_2d.matmul(W), H2.matmul(W))

    def test_buffers_bit_exact(self, hmatrix_2d, tmp_path,
                               assert_generators_live_in_cds):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        np.testing.assert_array_equal(H2.cds.basis_buf,
                                      hmatrix_2d.cds.basis_buf)
        np.testing.assert_array_equal(H2.cds.near_buf,
                                      hmatrix_2d.cds.near_buf)
        np.testing.assert_array_equal(H2.cds.far_buf, hmatrix_2d.cds.far_buf)
        # One copy of each generator after a load, as after inspection.
        assert_generators_live_in_cds(H2.factors, H2.cds)

    def test_structure_preserved(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        assert H2.dim == hmatrix_2d.dim
        assert H2.factors.htree.structure == hmatrix_2d.factors.htree.structure
        np.testing.assert_array_equal(H2.sranks, hmatrix_2d.sranks)
        assert H2.factors.htree.near_pairs() == (
            hmatrix_2d.factors.htree.near_pairs())
        assert H2.factors.htree.far_pairs() == (
            hmatrix_2d.factors.htree.far_pairs())

    def test_lowering_decision_preserved(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        d1, d2 = hmatrix_2d.evaluator.decision, H2.evaluator.decision
        assert (d1.block_near, d1.block_far, d1.coarsen, d1.peel_root) == (
            d2.block_near, d2.block_far, d2.coarsen, d2.peel_root)

    def test_permutation_preserved(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        np.testing.assert_array_equal(H2.tree.perm, hmatrix_2d.tree.perm)

    def test_metadata_scalars_survive(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        assert H2.metadata.get("bacc") == hmatrix_2d.metadata.get("bacc")

    def test_no_pickle_in_file(self, hmatrix_2d, tmp_path):
        """Files must load with allow_pickle=False (safe to share)."""
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        with np.load(path, allow_pickle=False) as data:
            assert "manifest" in data.files

    def test_members_stored_uncompressed(self, hmatrix_2d, p1_2d, tmp_path):
        for path in (save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz"),
                     save_inspection_p1(p1_2d, tmp_path / "p1.npz")):
            with zipfile.ZipFile(path) as zf:
                assert {i.compress_type for i in zf.infolist()} == {
                    zipfile.ZIP_STORED}


class TestLoadKeepsStoredBuffers:
    """A stored plan's CDS buffers are laid out in pack order, so a load
    keeps the decoded arrays as the CDS buffers instead of copying every
    generator into new ones."""

    def test_cds_buffers_are_the_decoded_arrays(
            self, hmatrix_2d, tmp_path, decoded_arrays,
            assert_generators_live_in_cds):
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        H2 = load_hmatrix(path)
        _assert_keeps_decoded_buffers(H2, decoded_arrays)
        assert_generators_live_in_cds(H2.factors, H2.cds)

    def test_offsets_out_of_pack_order_are_packed(
            self, hmatrix_2d, tmp_path, decoded_arrays,
            assert_generators_live_in_cds):
        """A payload whose near blocks are stored in reverse order still
        loads, through the packing path, into the plan's own layout."""
        path = save_hmatrix(hmatrix_2d, tmp_path / "hmat.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        near_buf = arrays["near_buf"]
        tree = hmatrix_2d.tree
        blocks, offsets, off = [], {}, 0
        for key, o in sorted(manifest["near_offset"].items(),
                             key=lambda kv: -kv[1]):
            i, j = (int(x) for x in key.split(","))
            size = tree.node_size(i) * tree.node_size(j)
            blocks.append(near_buf[o:o + size])
            offsets[key] = off
            off += size
        assert offsets != manifest["near_offset"]
        manifest["near_offset"] = offsets
        arrays["near_buf"] = np.concatenate(blocks)
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(),
                                           dtype=np.uint8)
        np.savez(tmp_path / "reordered.npz", **arrays)

        H2 = load_hmatrix(tmp_path / "reordered.npz")
        assert H2.cds.near_buf is not decoded_arrays["near_buf"]
        assert H2.cds.near_buf.tobytes() == hmatrix_2d.cds.near_buf.tobytes()
        _assert_keeps_decoded_buffers(H2, decoded_arrays,
                                      ("basis_buf", "far_buf"))
        assert_generators_live_in_cds(H2.factors, H2.cds)
        W = np.random.default_rng(0).random((hmatrix_2d.dim, 5))
        for order in ("batched", "original"):
            assert (H2.matmul(W, order=order).tobytes()
                    == hmatrix_2d.matmul(W, order=order).tobytes()), order


class TestStoredPayloadGolden:
    """``tests/fixtures/plans/hss256_v1.npz`` was written by an earlier
    ``save_hmatrix`` (store format version 1): a 256-point ``random`` HSS
    plan (seed 0, leaf 16, Gaussian bandwidth 5, bacc 1e-5, p=2) with 30
    far and 16 near pairs. ``hss256_v1_product.npz`` holds a Q=3 ``W``
    and the ``order="original"`` product that build returned. A change
    that stops reading such payloads, or bumps the format, fails here."""

    def test_reads_stored_payload_in_place(self, decoded_arrays,
                                           assert_generators_live_in_cds):
        H = load_hmatrix(PLANS / "hss256_v1.npz")
        assert H.factors.htree.num_far() == 30
        assert H.factors.htree.num_near() == 16
        _assert_keeps_decoded_buffers(H, decoded_arrays)
        assert_generators_live_in_cds(H.factors, H.cds)
        with np.load(PLANS / "hss256_v1_product.npz") as ref:
            W, Y = ref["W"], ref["Y"]
        for order in ("original", "batched"):
            err = np.abs(H.matmul(W, order=order) - Y).max()
            assert err <= 1e-12 * np.abs(Y).max(), order


class TestInspectionP1Roundtrip:
    def test_roundtrip_reusable_for_p2(self, p1_2d, inspector_small,
                                       gaussian_kernel, tmp_path):
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        p1b = load_inspection_p1(path)
        H_a = inspector_small.run_p2(p1_2d, gaussian_kernel)
        H_b = inspector_small.run_p2(p1b, gaussian_kernel)
        rng = np.random.default_rng(1)
        W = rng.random((H_a.dim, 3))
        np.testing.assert_allclose(H_a.matmul(W), H_b.matmul(W), atol=1e-10)

    def test_sampling_plan_identical(self, p1_2d, tmp_path):
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        p1b = load_inspection_p1(path)
        for v in range(p1_2d.tree.num_nodes):
            np.testing.assert_array_equal(p1b.plan.for_node(v),
                                          p1_2d.plan.for_node(v))
        assert p1b.plan.k == p1_2d.plan.k
        assert p1b.plan.method == p1_2d.plan.method

    def test_blocksets_identical(self, p1_2d, tmp_path):
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        p1b = load_inspection_p1(path)
        assert p1b.near_blockset.blocks == p1_2d.near_blockset.blocks
        assert p1b.far_blockset.blocks == p1_2d.far_blockset.blocks

    def test_htree_identical(self, p1_2d, tmp_path):
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        p1b = load_inspection_p1(path)
        assert p1b.htree.near == p1_2d.htree.near
        assert p1b.htree.far == p1_2d.htree.far
        assert p1b.htree.structure == p1_2d.htree.structure


class TestRoundtripAcrossStructuresAndDtypes:
    """Every admissibility flavour and input dtype must round-trip."""

    @pytest.mark.parametrize("structure", ["hss", "h2-geometric", "h2-b"])
    def test_structure_roundtrip_product_identical(self, points_2d,
                                                   gaussian_kernel,
                                                   structure, tmp_path):
        insp = Inspector(structure=structure, tau=0.65, budget=0.03,
                         bacc=1e-5, leaf_size=32, p=4, seed=0)
        H = insp.run(points_2d, gaussian_kernel)
        H2 = load_hmatrix(save_hmatrix(H, tmp_path / "h.npz"))
        assert H2.factors.htree.structure == H.factors.htree.structure
        W = np.random.default_rng(0).random((H.dim, 4))
        np.testing.assert_array_equal(H.matmul(W), H2.matmul(W))

    @pytest.mark.parametrize("structure", ["hss", "h2-geometric", "h2-b"])
    def test_structure_p1_roundtrip(self, points_2d, gaussian_kernel,
                                    structure, tmp_path):
        insp = Inspector(structure=structure, tau=0.65, budget=0.03,
                         bacc=1e-5, leaf_size=32, p=4, seed=0)
        p1 = insp.run_p1(points_2d)
        p1b = load_inspection_p1(save_inspection_p1(p1, tmp_path / "p.npz"))
        H_a = insp.run_p2(p1, gaussian_kernel)
        H_b = insp.run_p2(p1b, gaussian_kernel)
        W = np.random.default_rng(1).random((H_a.dim, 3))
        np.testing.assert_allclose(H_a.matmul(W), H_b.matmul(W), atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_dtype_roundtrip(self, gaussian_kernel, dtype, tmp_path):
        pts = np.random.default_rng(5).random((300, 2)).astype(dtype)
        insp = Inspector(leaf_size=32, bacc=1e-5, p=4, seed=0)
        H = insp.run(pts, gaussian_kernel)
        H2 = load_hmatrix(save_hmatrix(H, tmp_path / "h.npz"))
        np.testing.assert_array_equal(H2.cds.basis_buf, H.cds.basis_buf)
        W = np.random.default_rng(6).random((H.dim, 2))
        np.testing.assert_array_equal(H.matmul(W), H2.matmul(W))


class TestCorruptedArtifactsFailClosed:
    """Torn/garbage files raise PlanStoreError, never raw numpy/JSON."""

    def test_truncated_hmatrix_file(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "h.npz")
        path.write_bytes(path.read_bytes()[:128])
        with pytest.raises(PlanStoreError, match="corrupted"):
            load_hmatrix(path)

    def test_truncated_p1_file(self, p1_2d, tmp_path):
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        path.write_bytes(path.read_bytes()[:128])
        with pytest.raises(PlanStoreError, match="corrupted"):
            load_inspection_p1(path)

    def test_flipped_bytes_hmatrix_file(self, hmatrix_2d, tmp_path):
        path = save_hmatrix(hmatrix_2d, tmp_path / "h.npz")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(PlanStoreError):
            load_hmatrix(path)

    def test_not_a_zipfile(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(PlanStoreError, match="corrupted"):
            load_hmatrix(path)
        with pytest.raises(PlanStoreError, match="corrupted"):
            load_inspection_p1(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(PlanStoreError, match="does not exist"):
            load_hmatrix(tmp_path / "nope.npz")
        with pytest.raises(PlanStoreError, match="does not exist"):
            load_inspection_p1(tmp_path / "nope.npz")

    def test_wrong_artifact_kind_rejected(self, p1_2d, tmp_path):
        """Loading a p1 artifact as an HMatrix is a decode failure, not
        silent garbage."""
        path = save_inspection_p1(p1_2d, tmp_path / "p1.npz")
        with pytest.raises(PlanStoreError):
            load_hmatrix(path)

    def test_plan_store_error_is_runtime_error(self):
        assert issubclass(PlanStoreError, RuntimeError)
