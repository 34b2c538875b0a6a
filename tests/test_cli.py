"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def points_file(tmp_path, rng):
    path = tmp_path / "pts.npy"
    np.save(path, np.random.default_rng(3).random((400, 2)))
    return path


class TestInspectCommand:
    def test_inspect_points_file(self, points_file, tmp_path, capsys):
        out = tmp_path / "h.npz"
        rc = main(["inspect", str(points_file), "-o", str(out),
                   "--leaf-size", "32", "--bandwidth", "0.5"])
        assert rc == 0
        assert out.exists()
        assert "inspected N=400" in capsys.readouterr().out

    def test_inspect_named_dataset(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        rc = main(["inspect", "unit", "-n", "500", "-o", str(out),
                   "--structure", "hss", "--leaf-size", "32"])
        assert rc == 0
        assert "hss" in capsys.readouterr().out

    def test_inspect_save_and_reuse_p1(self, points_file, tmp_path, capsys):
        h1 = tmp_path / "h1.npz"
        p1 = tmp_path / "p1.npz"
        rc = main(["inspect", str(points_file), "-o", str(h1),
                   "--save-p1", str(p1), "--leaf-size", "32",
                   "--bandwidth", "0.5"])
        assert rc == 0 and p1.exists()
        h2 = tmp_path / "h2.npz"
        rc = main(["inspect", str(points_file), "-o", str(h2),
                   "--reuse-p1", str(p1), "--leaf-size", "32",
                   "--bacc", "1e-3", "--bandwidth", "0.5"])
        assert rc == 0
        assert "reusing phase-1" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_evaluate_random_w(self, points_file, tmp_path, capsys):
        h = tmp_path / "h.npz"
        main(["inspect", str(points_file), "-o", str(h),
              "--leaf-size", "32", "--bandwidth", "0.5"])
        rc = main(["evaluate", str(h), "-q", "4"])
        assert rc == 0
        assert "GF/s" in capsys.readouterr().out

    def test_evaluate_matches_library_call(self, points_file, tmp_path):
        from repro.core.io import load_hmatrix

        h = tmp_path / "h.npz"
        w_path = tmp_path / "w.npy"
        y_path = tmp_path / "y.npy"
        main(["inspect", str(points_file), "-o", str(h),
              "--leaf-size", "32", "--bandwidth", "0.5"])
        W = np.random.default_rng(1).random((400, 3))
        np.save(w_path, W)
        rc = main(["evaluate", str(h), "--w", str(w_path),
                   "-o", str(y_path)])
        assert rc == 0
        H = load_hmatrix(h)
        np.testing.assert_allclose(np.load(y_path), H.matmul(W), atol=1e-12)


class TestTuneCommand:
    @pytest.fixture()
    def hmat(self, points_file, tmp_path):
        h = tmp_path / "h.npz"
        main(["inspect", str(points_file), "-o", str(h),
              "--leaf-size", "32", "--bandwidth", "0.5"])
        return h

    def test_tune_prints_ranking_and_persists(self, hmat, tmp_path,
                                              capsys):
        store = tmp_path / "profiles"
        rc = main(["tune", str(hmat), "-q", "4", "32",
                   "--reps", "1", "--store", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner" in out and "host:" in out
        assert store.exists()
        from repro.api.store import PlanStore
        assert PlanStore(store).cache_info()["disk_entries"] == 2

    def test_evaluate_order_auto_reuses_profiles(self, hmat, tmp_path,
                                                 capsys):
        store = tmp_path / "profiles"
        rc = main(["tune", str(hmat), "-q", "8",
                   "--reps", "1", "--store", str(store)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["evaluate", str(hmat), "-q", "8", "--order", "auto",
                   "--store", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto policy ->" in out
        assert "order=auto" not in out     # resolved, never run raw

    def test_evaluate_order_auto_without_store(self, hmat, capsys):
        rc = main(["evaluate", str(hmat), "-q", "4", "--order", "auto"])
        assert rc == 0
        assert "auto policy ->" in capsys.readouterr().out

    def test_serve_order_auto(self, request_file, tmp_path, capsys):
        rc = main(["serve", "--requests", str(request_file),
                   "--order", "auto", "--max-batch", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "autotune:" in out


class TestInfoCommand:
    def test_info(self, points_file, tmp_path, capsys):
        h = tmp_path / "h.npz"
        main(["inspect", str(points_file), "-o", str(h),
              "--leaf-size", "32", "--bandwidth", "0.5"])
        rc = main(["info", str(h)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_srank" in out and "N" in out


@pytest.fixture()
def request_file(tmp_path, points_file):
    path = tmp_path / "requests.json"
    path.write_text(json.dumps({
        "datasets": {
            "pts": {"points": str(points_file), "kernel": "gaussian",
                    "bandwidth": 0.5, "leaf_size": 32, "seed": 0},
        },
        "requests": [
            {"points_id": "pts", "q": 4, "seed": 0},
            {"points_id": "pts", "q": 1, "seed": 1},
            {"points_id": "pts", "q": 2, "seed": 2},
        ],
    }))
    return path


class TestCompileCommand:
    def test_compile_single_points(self, points_file, tmp_path, capsys):
        rc = main(["compile", str(points_file), "--store",
                   str(tmp_path / "store"), "--leaf-size", "32",
                   "--bandwidth", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "2 artifact(s)" in out
        assert len(list((tmp_path / "store").glob("*.npz"))) == 2

    def test_compile_request_file(self, request_file, tmp_path, capsys):
        rc = main(["compile", "--requests", str(request_file),
                   "--store", str(tmp_path / "store")])
        assert rc == 0
        assert "compiled pts" in capsys.readouterr().out

    def test_compile_is_idempotent(self, request_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["compile", "--requests", str(request_file), "--store", store])
        rc = main(["compile", "--requests", str(request_file),
                   "--store", store])
        assert rc == 0
        assert "hmatrix_hits=1" in capsys.readouterr().out

    def test_compile_without_spec_errors(self, tmp_path, capsys):
        rc = main(["compile", "--store", str(tmp_path / "store")])
        assert rc == 2
        assert "points spec or --requests" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_cold(self, request_file, capsys):
        rc = main(["serve", "--requests", str(request_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 3 request(s)" in out
        assert "p1_builds=1" in out

    def test_compile_then_serve_is_warm(self, request_file, tmp_path,
                                        capsys):
        store = str(tmp_path / "store")
        main(["compile", "--requests", str(request_file), "--store", store])
        rc = main(["serve", "--requests", str(request_file),
                   "--store", store, "--expect-warm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p1_builds=0, p2_builds=0" in out
        assert "store_disk_hits=1" in out

    def test_expect_warm_fails_without_compile(self, request_file, tmp_path,
                                               capsys):
        rc = main(["serve", "--requests", str(request_file),
                   "--store", str(tmp_path / "empty"), "--expect-warm"])
        assert rc == 1
        assert "--expect-warm" in capsys.readouterr().err

    def test_serve_matches_library_product(self, request_file, points_file,
                                           tmp_path, capsys):
        """The served p50/p99 lines exist and the batching knobs parse."""
        rc = main(["serve", "--requests", str(request_file),
                   "--max-batch", "2", "--max-wait-ms", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency p50" in out and "mean_batch" in out

    def test_bad_request_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_datasets": {}}))
        with pytest.raises(SystemExit, match="datasets"):
            main(["serve", "--requests", str(bad)])

    def test_serve_manifest_next_to_store(self, request_file, tmp_path,
                                          capsys):
        from repro.observability import RunManifest

        store = str(tmp_path / "store")
        main(["compile", "--requests", str(request_file), "--store", store])
        rc = main(["serve", "--requests", str(request_file),
                   "--store", store, "--manifest"])
        assert rc == 0
        assert "run manifest ->" in capsys.readouterr().out
        files = list((tmp_path / "store" / "manifests").glob("run-*.json"))
        assert len(files) == 1
        m = RunManifest.from_json(files[0].read_text())
        m.validate()
        assert m.doc["stats"]["service"]["served"] == 3

    def test_serve_manifest_explicit_path(self, request_file, tmp_path,
                                          capsys):
        from repro.observability import RunManifest

        target = tmp_path / "out.json"
        rc = main(["serve", "--requests", str(request_file),
                   "--manifest", str(target)])
        assert rc == 0
        RunManifest.from_json(target.read_text()).validate()

    def test_serve_manifest_flag_requires_store(self, request_file):
        with pytest.raises(SystemExit, match="--manifest"):
            main(["serve", "--requests", str(request_file), "--manifest"])


class TestDatasetsCommand:
    def test_list(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "covtype" in out and "sunflower" in out

    def test_emit(self, tmp_path, capsys):
        out = tmp_path / "grid.npy"
        rc = main(["datasets", "--emit", "grid", "-n", "200",
                   "-o", str(out)])
        assert rc == 0
        pts = np.load(out)
        assert pts.shape == (200, 2)


def test_serve_unknown_points_id_clean_error(tmp_path, points_file):
    doc = {"datasets": {"pts": {"points": str(points_file),
                                "leaf_size": 32}},
           "requests": [{"points_id": "typo", "q": 1}]}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="typo"):
        main(["serve", "--requests", str(path)])


def test_serve_request_missing_points_id_clean_error(tmp_path, points_file):
    doc = {"datasets": {"pts": {"points": str(points_file),
                                "leaf_size": 32}},
           "requests": [{"q": 1}]}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="None"):
        main(["serve", "--requests", str(path)])


def test_spec_rejects_unknown_keys_and_accepts_p(tmp_path, points_file):
    doc = {"datasets": {"pts": {"points": str(points_file),
                                "leafsize": 32}},  # typo
           "requests": []}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="leafsize"):
        main(["serve", "--requests", str(path)])
    doc["datasets"]["pts"] = {"points": str(points_file),
                              "leaf_size": 64, "p": 2}  # p is pinnable
    path.write_text(json.dumps(doc))
    assert main(["serve", "--requests", str(path)]) == 0
