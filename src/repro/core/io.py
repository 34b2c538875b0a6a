"""Persistence for inspection artifacts.

The paper's usage model (Figures 2 and 8) stores the inspector outputs to
disk — the CDS-packed HMatrix (``hmat.cds``), the generated code
(``matmul.h``), and for inspection reuse the CTree, blockset, and sampling
information — so the executor (or a later ``inspector_p2`` run) can load
them without re-inspecting. This module provides the same capability:

* :func:`save_hmatrix` / :func:`load_hmatrix` — the full HMatrix. The flat
  CDS buffers and structure sets round-trip bit-exactly, and the decoded
  buffers are the loaded plan's CDS buffers (they are stored in pack
  order, so nothing is copied again). The evaluator is rebuilt on load
  from the stored lowering decision; the per-block program's tables wait
  for its first run, and the batched ones for the first batched product.
* :func:`save_inspection_p1` / :func:`load_inspection_p1` — the reusable
  phase-1 artifacts (tree, interactions, sampling plan, blocksets).

Format: a single ``.npz`` file holding the numeric buffers plus a JSON
manifest for the structural metadata. No pickle is involved, so the files
are safe to share and stable across Python versions. Members are stored
uncompressed (``np.savez``): deflate shrinks float64 generators only to
about 0.8 of their size and costs far more than reading the extra bytes.
``np.load`` reads compressed members through the same call, so files
written with ``np.savez_compressed`` still load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.analysis.structure_sets import BlockSet, CoarsenLevel, CoarsenSet, SubTree
from repro.codegen.emit import generate_evaluator
from repro.codegen.lowering import LoweringDecision
from repro.compression.factors import Factors
from repro.core.hmatrix import HMatrix
from repro.core.inspector import InspectionP1
from repro.htree.htree import HTree
from repro.sampling.plan import SamplingPlan
from repro.storage.cds import build_cds
from repro.tree.cluster_tree import ClusterTree

_FORMAT_VERSION = 1


class PlanStoreError(RuntimeError):
    """A stored artifact is missing, corrupted, truncated, or incompatible.

    Every load path in this module (and the disk tier of
    :class:`repro.api.store.PlanStore`) fails **closed** with this error:
    a file that does not decode bit-for-bit into a valid artifact raises
    ``PlanStoreError`` rather than leaking a raw ``zipfile``/``numpy``/
    ``json`` exception — or, worse, a silently wrong matrix.

    ``quarantine`` is set by the store's integrity checks when the
    offending file pair was moved aside rather than deleted.
    """

    quarantine: bool = False


def _guard_load(what: str, path, loader):
    """Run ``loader()`` failing closed: any decode error, missing file, or
    format incompatibility surfaces as a :class:`PlanStoreError` naming the
    artifact, never a raw ``zipfile``/``numpy``/``json``/``KeyError``."""
    try:
        return loader()
    except PlanStoreError:
        raise
    except FileNotFoundError as exc:
        raise PlanStoreError(f"{what} artifact {path} does not exist") from exc
    except Exception as exc:
        raise PlanStoreError(
            f"{what} artifact {path} is corrupted, truncated, or not a "
            f"{what} file ({type(exc).__name__}: {exc})"
        ) from exc


# --------------------------------------------------------------------------
# Structural (de)serialisation helpers.
# --------------------------------------------------------------------------

def _tree_arrays(tree: ClusterTree) -> dict[str, np.ndarray]:
    return {
        "tree_points": tree.points,
        "tree_perm": tree.perm,
        "tree_parent": tree.parent,
        "tree_lchild": tree.lchild,
        "tree_rchild": tree.rchild,
        "tree_level": tree.level,
        "tree_start": tree.start,
        "tree_stop": tree.stop,
    }


def _tree_from_arrays(data) -> ClusterTree:
    return ClusterTree(
        data["tree_points"], data["tree_perm"], data["tree_parent"],
        data["tree_lchild"], data["tree_rchild"], data["tree_level"],
        data["tree_start"], data["tree_stop"],
    )


def _pairs_to_list(d: dict[int, list[int]]) -> list[list[int]]:
    return [[int(k)] + [int(x) for x in v] for k, v in sorted(d.items())]


def _pairs_from_list(rows) -> dict[int, list[int]]:
    return {int(r[0]): [int(x) for x in r[1:]] for r in rows}


def _blockset_manifest(bs: BlockSet) -> dict:
    return {
        "blocks": [[[int(i), int(j)] for (i, j) in b] for b in bs.blocks],
        "blocksize": bs.blocksize,
        "kind": bs.kind,
    }


def _blockset_from_manifest(m) -> BlockSet:
    return BlockSet(
        blocks=[[(int(i), int(j)) for i, j in b] for b in m["blocks"]],
        blocksize=int(m["blocksize"]),
        kind=m["kind"],
    )


def _coarsenset_manifest(cs: CoarsenSet) -> dict:
    return {
        "agg": cs.agg,
        "num_partitions": cs.num_partitions,
        "levels": [
            {
                "lb": cl.lb,
                "ub": cl.ub,
                "subtrees": [
                    {"nodes": [int(v) for v in st.nodes],
                     "cost": st.cost,
                     "roots": [int(r) for r in st.roots]}
                    for st in cl.subtrees
                ],
            }
            for cl in cs.levels
        ],
    }


def _coarsenset_from_manifest(m) -> CoarsenSet:
    return CoarsenSet(
        agg=int(m["agg"]),
        num_partitions=int(m["num_partitions"]),
        levels=[
            CoarsenLevel(
                lb=int(cl["lb"]), ub=int(cl["ub"]),
                subtrees=[
                    SubTree(nodes=[int(v) for v in st["nodes"]],
                            cost=float(st["cost"]),
                            roots=[int(r) for r in st["roots"]])
                    for st in cl["subtrees"]
                ],
            )
            for cl in m["levels"]
        ],
    )


def _decision_manifest(d: LoweringDecision) -> dict:
    return {
        "block_near": d.block_near, "block_far": d.block_far,
        "coarsen": d.coarsen, "peel_root": d.peel_root,
        "block_threshold": d.block_threshold,
        "far_block_threshold": d.far_block_threshold,
        "coarsen_threshold": d.coarsen_threshold,
        "reasons": list(d.reasons),
        "batch": d.batch,
        "batch_threshold": d.batch_threshold,
    }


def _decision_from_manifest(m) -> LoweringDecision:
    return LoweringDecision(
        block_near=bool(m["block_near"]), block_far=bool(m["block_far"]),
        coarsen=bool(m["coarsen"]), peel_root=bool(m["peel_root"]),
        block_threshold=int(m["block_threshold"]),
        far_block_threshold=int(m["far_block_threshold"]),
        coarsen_threshold=int(m["coarsen_threshold"]),
        reasons=tuple(m.get("reasons", ())),
        batch=bool(m.get("batch", False)),
        batch_threshold=float(m.get("batch_threshold", 2.0)),
    )


# --------------------------------------------------------------------------
# HMatrix save / load.
# --------------------------------------------------------------------------

def save_hmatrix(H, path) -> Path:
    """Store an HMatrix (CDS buffers + structure) to ``path`` (.npz).

    Also accepts a :class:`~repro.api.operator.KernelOperator`, whose
    backing HMatrix is materialized (inspecting if still lazy) and stored;
    the compressed content round-trips bit-exactly either way.
    """
    if not isinstance(H, HMatrix) and hasattr(H, "hmatrix"):
        H = H.hmatrix  # KernelOperator (or any facade exposing .hmatrix)
    if not isinstance(H, HMatrix):
        raise TypeError(
            f"expected an HMatrix or an operator backed by one, got "
            f"{type(H).__name__ if H is not None else None}"
        )
    path = Path(path)
    factors = H.factors
    tree = H.tree
    arrays: dict[str, np.ndarray] = dict(_tree_arrays(tree))
    arrays["sranks"] = factors.sranks

    # Generators: flat buffers are already packed in the CDS.
    arrays["basis_buf"] = H.cds.basis_buf
    arrays["near_buf"] = H.cds.near_buf
    arrays["far_buf"] = H.cds.far_buf
    for v, sk in factors.skeleton.items():
        arrays[f"skeleton_{v}"] = sk

    manifest = {
        "version": _FORMAT_VERSION,
        "structure": factors.htree.structure,
        "near": _pairs_to_list(factors.htree.near),
        "far": _pairs_to_list(factors.htree.far),
        "near_blockset": _blockset_manifest(H.cds.near_blockset),
        "far_blockset": _blockset_manifest(H.cds.far_blockset),
        "coarsenset": _coarsenset_manifest(H.cds.coarsenset),
        "decision": _decision_manifest(H.evaluator.decision),
        "basis_offset": {str(k): int(v) for k, v in H.cds.basis_offset.items()},
        "basis_shape": {str(k): list(v) for k, v in H.cds.basis_shape.items()},
        "near_offset": {f"{i},{j}": int(o)
                        for (i, j), o in H.cds.near_offset.items()},
        "far_offset": {f"{i},{j}": int(o)
                       for (i, j), o in H.cds.far_offset.items()},
        "metadata": {k: v for k, v in H.metadata.items()
                     if isinstance(v, (str, int, float, bool))},
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)
    return path


def _as_source(path):
    """np.load source: a binary file-like passes through, else a Path."""
    return path if hasattr(path, "read") else Path(path)


def load_hmatrix(path) -> HMatrix:
    """Load an HMatrix saved by :func:`save_hmatrix`.

    The decoded CDS buffers become the plan's own, with the generators as
    views into them, and the evaluator is rebuilt from the stored lowering
    decision without building any program tables (they are built on first
    use). ``path`` may also be an open binary file-like (the
    :class:`~repro.api.store.PlanStore` hands over bytes it already read
    for the integrity check). Fails closed: a corrupted, truncated, or
    version-incompatible file raises :class:`PlanStoreError`.
    """
    return _guard_load("hmatrix", path, lambda: _load_hmatrix(path))


def _load_hmatrix(path) -> HMatrix:
    with np.load(_as_source(path), allow_pickle=False) as data:
        manifest = json.loads(bytes(data["manifest"]).decode())
        if manifest["version"] != _FORMAT_VERSION:
            raise PlanStoreError(
                f"unsupported hmatrix file version {manifest['version']} "
                f"in {path} (this build reads version {_FORMAT_VERSION})"
            )
        tree = _tree_from_arrays(data)
        htree = HTree(tree=tree,
                      near=_pairs_from_list(manifest["near"]),
                      far=_pairs_from_list(manifest["far"]),
                      structure=manifest["structure"])
        factors = Factors(htree=htree)
        factors.sranks = np.asarray(data["sranks"], dtype=np.intp)
        factors.skeleton = {
            int(k.split("_")[1]): np.asarray(data[k], dtype=np.intp)
            for k in data.files if k.startswith("skeleton_")
        }

        # Rebuild the per-node / per-pair generator dicts as views into the
        # decoded flat buffers. Stored in pack order, as save_hmatrix writes
        # them, those buffers become the CDS buffers; build_cds packs any
        # other layout into its own buffers and re-points the dicts there.
        basis_buf = data["basis_buf"]
        near_buf = data["near_buf"]
        far_buf = data["far_buf"]
        basis_offset: dict[int, int] = {}
        for vstr, off in manifest["basis_offset"].items():
            v = int(vstr)
            rows, cols = manifest["basis_shape"][vstr]
            gen = basis_buf[off: off + rows * cols].reshape(rows, cols)
            if tree.is_leaf(v):
                factors.leaf_basis[v] = gen
            else:
                factors.transfer[v] = gen
            basis_offset[v] = off
        near_offset: dict[tuple[int, int], int] = {}
        for key, off in manifest["near_offset"].items():
            i, j = (int(x) for x in key.split(","))
            rows, cols = tree.node_size(i), tree.node_size(j)
            factors.near_blocks[(i, j)] = near_buf[
                off: off + rows * cols].reshape(rows, cols)
            near_offset[(i, j)] = off
        far_offset: dict[tuple[int, int], int] = {}
        for key, off in manifest["far_offset"].items():
            i, j = (int(x) for x in key.split(","))
            rows = int(factors.sranks[i])
            cols = int(factors.sranks[j])
            factors.coupling[(i, j)] = far_buf[
                off: off + rows * cols].reshape(rows, cols)
            far_offset[(i, j)] = off

    near_bs = _blockset_from_manifest(manifest["near_blockset"])
    far_bs = _blockset_from_manifest(manifest["far_blockset"])
    coarsenset = _coarsenset_from_manifest(manifest["coarsenset"])
    decision = _decision_from_manifest(manifest["decision"])

    cds = build_cds(factors, coarsenset, near_bs, far_bs,
                    stored={"basis": (basis_buf, basis_offset),
                            "near": (near_buf, near_offset),
                            "far": (far_buf, far_offset)})
    evaluator = generate_evaluator(cds, decision=decision)
    return HMatrix(cds=cds, evaluator=evaluator,
                   metadata=dict(manifest.get("metadata", {})))


def load_operator(path, policy=None):
    """Load a stored HMatrix as a composable KernelOperator facade.

    Convenience for executor-side processes: the loaded operator supports
    ``@``, scaling, and ``+ beta * I`` directly (see
    :mod:`repro.api.operator`), with ``policy`` as its bound execution
    policy.
    """
    from repro.api.operator import KernelOperator

    return KernelOperator(load_hmatrix(path), policy=policy)


# --------------------------------------------------------------------------
# InspectionP1 save / load (Figure 8's reuse artifacts).
# --------------------------------------------------------------------------

def save_inspection_p1(p1: InspectionP1, path) -> Path:
    """Store the reusable phase-1 inspection to ``path`` (.npz)."""
    path = Path(path)
    arrays = dict(_tree_arrays(p1.tree))
    for v, s in p1.plan.samples.items():
        arrays[f"samples_{v}"] = s
    manifest = {
        "version": _FORMAT_VERSION,
        "structure": p1.htree.structure,
        "near": _pairs_to_list(p1.htree.near),
        "far": _pairs_to_list(p1.htree.far),
        "near_blockset": _blockset_manifest(p1.near_blockset),
        "far_blockset": _blockset_manifest(p1.far_blockset),
        "plan": {"k": p1.plan.k, "method": p1.plan.method,
                 "seed": p1.plan.seed, "stats": p1.plan.stats},
        "timings": p1.timings,
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)
    return path


def load_inspection_p1(path) -> InspectionP1:
    """Load phase-1 inspection artifacts saved by :func:`save_inspection_p1`.

    ``path`` may also be an open binary file-like. Fails closed: a
    corrupted, truncated, or version-incompatible file raises
    :class:`PlanStoreError`.
    """
    return _guard_load("inspection-p1", path, lambda: _load_inspection_p1(path))


def _load_inspection_p1(path) -> InspectionP1:
    with np.load(_as_source(path), allow_pickle=False) as data:
        manifest = json.loads(bytes(data["manifest"]).decode())
        if manifest["version"] != _FORMAT_VERSION:
            raise PlanStoreError(
                f"unsupported inspection file version {manifest['version']} "
                f"in {path} (this build reads version {_FORMAT_VERSION})"
            )
        tree = _tree_from_arrays(data)
        samples = {
            int(k.split("_")[1]): np.asarray(data[k], dtype=np.intp)
            for k in data.files if k.startswith("samples_")
        }
    htree = HTree(tree=tree,
                  near=_pairs_from_list(manifest["near"]),
                  far=_pairs_from_list(manifest["far"]),
                  structure=manifest["structure"])
    pm = manifest["plan"]
    plan = SamplingPlan(samples=samples, k=int(pm["k"]), method=pm["method"],
                        seed=pm["seed"], stats=pm.get("stats", {}))
    return InspectionP1(
        tree=tree, htree=htree, plan=plan,
        near_blockset=_blockset_from_manifest(manifest["near_blockset"]),
        far_blockset=_blockset_from_manifest(manifest["far_blockset"]),
        timings={k: float(v) for k, v in manifest.get("timings", {}).items()},
    )


# --------------------------------------------------------------------------
# TuningProfile save / load (repro.tuning's PlanStore artifacts).
# --------------------------------------------------------------------------

def save_tuning_profile(profile, path) -> Path:
    """Store a tuning profile (a plain JSON-able dict) to ``path`` (.npz).

    Profiles travel as dicts (see
    :meth:`repro.tuning.TuningProfile.to_dict`) so this module stays free
    of a ``repro.tuning`` import; the .npz envelope keeps them on the
    same atomic-write/SHA-256-manifest PlanStore path as plans.
    """
    if hasattr(profile, "to_dict"):
        profile = profile.to_dict()
    if not isinstance(profile, dict):
        raise TypeError(
            f"expected a TuningProfile or its dict form, got "
            f"{type(profile).__name__}"
        )
    path = Path(path)
    manifest = {"version": _FORMAT_VERSION, "profile": profile}
    blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, manifest=blob)
    return path


def load_tuning_profile(path) -> dict:
    """Load a tuning-profile dict saved by :func:`save_tuning_profile`.

    ``path`` may also be an open binary file-like. Fails closed: a
    corrupted, truncated, or version-incompatible file raises
    :class:`PlanStoreError`.
    """
    return _guard_load("tuning-profile", path,
                       lambda: _load_tuning_profile(path))


def _load_tuning_profile(path) -> dict:
    with np.load(_as_source(path), allow_pickle=False) as data:
        manifest = json.loads(bytes(data["manifest"]).decode())
    if manifest.get("version") != _FORMAT_VERSION:
        raise PlanStoreError(
            f"unsupported tuning-profile file version "
            f"{manifest.get('version')} in {path} (this build reads "
            f"version {_FORMAT_VERSION})"
        )
    profile = manifest.get("profile")
    if not isinstance(profile, dict):
        raise PlanStoreError(
            f"tuning-profile artifact {path} holds no profile dict")
    return profile
