"""Emitted-kernel write-set verifier: prove an artifact before running it.

A :class:`~repro.codegen.compiled.CompiledArtifact` is *data that
becomes code*: its emitted ``hmatmul_compiled`` source is ``exec()``'d
and then driven by index tables loaded from the PlanStore. The store's
SHA-256 catches torn bytes and ``_validate_tables`` catches arenas that
disagree with specs — but neither proves the property correctness
actually rests on: **every scatter's write set is disjoint or
accumulating exactly as the batched reference requires.** A rotted or
doctored artifact with overlapping scatter targets would execute
cleanly and return silently wrong numbers.

:func:`verify_artifact` closes that hole at load time, *before* the
source is executed:

* **source discipline** — the emitted text must parse to exactly one
  function of the expected name built from the fixed whitelist of
  statement forms, calling only the four bound primitives (``mm``,
  ``_gather``, ``_scatter_add``, ``_scatter_set``); ``_scatter_set``
  (exclusive, last-write-wins) may target only the ownership array T,
  and accumulating scatters only Y/S. Since the source is ``exec()``'d
  from the store, this is also a hardening gate: an artifact cannot
  smuggle imports or arbitrary calls into the serving process.
* **bounds** — every spec's output interval, view offset, and index
  slice must land inside the arrays the driver will actually index.
* **near** — the output intervals ``[si, si+m)`` of the spec rows (one
  per leaf-row slice of a super-row panel; a panel's slices share its
  operand) must be pairwise disjoint (one Y-row writer per slice, so two
  super-rows that overlap are caught; when they tile ``[0, N)`` the
  driver folds them into one dense accumulate, which is only row-aligned
  under disjointness).
* **far** — single-panel intervals and stacked-scatter rows together
  must cover each S row at most once, and each ``_scatter_add`` call's
  index set must be duplicate-free: NumPy fancy ``dst[idx] += src``
  does **not** accumulate duplicates while the numba loop does, so an
  in-call duplicate silently diverges between backends.
* **up/down** — the ``_scatter_set`` ownership rows must be globally
  duplicate-free (each T row has exactly one owner), and each bucket's
  gather index set — reused as the down-sweep's scatter targets — must
  be duplicate-free per call and globally per target array (every Y/S
  row has one writer in the downward sweep).

Failure is a typed :class:`AnalysisError`; the
:class:`~repro.codegen.compiled.CompiledCache` converts it into the
``writeset_violation`` fallback counter and degrades to
``order="batched"`` — serving never raises. Outcomes are counted in the
``writeset_verified``/``writeset_rejected`` analysis counters.
"""

from __future__ import annotations

import ast

import numpy as np

from repro.analysis.counters import bump_analysis_counter

__all__ = ["AnalysisError", "verify_artifact", "verify_artifact_file"]


class AnalysisError(Exception):
    """An artifact failed write-set verification (degrade, don't run)."""


#: AST node types the emitted driver may contain. Anything outside this
#: set (imports, class defs, lambdas, comprehensions, try/except, ...)
#: has no business in straight-line generated code.
_ALLOWED_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Expr,
    ast.Assign, ast.AugAssign, ast.Return, ast.For, ast.If, ast.IfExp,
    ast.Name, ast.Attribute, ast.Subscript, ast.Slice, ast.Tuple,
    ast.Constant, ast.Call, ast.keyword, ast.Compare,
    ast.Is, ast.IsNot, ast.Add, ast.Load, ast.Store,
)

#: The only callables the driver may invoke (bound into its exec
#: environment by CompiledEvaluator).
_ALLOWED_CALLS = frozenset({"mm", "_gather", "_scatter_add",
                            "_scatter_set"})

#: First-argument discipline per primitive: which arrays each data-mover
#: may touch. ``_scatter_set`` is exclusive (last write wins), so it is
#: confined to the ownership array T.
_SCATTER_TARGETS = {
    "_scatter_set": {"T"},
    "_scatter_add": {"Y", "S"},
    "_gather": {"W", "T", "S"},
}


def _fail(reason: str) -> None:
    bump_analysis_counter("writeset_rejected")
    raise AnalysisError(f"compiled artifact rejected: {reason}")


# --------------------------------------------------------------------------
# Source discipline.
# --------------------------------------------------------------------------

def _verify_source(source: str, name: str) -> None:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        _fail(f"emitted source does not parse ({exc.msg} at line "
              f"{exc.lineno})")
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        _fail("emitted source must be exactly one function definition")
    fn = tree.body[0]
    if fn.name != name:
        _fail(f"emitted function is named {fn.name!r}, artifact meta "
              f"says {name!r}")
    if fn.decorator_list:
        _fail("emitted function must not be decorated")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            _fail(f"emitted source contains a disallowed "
                  f"{type(node).__name__} node")
        if isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Name) or \
                    func.id not in _ALLOWED_CALLS:
                label = (func.id if isinstance(func, ast.Name)
                         else ast.unparse(func))
                _fail(f"emitted source calls {label!r}; only "
                      f"{sorted(_ALLOWED_CALLS)} are permitted")
            targets = _SCATTER_TARGETS.get(func.id)
            if targets is not None and not _names_in(
                    node.args[0] if node.args else None, targets):
                first = (ast.unparse(node.args[0]) if node.args
                         else "<missing>")
                _fail(f"{func.id} may only touch {sorted(targets)}, "
                      f"emitted source applies it to {first!r}")


def _names_in(arg: ast.expr | None, targets: set[str]) -> bool:
    """Whether a data-mover's first argument resolves only to allowed
    arrays: a bare name, or a branch select between two allowed names
    (the up-sweep's ``W if from_w else T``)."""
    if isinstance(arg, ast.Name):
        return arg.id in targets
    if isinstance(arg, ast.IfExp):
        return (isinstance(arg.body, ast.Name) and arg.body.id in targets
                and isinstance(arg.orelse, ast.Name)
                and arg.orelse.id in targets)
    return False


# --------------------------------------------------------------------------
# Table discipline.
# --------------------------------------------------------------------------

def _check_index(idx: np.ndarray, limit: int, label: str) -> None:
    if idx.size == 0:
        return
    if int(idx.min()) < 0:
        _fail(f"{label} holds a negative index")
    if int(idx.max()) >= limit:
        _fail(f"{label} indexes row {int(idx.max())}, past its array "
              f"bound {limit}")


def _check_duplicate_free(idx: np.ndarray, label: str) -> None:
    if idx.size and np.unique(idx).size != idx.size:
        _fail(f"{label} scatters to the same row more than once in one "
              f"call (NumPy fancy += drops duplicate contributions; the "
              f"numba loop accumulates them)")


class _RowClaims:
    """Tracks single-writer claims over one output array's rows."""

    def __init__(self, rows: int, array: str, phase: str):
        self.taken = np.zeros(max(rows, 1), dtype=bool)
        self.array = array
        self.phase = phase

    def claim_interval(self, start: int, stop: int, label: str) -> None:
        if bool(self.taken[start:stop].any()):
            _fail(f"{label} writes {self.array}[{start}:{stop}] but "
                  f"other {self.phase} writes already own rows in that "
                  f"interval (single-writer invariant)")
        self.taken[start:stop] = True

    def claim_rows(self, rows: np.ndarray, label: str) -> None:
        if rows.size == 0:
            return
        if bool(self.taken[rows].any()):
            _fail(f"{label} scatters into {self.array} rows already "
                  f"owned by other {self.phase} writes (single-writer "
                  f"invariant)")
        self.taken[rows] = True


def _verify_tables(tables: dict, dim: int, rank_rows: int) -> None:
    t = tables

    # ---- near phase: Y[si:si+m] += panel @ src ---------------------------
    near_gidx = np.asarray(t["near_gidx"])
    _check_index(near_gidx, dim, "near_gidx")
    near_claims = _RowClaims(dim, "Y", "near")
    for row_i, row in enumerate(np.asarray(t["near_specs"])):
        mode, m, k, si, a = (int(x) for x in row)
        label = f"near_specs[{row_i}]"
        if m <= 0 or k < 0 or si < 0 or si + m > dim:
            _fail(f"{label} output interval [{si}, {si + m}) is outside "
                  f"Y's {dim} rows")
        if mode == 0:
            if a < 0 or a + k > dim:
                _fail(f"{label} W view [{a}, {a + k}) is outside W's "
                      f"{dim} rows")
        elif a < 0 or a + k > near_gidx.size:
            _fail(f"{label} gather slice [{a}, {a + k}) is outside "
                  f"near_gidx ({near_gidx.size} entries)")
        near_claims.claim_interval(si, si + m, label)

    # ---- far phase: S singles + stacked scatter-adds ---------------------
    far_gidx = np.asarray(t["far_gidx"])
    _check_index(far_gidx, rank_rows, "far_gidx")
    far_claims = _RowClaims(rank_rows, "S", "far")
    for row_i, row in enumerate(np.asarray(t["far_specs"])):
        mode, m, k, si, a = (int(x) for x in row)
        label = f"far_specs[{row_i}]"
        if m <= 0 or k < 0 or si < 0 or si + m > rank_rows:
            _fail(f"{label} output interval [{si}, {si + m}) is outside "
                  f"S's {rank_rows} rows")
        if mode == 0:
            if a < 0 or a + k > rank_rows:
                _fail(f"{label} T view [{a}, {a + k}) is outside T's "
                      f"{rank_rows} rows")
        elif a < 0 or a + k > far_gidx.size:
            _fail(f"{label} gather slice [{a}, {a + k}) is outside "
                  f"far_gidx ({far_gidx.size} entries)")
        far_claims.claim_interval(si, si + m, label)
    orows = np.asarray(t["fstack_orows"])
    _check_index(orows, rank_rows, "fstack_orows")
    for row_i, row in enumerate(np.asarray(t["fstack_specs"])):
        g, m, k, gat_off, orow_off = (int(x) for x in row)
        label = f"fstack_specs[{row_i}]"
        if g <= 0 or m <= 0 or k < 0:
            _fail(f"{label} has a non-positive stack dimension")
        if gat_off < 0 or gat_off + g * k > far_gidx.size:
            _fail(f"{label} gather slice is outside far_gidx "
                  f"({far_gidx.size} entries)")
        if orow_off < 0 or orow_off + g * m > orows.size:
            _fail(f"{label} scatter slice is outside fstack_orows "
                  f"({orows.size} entries)")
        member = orows[orow_off:orow_off + g * m]
        _check_duplicate_free(member, label)
        far_claims.claim_rows(member, label)

    # ---- up/down sweeps: ownership + reused scatter targets --------------
    up_gidx = np.asarray(t["up_gidx"])
    up_own = np.asarray(t["up_own"])
    _check_index(up_own, rank_rows, "up_own")
    own_claims = _RowClaims(rank_rows, "T", "upward-sweep")
    down_y = _RowClaims(dim, "Y", "downward-sweep")
    down_s = _RowClaims(rank_rows, "S", "downward-sweep")
    for row_i, row in enumerate(np.asarray(t["up_specs"])):
        batch, r, cols, goff, ooff, from_w = (int(x) for x in row)
        label = f"up_specs[{row_i}]"
        if batch <= 0 or r < 0 or cols <= 0:
            _fail(f"{label} has a non-positive bucket dimension")
        if goff < 0 or goff + batch * cols > up_gidx.size:
            _fail(f"{label} gather slice is outside up_gidx "
                  f"({up_gidx.size} entries)")
        if ooff < 0 or ooff + batch * r > up_own.size:
            _fail(f"{label} ownership slice is outside up_own "
                  f"({up_own.size} entries)")
        gidx = up_gidx[goff:goff + batch * cols]
        own = up_own[ooff:ooff + batch * r]
        _check_index(gidx, dim if from_w else rank_rows,
                     f"{label} gather indices")
        # _scatter_set(T, own, ...): exclusive, so every call's rows and
        # the union across calls must be single-owner.
        _check_duplicate_free(own, f"{label} ownership rows")
        own_claims.claim_rows(own, f"{label} ownership rows")
        # The same gidx becomes the downward sweep's scatter-add target
        # (into Y for leaf buckets, S for interior buckets).
        _check_duplicate_free(gidx, f"{label} down-sweep scatter rows")
        if from_w:
            down_y.claim_rows(gidx, f"{label} down-sweep Y scatter")
        else:
            down_s.claim_rows(gidx, f"{label} down-sweep S scatter")


def verify_artifact(artifact) -> None:
    """Prove an artifact's write sets before it is ever executed.

    ``artifact`` is a :class:`~repro.codegen.compiled.CompiledArtifact`
    (duck-typed: ``meta``/``source``/``tables``). Raises
    :class:`AnalysisError` on the first violated invariant; returns
    ``None`` on success. Counts every outcome in the
    ``writeset_verified``/``writeset_rejected`` analysis counters.
    """
    meta = artifact.meta if isinstance(artifact.meta, dict) else {}
    try:
        dim = int(meta["dim"])
        rank_rows = int(meta["rank_rows"])
    except (KeyError, TypeError, ValueError):
        _fail("meta is missing integer dim/rank_rows")
    if dim < 0 or rank_rows < 0:
        _fail(f"meta declares negative dims (dim={dim}, "
              f"rank_rows={rank_rows})")
    _verify_source(str(artifact.source),
                   str(meta.get("name", "hmatmul_compiled")))
    _verify_tables(artifact.tables, dim, rank_rows)
    bump_analysis_counter("writeset_verified")


def verify_artifact_file(path) -> None:
    """Verify a serialized artifact ``.npz`` (the CLI entry point).

    Decode errors surface as :class:`AnalysisError` too — an unreadable
    artifact proves nothing.
    """
    from repro.codegen.compiled import load_compiled_artifact
    from repro.core.io import PlanStoreError

    try:
        artifact = load_compiled_artifact(path)
    except PlanStoreError as exc:
        bump_analysis_counter("writeset_rejected")
        raise AnalysisError(f"compiled artifact rejected: {exc}") from exc
    verify_artifact(artifact)
