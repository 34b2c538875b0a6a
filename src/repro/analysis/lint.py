"""Project-aware AST lint: the four rules generic linters cannot state.

Generic tooling (ruff's pycodestyle/pyflakes/bugbear families) checks
Python; these rules check *this project's* invariants — each one
distilled from a bug class the tree has actually had:

* **R001** — no ``policy or fallback`` truthiness. An
  :class:`~repro.api.policy.ExecutionPolicy` must be resolved by
  identity (:func:`~repro.api.policy.coalesce_policy`), never by
  truthiness: a falsy-but-explicit policy would silently swap itself
  for the fallback (the falsy-``policy`` bugs fixed in PRs 4–5).
* **R002** — every write to an attribute documented as lock-guarded
  (a ``# guarded-by: <lock>`` comment on its ``__init__`` assignment)
  must occur lexically inside a ``with <lock>:`` block. ``__init__``
  itself is exempt (single-threaded construction).
* **R003** — on store/serving paths, no bare ``except:`` and no
  *swallowed* :class:`~repro.core.io.PlanStoreError` (a handler whose
  body is only ``pass``/``...``). The store fails closed by contract;
  a silent catch re-opens it.
* **R004** — no wall-clock or RNG sampling (``time.time``,
  ``datetime.now``, ``random.*``, unseeded ``np.random.default_rng()``)
  in manifest/fingerprint/artifact code. Content-addressed artifacts
  and byte-identical manifests must not depend on when they were made.

Waivers are inline comments — ``# analysis: waive R004 -- reason`` on
the flagged line (or alone on the line above it). A waived finding is
still reported (and lands in the JSON artifact with its reason); only
*unwaived* findings fail ``repro analyze --strict``.

R003/R004 are path-scoped: they run only on files whose repo-relative
path contains one of the rule's markers (see :data:`R003_PATH_MARKERS`
/ :data:`R004_PATH_MARKERS`), because a bare ``except`` in a benchmark
harness is noise while the same line in ``api/store.py`` is a bug.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "R003_PATH_MARKERS",
    "R004_PATH_MARKERS",
    "RULES",
    "findings_to_doc",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]

#: Rule catalog: id -> one-line contract (documented in DESIGN.md §13).
RULES = {
    "R001": "ExecutionPolicy fallbacks resolve by identity "
            "(coalesce_policy), never `policy or ...` truthiness",
    "R002": "writes to a `# guarded-by:` attribute must happen inside "
            "`with <lock>:`",
    "R003": "no bare `except:` / swallowed PlanStoreError on "
            "store/serving paths",
    "R004": "no wall-clock or RNG sampling in "
            "manifest/fingerprint/artifact code",
}

#: Path markers scoping R003 to store/serving code.
R003_PATH_MARKERS = ("store", "service", "session", "serve", "net/",
                     "core/io")

#: Path markers scoping R004 to manifest/fingerprint/artifact code.
R004_PATH_MARKERS = ("manifest", "fingerprint", "artifact", "store",
                     "profile", "api/plan")

#: Attribute references that read a wall clock (flagged by R004 whether
#: called directly or smuggled as a ``default_factory=``).
_WALLCLOCK_REFS = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})

#: Call prefixes that sample a hidden global RNG stream (R004). A
#: *seeded* ``np.random.default_rng(seed)`` is deterministic and allowed;
#: the unseeded zero-argument form is flagged.
_RNG_PREFIXES = ("random.", "np.random.", "numpy.random.")
_DEFAULT_RNG = ("np.random.default_rng", "numpy.random.default_rng")

# Rule ids span the lint family (R...) and the concurrency family
# (C..., repro.analysis.lockorder); one waiver convention covers both.
_WAIVER_RE = re.compile(
    r"#\s*analysis:\s*waive\s+(?P<rules>[RC]\d{3}(?:[,\s]+[RC]\d{3})*)"
    r"\s*(?:--\s*(?P<reason>.*))?")

_GUARDED_BY_RE = re.compile(
    r"self\.(?P<attr>\w+)\s*(?::[^=]+)?=.*#\s*guarded-by:\s*"
    r"(?P<lock>[\w.\[\]'\"]+)")


@dataclass
class Finding:
    """One rule violation (waived or not) at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str | None = None

    def format(self) -> str:
        tail = (f"  [waived: {self.waiver_reason or 'no reason given'}]"
                if self.waived else "")
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}{tail}"


# --------------------------------------------------------------------------
# Waivers.
# --------------------------------------------------------------------------

def _parse_waivers(source: str) -> dict[int, dict[str, str]]:
    """Map line number -> {rule: reason} for every waiver comment.

    A waiver on a code line covers that line; a waiver alone on its own
    line covers the next non-blank, non-comment line.
    """
    waivers: dict[int, dict[str, str]] = {}
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return waivers
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _WAIVER_RE.search(tok.string)
        if m is None:
            continue
        rules = re.findall(r"[RC]\d{3}", m.group("rules"))
        reason = (m.group("reason") or "").strip()
        target = tok.start[0]
        if lines[target - 1].lstrip().startswith("#"):
            j = target  # comment-only line: cover the next code line
            while j < len(lines) and (
                    not lines[j].strip()
                    or lines[j].lstrip().startswith("#")):
                j += 1
            target = j + 1
        for rule in rules:
            waivers.setdefault(target, {})[rule] = reason
    return waivers


def _guarded_registry(source: str) -> dict[str, str]:
    """``# guarded-by:`` annotations: attribute name -> lock expression."""
    registry: dict[str, str] = {}
    for line in source.splitlines():
        m = _GUARDED_BY_RE.search(line)
        if m is not None:
            registry[m.group("attr")] = m.group("lock").strip()
    return registry


# --------------------------------------------------------------------------
# The visitor.
# --------------------------------------------------------------------------

def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, registry: dict[str, str],
                 check_r003: bool, check_r004: bool):
        self.path = path
        self.registry = registry
        self.check_r003 = check_r003
        self.check_r004 = check_r004
        self.findings: list[Finding] = []
        self._with_locks: list[str] = []
        self._func_stack: list[str] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path, line=node.lineno,
            col=node.col_offset, message=message))

    # ---- R001 ------------------------------------------------------------
    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if isinstance(node.op, ast.Or) and node.values:
            first = node.values[0]
            name = None
            if isinstance(first, ast.Name):
                name = first.id
            elif isinstance(first, ast.Attribute):
                name = first.attr
            if name is not None and (name == "policy"
                                     or name.endswith("_policy")):
                self._emit(
                    "R001", node,
                    f"`{name} or ...` resolves a policy by truthiness; "
                    f"use coalesce_policy({name}, fallback)")
        self.generic_visit(node)

    # ---- R002 ------------------------------------------------------------
    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        # A `with` block outside a nested function does not protect the
        # writes inside it (the closure may run on another thread later).
        saved, self._with_locks = self._with_locks, []
        self.generic_visit(node)
        self._with_locks = saved
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _visit_with(self, node) -> None:
        held = [_dotted(item.context_expr) for item in node.items]
        # `with lock.acquire_timeout(...)`-style wrappers: fall back to
        # the call's base expression so `with self._cv:` and helpers match.
        for i, item in enumerate(node.items):
            if held[i] is None and isinstance(item.context_expr, ast.Call):
                held[i] = _dotted(item.context_expr.func)
        pushed = [h for h in held if h is not None]
        self._with_locks.extend(pushed)
        self.generic_visit(node)
        del self._with_locks[len(self._with_locks) - len(pushed):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _check_guarded_write(self, target: ast.AST, node: ast.AST) -> None:
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in self.registry):
            return
        if "__init__" in self._func_stack:
            return
        lock = self.registry[target.attr]
        if lock in self._with_locks:
            return
        self._emit(
            "R002", node,
            f"self.{target.attr} is documented `# guarded-by: {lock}` but "
            f"this write is outside any `with {lock}:` block")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_guarded_write(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_guarded_write(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_guarded_write(node.target, node)
        self.generic_visit(node)

    # ---- R003 ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.check_r003:
            if node.type is None:
                self._emit(
                    "R003", node,
                    "bare `except:` on a store/serving path catches "
                    "KeyboardInterrupt/SystemExit and hides fail-closed "
                    "errors; name the exception types")
            elif self._catches_planstore_error(node.type) \
                    and self._body_swallows(node.body):
                self._emit(
                    "R003", node,
                    "PlanStoreError is swallowed (handler body is only "
                    "pass/...); the store fails closed by contract — "
                    "count, degrade, or re-raise")
        self.generic_visit(node)

    @staticmethod
    def _catches_planstore_error(type_node: ast.AST) -> bool:
        names = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        for n in names:
            dotted = _dotted(n)
            if dotted is not None and \
                    dotted.rsplit(".", 1)[-1] == "PlanStoreError":
                return True
        return False

    @staticmethod
    def _body_swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    # ---- R004 ------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.check_r004:
            dotted = _dotted(node)
            if dotted in _WALLCLOCK_REFS:
                self._emit(
                    "R004", node,
                    f"`{dotted}` samples the wall clock inside "
                    f"manifest/fingerprint/artifact code; take the "
                    f"timestamp as an explicit argument")
                return  # one finding per chain, not per sub-attribute
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.check_r004:
            dotted = _dotted(node.func)
            if dotted in _DEFAULT_RNG:
                if not node.args and not node.keywords:
                    self._emit(
                        "R004", node,
                        "unseeded np.random.default_rng() in "
                        "manifest/fingerprint/artifact code; pass an "
                        "explicit seed")
            elif dotted is not None and \
                    dotted.startswith(_RNG_PREFIXES):
                self._emit(
                    "R004", node,
                    f"`{dotted}(...)` samples a hidden global RNG stream "
                    f"inside manifest/fingerprint/artifact code; use a "
                    f"seeded Generator")
        self.generic_visit(node)


# --------------------------------------------------------------------------
# Entry points.
# --------------------------------------------------------------------------

def _scoped(rel: str, markers: tuple[str, ...]) -> bool:
    return any(marker in rel for marker in markers)


def lint_source(source: str, path: str) -> list[Finding]:
    """Run every applicable rule over one file's source text.

    ``path`` is the repo-relative posix path: it scopes R003/R004 and
    labels the findings. Waived findings are *included* with
    ``waived=True`` — the caller decides whether they count.
    """
    rel = Path(path).as_posix()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(rule="parse", path=rel, line=exc.lineno or 0,
                        col=exc.offset or 0,
                        message=f"file does not parse: {exc.msg}")]
    linter = _Linter(
        rel, _guarded_registry(source),
        check_r003=_scoped(rel, R003_PATH_MARKERS),
        check_r004=_scoped(rel, R004_PATH_MARKERS))
    linter.visit(tree)
    waivers = _parse_waivers(source)
    for finding in linter.findings:
        reason = waivers.get(finding.line, {}).get(finding.rule)
        if reason is not None:
            finding.waived = True
            finding.waiver_reason = reason
    linter.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return linter.findings


def iter_python_files(root) -> list[Path]:
    """Every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py")
                  if not any(part.startswith(".") for part in p.parts))


def lint_paths(paths, base=None) -> list[Finding]:
    """Lint every Python file under the given paths.

    ``base`` (default: the current directory) is stripped from reported
    paths so findings and path-scoping are repo-relative.
    """
    base = Path(base) if base is not None else Path.cwd()
    findings: list[Finding] = []
    for path in paths:
        for file in iter_python_files(path):
            try:
                rel = file.resolve().relative_to(base.resolve())
            except ValueError:
                rel = file
            findings.extend(
                lint_source(file.read_text(encoding="utf-8"),
                            rel.as_posix()))
    return findings


def findings_to_doc(findings, *, extra: dict | None = None) -> dict:
    """Machine-readable findings document (the CI JSON artifact)."""
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "analysis_version": 1,
        "total": len(findings),
        "unwaived": sum(1 for f in findings if not f.waived),
        "waived": sum(1 for f in findings if f.waived),
        "by_rule": dict(sorted(by_rule.items())),
        "findings": [asdict(f) for f in findings],
    }
    if extra:
        doc.update(extra)
    return doc
