"""Static lock-order analysis: certify the thread tier deadlock-free.

An AST pass over ``src/repro`` that resolves every ``with <lock>:`` /
``lock.acquire()`` site — including locks reached *interprocedurally*
(``KernelService._execute`` holds the session lock while
``Session.inspect`` walks into ``PlanStore``; autotune nests a per-key
lock over the store) — and builds the **lock-acquisition graph**: an edge
``A -> B`` means some execution path acquires ``B`` while holding ``A``.
A cycle in that graph is a potential deadlock (two threads taking the
cycle's locks in opposite orders can block forever); an acyclic graph
certifies the whole tree deadlock-free under the classic lock-ordering
discipline.

How resolution works, in three passes:

1. *Definitions*: every ``self.attr = threading.Lock()/RLock()/
   Condition()`` (or the :mod:`repro.observability.sync` factories, or a
   dataclass ``field(default_factory=threading.Lock)``) becomes a lock
   named ``Class.attr``; a dict annotated ``dict[..., threading.Lock]``
   becomes a *family* ``Class.attr[*]`` (its members are symmetric, so
   one node stands for all); module-level locks become ``module.NAME``.
   Alongside, attribute/parameter/return annotations and
   ``self.x = ClassName(...)`` assignments bind names to classes so
   call targets resolve.
2. *Summaries*: each function is walked once, tracking the locks held
   lexically (``with`` nesting plus bare ``acquire()``); every resolved
   call site is recorded with the locks held around it.
3. *Closure*: the locks each function can transitively acquire are
   computed to fixpoint over the call graph, and each call site held
   under ``A`` contributes edges ``A -> B`` for every ``B`` the callee
   can reach. Reentrant self-edges on RLocks are dropped (reacquiring
   an RLock you hold is legal); every other cycle becomes a ``C001``
   finding, waivable with the ``# analysis: waive C001 -- reason``
   convention shared with :mod:`repro.analysis.lint`.

The pass is deliberately an over-approximation (a held lock at a call
site taints every lock the callee *could* reach): false edges are
possible, false *missing* edges only through dynamic dispatch the
binder cannot see. The graph it emits is checked in as a golden file
(``tests/fixtures/analysis/lock_order.json``) so CI fails when a future
change inverts or adds an ordering edge silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.counters import bump_analysis_counter
from repro.analysis.lint import Finding, _parse_waivers, iter_python_files

__all__ = [
    "LOCK_RULES",
    "LockOrderReport",
    "analyze_lock_order",
]

#: Rule catalog (the concurrency-certifier counterpart of lint.RULES).
LOCK_RULES = {
    "C001": "the lock-acquisition graph must be acyclic "
            "(consistent lock order = deadlock freedom)",
}

#: Constructors recognised as lock definitions, with their kind.
_LOCK_CALLS = {
    "threading.Lock": "lock", "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "Lock": "lock", "RLock": "rlock", "Condition": "condition",
    "make_lock": "lock", "make_rlock": "rlock",
    "make_condition": "condition",
}

_DICT_LOCK_ANN = re.compile(r"\bdict\[.*(?:Lock|RLock)\b")


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _lock_kind_of_value(node: ast.AST) -> str | None:
    """The lock kind a value expression constructs, if any."""
    if not isinstance(node, ast.Call):
        return None
    dotted = _dotted(node.func)
    kind = _LOCK_CALLS.get(dotted or "")
    if kind is not None:
        return kind
    if dotted in ("field", "dataclasses.field"):
        for kw in node.keywords:
            if kw.arg == "default_factory":
                inner = _dotted(kw.value)
                if inner in _LOCK_CALLS:
                    return _LOCK_CALLS[inner]
    return None


@dataclass
class _ClassInfo:
    name: str
    module: str
    path: str
    lock_attrs: dict[str, str] = field(default_factory=dict)   # attr->kind
    family_attrs: set[str] = field(default_factory=set)
    attr_anns: dict[str, str] = field(default_factory=dict)    # attr->ann src
    dict_value_anns: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)   # attr->class
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class _Module:
    stem: str
    path: str
    tree: ast.Module
    imports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    locks: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, _ClassInfo] = field(default_factory=dict)


@dataclass
class _Summary:
    path: str
    qualname: str
    direct: set[str] = field(default_factory=set)
    # (held locks at the call, callee key, line)
    calls: list[tuple[tuple[str, ...], tuple, int]] = field(
        default_factory=list)
    # direct nesting edges: (src, dst, line)
    edges: list[tuple[str, str, int]] = field(default_factory=list)


def _module_stem(path: Path) -> str:
    return path.parent.name if path.stem == "__init__" else path.stem


def _ann_str(node: ast.AST | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed ASTs
        return ""


class _Index:
    """Global name resolution: classes, functions, annotations."""

    def __init__(self, modules: list[_Module]) -> None:
        self.modules = modules
        self.classes: dict[str, _ClassInfo] = {}
        self.functions: dict[tuple[str, str], ast.FunctionDef] = {}
        for mod in modules:
            for cls in mod.classes.values():
                self.classes.setdefault(cls.name, cls)
            for fname, fn in mod.functions.items():
                self.functions[(mod.stem, fname)] = fn
        # Resolve annotation strings to known class names once the full
        # class table exists.
        for mod in modules:
            for cls in mod.classes.values():
                for attr, ann in cls.attr_anns.items():
                    resolved = self.class_in_annotation(ann)
                    if resolved is not None:
                        cls.attr_types.setdefault(attr, resolved)
                for attr, ann in cls.dict_value_anns.items():
                    resolved = self.class_in_annotation(ann)
                    if resolved is not None:
                        cls.attr_types.setdefault(f"{attr}[]", resolved)

    def class_in_annotation(self, ann: str) -> str | None:
        """First known class named inside an annotation string."""
        for token in re.findall(r"[A-Za-z_]\w*", ann):
            if token in self.classes:
                return token
        return None

    def return_class(self, key: tuple) -> str | None:
        fn: ast.FunctionDef | None = None
        if key[0] == "func":
            fn = self.functions.get((key[1], key[2]))
        elif key[0] == "method":
            cls = self.classes.get(key[1])
            if cls is not None:
                if key[2] == "__init__":
                    return key[1]
                fn = cls.methods.get(key[2])
        if fn is None:
            return None
        return self.class_in_annotation(_ann_str(fn.returns))


# --------------------------------------------------------------------------
# Pass 1: definitions.
# --------------------------------------------------------------------------

def _collect_module(path: Path, rel: str, source: str) -> _Module | None:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    mod = _Module(stem=_module_stem(path), path=rel, tree=tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                mod.imports[local] = ("from", node.module.rsplit(".", 1)[-1],
                                      alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mod.imports[local] = ("mod", alias.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            kind = _lock_kind_of_value(node.value)
            if kind is not None:
                name = node.targets[0].id
                mod.locks[name] = (f"{mod.stem}.{name}", kind)
        elif isinstance(node, ast.FunctionDef):
            mod.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = _collect_class(node, mod, rel)
    return mod


def _collect_class(node: ast.ClassDef, mod: _Module, rel: str) -> _ClassInfo:
    cls = _ClassInfo(name=node.name, module=mod.stem, path=rel)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            attr, ann = stmt.target.id, _ann_str(stmt.annotation)
            kind = _lock_kind_of_value(stmt.value) if stmt.value else None
            if kind is None and ann in ("threading.Lock", "threading.RLock",
                                        "threading.Condition"):
                kind = _LOCK_CALLS[ann.split(".", 1)[1]]
            if kind is not None:
                cls.lock_attrs[attr] = kind
            elif _DICT_LOCK_ANN.search(ann):
                cls.family_attrs.add(attr)
            elif ann.startswith("dict["):
                cls.dict_value_anns[attr] = ann
            else:
                cls.attr_anns[attr] = ann
        elif isinstance(stmt, ast.FunctionDef):
            cls.methods[stmt.name] = stmt
            _collect_self_assigns(stmt, cls)
    return cls


def _collect_self_assigns(fn: ast.FunctionDef, cls: _ClassInfo) -> None:
    params = {a.arg: _ann_str(a.annotation) for a in
              list(fn.args.posonlyargs) + list(fn.args.args)
              + list(fn.args.kwonlyargs) if a.annotation is not None}
    for node in ast.walk(fn):
        target = None
        value = None
        ann = ""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, ann = node.target, node.value, \
                _ann_str(node.annotation)
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        attr = target.attr
        if isinstance(value, ast.IfExp):
            # `self.x = (A(...) if cond else B(...))` — either arm that
            # constructs a known class binds the attribute.
            for arm in (value.body, value.orelse):
                if isinstance(arm, ast.Call):
                    value = arm
                    break
        kind = _lock_kind_of_value(value) if value is not None else None
        if kind is not None:
            cls.lock_attrs[attr] = kind
            continue
        if _DICT_LOCK_ANN.search(ann):
            cls.family_attrs.add(attr)
            continue
        if ann.startswith("dict["):
            cls.dict_value_anns.setdefault(attr, ann)
            continue
        if ann:
            cls.attr_anns.setdefault(attr, ann)
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None and "." not in dotted:
                cls.attr_anns.setdefault(attr, dotted)
        elif isinstance(value, ast.Name) and value.id in params:
            cls.attr_anns.setdefault(attr, params[value.id])


# --------------------------------------------------------------------------
# Pass 2: per-function summaries.
# --------------------------------------------------------------------------

class _Summarizer(ast.NodeVisitor):
    def __init__(self, index: _Index, mod: _Module,
                 cls: _ClassInfo | None, fn: ast.FunctionDef,
                 qualname: str) -> None:
        self.index = index
        self.mod = mod
        self.cls = cls
        self.summary = _Summary(path=mod.path, qualname=qualname)
        self.held: list[str] = []
        self.locals_cls: dict[str, str] = {}
        self.locals_lock: dict[str, str] = {}
        for arg in (list(fn.args.posonlyargs) + list(fn.args.args)
                    + list(fn.args.kwonlyargs)):
            if arg.annotation is not None and arg.arg != "self":
                resolved = index.class_in_annotation(
                    _ann_str(arg.annotation))
                if resolved is not None:
                    self.locals_cls[arg.arg] = resolved

    # ---- resolution ------------------------------------------------------

    def _class_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.name
            return self.locals_cls.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._class_of(node.value)
            if owner is not None:
                info = self.index.classes.get(owner)
                if info is not None:
                    resolved = info.attr_types.get(node.attr)
                    if resolved is not None:
                        return resolved
                    # Property access: the getter's return annotation
                    # names the class (e.g. Executor.autotuner).
                    getter = info.methods.get(node.attr)
                    if getter is not None:
                        return self.index.class_in_annotation(
                            _ann_str(getter.returns))
            return None
        if isinstance(node, ast.Subscript):
            owner = self._class_of(node.value) if not (
                isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self") else (
                self.cls.name if self.cls else None)
            if isinstance(node.value, ast.Attribute) and owner is not None:
                info = self.index.classes.get(owner)
                if info is not None:
                    return info.attr_types.get(f"{node.value.attr}[]")
            return None
        if isinstance(node, ast.Call):
            key = self._callee_of(node)
            if key is not None:
                return self.index.return_class(key)
        return None

    def _lock_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            lid = self.locals_lock.get(node.id)
            if lid is not None:
                return lid
            entry = self.mod.locks.get(node.id)
            return entry[0] if entry is not None else None
        if isinstance(node, ast.Attribute):
            owner = self._class_of(node.value)
            if owner is not None:
                info = self.index.classes.get(owner)
                if info is not None and node.attr in info.lock_attrs:
                    return f"{owner}.{node.attr}"
            return None
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Attribute):
                owner = self._class_of(base.value)
                if owner is not None:
                    info = self.index.classes.get(owner)
                    if info is not None and base.attr in info.family_attrs:
                        return f"{owner}.{base.attr}[*]"
            return None
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) \
                and node.func.attr == "setdefault":
            base = node.func.value
            if isinstance(base, ast.Attribute):
                owner = self._class_of(base.value)
                if owner is not None:
                    info = self.index.classes.get(owner)
                    if info is not None and base.attr in info.family_attrs:
                        return f"{owner}.{base.attr}[*]"
        return None

    def _callee_of(self, node: ast.Call) -> tuple | None:
        fn = node.func
        if isinstance(fn, ast.Name):
            if fn.id in self.mod.functions:
                return ("func", self.mod.stem, fn.id)
            if fn.id in self.index.classes:
                return ("method", fn.id, "__init__")
            imported = self.mod.imports.get(fn.id)
            if imported is not None and imported[0] == "from":
                _, stem, name = imported
                if name in self.index.classes:
                    return ("method", name, "__init__")
                return ("func", stem, name)
            return None
        if isinstance(fn, ast.Attribute):
            owner = self._class_of(fn.value)
            if owner is not None:
                return ("method", owner, fn.attr)
            if isinstance(fn.value, ast.Name):
                imported = self.mod.imports.get(fn.value.id)
                if imported is not None and imported[0] == "mod":
                    return ("func", imported[1], fn.attr)
        return None

    # ---- state tracking --------------------------------------------------

    def _acquire(self, lid: str, line: int) -> None:
        for held in self.held:
            self.summary.edges.append((held, lid, line))
        self.held.append(lid)
        self.summary.direct.add(lid)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            self.visit(item.context_expr)
            lid = self._lock_of(item.context_expr)
            if lid is not None:
                self._acquire(lid, node.lineno)
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        if pushed:
            del self.held[-pushed:]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            lid = self._lock_of(node.value)
            if lid is not None:
                self.locals_lock[name] = lid
                return
            cls = self._class_of(node.value)
            if cls is not None:
                self.locals_cls[name] = cls

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("acquire", "release"):
            lid = self._lock_of(node.func.value)
            if lid is not None:
                if node.func.attr == "acquire":
                    # Held conservatively until the end of the function:
                    # pairing acquire/release lexically is not worth the
                    # soundness risk (the tree uses `with` everywhere).
                    self._acquire(lid, node.lineno)
                elif lid in self.held:
                    self.held.remove(lid)
        key = self._callee_of(node)
        if key is not None and self.held:
            self.summary.calls.append((tuple(self.held), key, node.lineno))
        elif key is not None:
            self.summary.calls.append(((), key, node.lineno))
        self.generic_visit(node)

    # Nested defs and lambdas run later, on whatever thread calls them —
    # their bodies are not covered by the lexically held locks here.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


# --------------------------------------------------------------------------
# Pass 3: closure, cycles, report.
# --------------------------------------------------------------------------

@dataclass
class LockOrderReport:
    """The lock-acquisition graph plus its cycle findings."""

    locks: dict[str, str]                       # name -> kind
    edges: dict[tuple[str, str], list[dict]]    # (src, dst) -> sites
    cycles: list[list[str]]
    findings: list[Finding]

    def summary(self) -> dict:
        """The golden-file shape: names and edges only, no line numbers
        (so refactors that move code without changing order stay green).
        """
        return {
            "lockorder_version": 1,
            "locks": sorted(self.locks),
            "edges": sorted([src, dst] for src, dst in self.edges),
        }

    def to_doc(self) -> dict:
        return {
            "lockorder_version": 1,
            "locks": [{"name": name, "kind": self.locks[name]}
                      for name in sorted(self.locks)],
            "edges": [
                {"src": src, "dst": dst,
                 "sites": sorted(self.edges[(src, dst)],
                                 key=lambda s: (s["path"], s["line"]))[:8]}
                for src, dst in sorted(self.edges)
            ],
            "cycles": [list(c) for c in self.cycles],
            "unwaived_cycles": sum(1 for f in self.findings if not f.waived),
        }


def _strongly_connected(nodes: set[str],
                        succ: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCC, iterative (analysis code must not recurse off a graph)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                out.append(sorted(comp))
    return out


def analyze_lock_order(paths, base=None) -> LockOrderReport:
    """Build + certify the lock-acquisition graph under ``paths``.

    Increments ``lockorder_certified`` (acyclic) or ``lockorder_cycles``
    (by the number of cycles) so manifests record the verdict.
    """
    base = Path(base) if base is not None else Path.cwd()
    modules: list[_Module] = []
    sources: dict[str, str] = {}
    for path in paths:
        for file in iter_python_files(path):
            try:
                rel = file.resolve().relative_to(base.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
            source = file.read_text(encoding="utf-8")
            mod = _collect_module(file, rel, source)
            if mod is not None:
                modules.append(mod)
                sources[rel] = source
    index = _Index(modules)

    summaries: dict[tuple, _Summary] = {}
    lock_kinds: dict[str, str] = {}
    for mod in modules:
        for name, (lid, kind) in mod.locks.items():
            lock_kinds[lid] = kind
        for cls in mod.classes.values():
            for attr, kind in cls.lock_attrs.items():
                lock_kinds[f"{cls.name}.{attr}"] = kind
            for attr in cls.family_attrs:
                lock_kinds[f"{cls.name}.{attr}[*]"] = "family"
            for mname, fn in cls.methods.items():
                summarizer = _Summarizer(index, mod, cls, fn,
                                         f"{cls.name}.{mname}")
                for stmt in fn.body:
                    summarizer.visit(stmt)
                summaries[("method", cls.name, mname)] = summarizer.summary
        for fname, fn in mod.functions.items():
            summarizer = _Summarizer(index, mod, None, fn, fname)
            for stmt in fn.body:
                summarizer.visit(stmt)
            summaries[("func", mod.stem, fname)] = summarizer.summary

    # Transitive lock closure per function.
    reach: dict[tuple, set[str]] = {k: set(s.direct)
                                    for k, s in summaries.items()}
    changed = True
    while changed:
        changed = False
        for key, summ in summaries.items():
            bucket = reach[key]
            before = len(bucket)
            for _held, callee, _line in summ.calls:
                bucket |= reach.get(callee, set())
            if len(bucket) != before:
                changed = True

    edges: dict[tuple[str, str], list[dict]] = {}

    def add_edge(src: str, dst: str, summ: _Summary, line: int,
                 via: str | None = None) -> None:
        if src == dst and lock_kinds.get(src) == "rlock":
            return  # reentrant reacquisition is legal, not an order edge
        site = {"path": summ.path, "line": line, "function": summ.qualname}
        if via is not None:
            site["via"] = via
        sites = edges.setdefault((src, dst), [])
        if site not in sites:
            sites.append(site)

    for key, summ in summaries.items():
        for src, dst, line in summ.edges:
            add_edge(src, dst, summ, line)
        for held, callee, line in summ.calls:
            if not held:
                continue
            via = callee[1] + "." + callee[2] if callee[0] == "method" \
                else callee[2]
            for dst in sorted(reach.get(callee, ())):
                for src in held:
                    add_edge(src, dst, summ, line, via=via)

    succ: dict[str, set[str]] = {}
    nodes = set(lock_kinds)
    for (src, dst) in edges:
        nodes.add(src)
        nodes.add(dst)
        succ.setdefault(src, set()).add(dst)
    cycles = [comp for comp in _strongly_connected(nodes, succ)
              if len(comp) > 1
              or (len(comp) == 1 and comp[0] in succ.get(comp[0], ()))]

    findings: list[Finding] = []
    for comp in cycles:
        cycle_edges = [(s, d) for (s, d) in sorted(edges)
                       if s in comp and d in comp]
        site = edges[cycle_edges[0]][0] if cycle_edges else \
            {"path": "?", "line": 0, "function": "?"}
        findings.append(Finding(
            rule="C001", path=site["path"], line=site["line"], col=0,
            message=(f"lock-order cycle through {{{', '.join(comp)}}} "
                     f"(edges: "
                     f"{'; '.join(f'{s} -> {d}' for s, d in cycle_edges)})"
                     f" — two threads taking these in opposite order "
                     f"deadlock")))
    for finding in findings:
        waivers = _parse_waivers(sources.get(finding.path, ""))
        reason = waivers.get(finding.line, {}).get(finding.rule)
        if reason is not None:
            finding.waived = True
            finding.waiver_reason = reason

    if cycles:
        bump_analysis_counter("lockorder_cycles", len(cycles))
    else:
        bump_analysis_counter("lockorder_certified")
    return LockOrderReport(locks=dict(sorted(lock_kinds.items())),
                           edges=edges, cycles=cycles, findings=findings)
