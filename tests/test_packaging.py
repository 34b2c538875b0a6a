"""Every third-party module the package imports at module level is a
declared runtime dependency (``setup.py``) and installed by CI
(``requirements-dev.txt``). Optional modules are imported inside the
function that needs them. The benchmark's tracer finds every package
name it wraps."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the packages a module imports while it is being
    imported: its body and class bodies, if/try blocks included, function
    bodies not."""
    names: set[str] = set()
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def third_party_imports() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names |= module_level_imports(ast.parse(path.read_text(), str(path)))
    return {n for n in names
            if n != "repro" and n not in sys.stdlib_module_names}


def _project_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement.strip()).group(0).lower()


def install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {_project_name(ast.literal_eval(elt))
                    for elt in node.value.elts}
    raise AssertionError("setup.py declares no install_requires")


def dev_requirements() -> set[str]:
    lines = (ROOT / "requirements-dev.txt").read_text().splitlines()
    return {_project_name(line) for line in lines
            if line.split("#")[0].strip()}


def test_import_walk_sees_the_array_stack():
    assert {"numpy", "scipy"} <= third_party_imports()


def test_setup_declares_every_module_level_import():
    assert third_party_imports() <= install_requires()


def test_ci_installs_every_module_level_import():
    assert third_party_imports() <= dev_requirements()


def test_numba_stays_optional():
    assert "numba" not in third_party_imports()
    assert "numba" not in install_requires()


def test_benchmark_tracer_finds_every_name_it_wraps():
    """``perfbench/tracing.py`` wraps package functions and methods by
    name; a renamed one must fail here, not only in a traced benchmark
    run."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Recorder('check'))"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
