"""Package metadata. Editable installs work offline with legacy setuptools
(no wheel); the quickstart and docs live in README.md.

The version is single-sourced from ``repro.__version__`` (read textually so
building an sdist does not require the runtime dependencies)."""
import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    m = re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.M)
    if not m:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return m.group(1)


setup(
    name="matrox-repro",
    version=_version(),
    description=(
        "Reproduction of MatRox (Liu et al., PPoPP 2020): inspector-executor "
        "H2 hierarchical-matrix evaluation with CDS storage, specialized "
        "code generation, and a bucketed batched-GEMM executor"
    ),
    long_description=Path(__file__).with_name("README.md").read_text(),
    long_description_content_type="text/markdown",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
