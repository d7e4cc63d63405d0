"""What the library modules import.

Every name a library module imports is used in that module. A stale
import is not harmless here: the benchmark's tracer wraps every tensor op
bound in ``graphbench.models``, so an op imported there and never called
shows up as a per-layer metric that always reads zero. ``__init__.py`` is
skipped for that check; its imports are the package's public names.

Beyond the standard library, the package imports only numpy and
``scipy.sparse``. Every graphbench process pays for what the package
imports: ``scipy.sparse.csgraph`` alone added about 12 MB of resident
memory and 0.15 s to the start of each process on a 2-core x86-64 host.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_detected():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os", "dumps"]


def imported_modules(tree):
    """(module, line) for every absolute import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def is_allowed(module):
    """Standard library, numpy and its submodules, or exactly scipy.sparse."""
    return (module.split(".")[0] in sys.stdlib_module_names
            or module == "numpy" or module.startswith("numpy.")
            or module == "scipy.sparse")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_scipy_sparse(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [f"line {line}: {module}" for module, line in imported_modules(tree)
               if not is_allowed(module)]
    assert not foreign, (f"{path.name} imports beyond the standard library, numpy "
                         f"and scipy.sparse: {foreign}")


def test_foreign_import_is_detected():
    tree = ast.parse("import numpy.linalg\nimport scipy.sparse as sp\n"
                     "from scipy.sparse.csgraph import connected_components\n"
                     "from scipy import sparse\nfrom . import kernels\nimport json\n")
    assert [m for m, _ in imported_modules(tree) if not is_allowed(m)] == [
        "scipy.sparse.csgraph", "scipy"]


def test_import_leaves_csgraph_unloaded():
    # a fresh interpreter: this one may have loaded csgraph for other tests
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, graphbench; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
