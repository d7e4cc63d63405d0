"""Every name a library module imports is used in that module.

A stale import is not harmless here: the benchmark's tracer wraps every
tensor op bound in ``graphbench.models``, so an op imported there and
never called shows up as a per-layer metric that always reads zero.
``__init__.py`` is skipped; its imports are the package's public names.
"""

import ast
import pathlib

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
