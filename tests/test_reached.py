"""Every function, class and method in ``src/graphbench`` is reached.

A definition is reached when its name appears outside its own definition
as a name, an attribute or an identifier string (``bench/spans.py`` binds
by string) anywhere in ``src/graphbench``, ``bench/`` or ``tools/``, or
when ``graphbench/__init__.py`` exports it. Tests do not count, so code
that only tests call leaves the library or is listed in ``ALLOWED`` with
the reason it stays. Dunder methods are called by Python itself and are
out of scope. Names are matched without scope, so a definition counts as
reached when anything of the same name is used.
"""

import ast
import pathlib

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
ALLOWED = {
    # the dense reference that the adjacency, kernel, aggregation and
    # Dirichlet tests check the sparse operators against
    "to_dense",
}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """Names of every function, class and method in ``tree``, dunders aside."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, _DEFS)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(tree):
    """Every name ``tree`` uses outside the definition of that same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def exports(tree):
    """Names a package ``__init__`` imports, and so exports."""
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_reached_outside_tests():
    library = sorted(SRC.glob("*.py"))
    callers = library + sorted((ROOT / "bench").rglob("*.py")) + \
        sorted((ROOT / "tools").rglob("*.py"))
    reached = exports(_parse(SRC / "__init__.py"))
    for path in callers:
        reached |= references(_parse(path))
    unreached = sorted(f"{path.name}:{name}"
                       for path in library
                       for name in definitions(_parse(path)) - reached - ALLOWED)
    assert not unreached, f"defined in src/graphbench but reached only by tests: {unreached}"


def test_unreached_definition_is_detected():
    tree = ast.parse(
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def used(self):\n"
        "        return self.bound\n"
        "    def bound(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "def by_string():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
        "m = Model()\n"
        "m.used(helper)\n"
        "getattr(m, 'by_string')\n")
    init = ast.parse("from .model import exported\n")
    assert definitions(tree) - references(tree) - exports(init) == {"unused"}
