"""Every function, class and method in ``src/graphbench`` is reached.

A definition is reached when its name appears outside its own definition
as a name, an attribute or an identifier string (``bench/spans.py`` binds
by string) anywhere in ``src/graphbench``, ``bench/`` or ``tools/``.
Tests do not count, so code that only tests call leaves the library.
Two uses do not count either: an export from ``graphbench/__init__.py``
(an import is not a call), and an attribute of a module imported from
outside graphbench (``np.load`` does not reach ``GraphModel.load``).
Dunder methods are called by Python itself and are out of scope. Other
names are matched without scope, so a definition counts as reached when
anything of the same name is used.
"""

import ast
import pathlib

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """Names of every function, class and method in ``tree``, dunders aside."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, _DEFS)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def outside_imports(tree):
    """Names ``tree`` binds by importing from outside graphbench."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] != "graphbench"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "graphbench":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _root(node):
    """The expression an attribute chain such as ``np.linalg.norm`` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def references(tree):
    """Every name ``tree`` uses outside the definition of that same name."""
    found = set()
    outside = outside_imports(tree)

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in outside):
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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_reached_outside_tests():
    library = sorted(SRC.glob("*.py"))
    callers = library + sorted((ROOT / "bench").rglob("*.py")) + \
        sorted((ROOT / "tools").rglob("*.py"))
    reached = set()
    for path in callers:
        reached |= references(_parse(path))
    unreached = sorted(f"{path.name}:{name}"
                       for path in library
                       for name in definitions(_parse(path)) - reached)
    assert not unreached, f"defined in src/graphbench but reached only by tests: {unreached}"


def test_unreached_definition_is_detected():
    tree = ast.parse(
        "import numpy as np\n"
        "from .model import exported\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def used(self):\n"
        "        return self.bound\n"
        "    def bound(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    def load(self):\n"
        "        pass\n"
        "def by_string():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
        "m = Model()\n"
        "m.used(helper)\n"
        "getattr(m, 'by_string')\n"
        "np.load('model.npz')\n")
    assert definitions(tree) - references(tree) == {"unused", "exported", "load"}
