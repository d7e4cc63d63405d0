"""Every error class in ``errors.py`` is caught by its own name.

A violated precondition raises ``ContractError``; a subclass of
``GraphbenchError`` earns its own name only when a caller tells it apart.
So each class in ``graphbench/errors.py`` other than ``GraphbenchError``
and ``ContractError`` must be named in an ``except`` clause, as a name or
an attribute, alone or in a tuple, somewhere in ``src/graphbench``,
``bench/`` or ``tools/``. Tests do not count.
"""

import ast
import pathlib

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
UNCAUGHT_BY_DESIGN = {"GraphbenchError", "ContractError"}


def error_classes(tree):
    """Names of the classes defined at the top level of ``tree``."""
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def caught(tree):
    """Every class name that an ``except`` clause in ``tree`` catches."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, ast.Name):
                    found.add(t.id)
                elif isinstance(t, ast.Attribute):
                    found.add(t.attr)
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_error_class_is_caught_by_name():
    callers = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py")) + \
        sorted((ROOT / "tools").rglob("*.py"))
    names = set()
    for path in callers:
        names |= caught(_parse(path))
    classes = error_classes(_parse(SRC / "errors.py"))
    uncaught = sorted(classes - UNCAUGHT_BY_DESIGN - names)
    assert not uncaught, f"no caller catches these by name; raise ContractError: {uncaught}"


def test_uncaught_error_class_is_detected():
    errors = ast.parse(
        "class GraphbenchError(Exception):\n"
        "    pass\n"
        "class ContractError(GraphbenchError):\n"
        "    pass\n"
        "class BareError(GraphbenchError):\n"
        "    pass\n"
        "class TupleError(GraphbenchError):\n"
        "    pass\n"
        "class AttrError(GraphbenchError):\n"
        "    pass\n"
        "class RaisedOnlyError(GraphbenchError):\n"
        "    pass\n")
    caller = ast.parse(
        "try:\n"
        "    run()\n"
        "except BareError:\n"
        "    pass\n"
        "except (OSError, TupleError) as exc:\n"
        "    pass\n"
        "except gb.AttrError:\n"
        "    pass\n"
        "except:\n"
        "    raise RaisedOnlyError('x')\n")
    uncaught = error_classes(errors) - UNCAUGHT_BY_DESIGN - caught(caller)
    assert uncaught == {"RaisedOnlyError"}
