"""Every file the library writes goes through ``training.write_text``.

``write_text`` writes to a temporary file and renames it over the target,
so an interrupted run never leaves a truncated record or instance behind.
This test fails when any ``open(...)`` call with a writing mode (any of
``w``, ``a``, ``x``, ``+``, or a mode not spelled as a string literal)
sits anywhere else in ``src/graphbench``. ``np.savez`` in
``GraphModel.save`` writes the checkpoint without ``open`` and is outside
its scope.
"""

import ast
import pathlib

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
ALLOWED = {("training.py", "write_text")}


def writing_opens(tree):
    """(enclosing function, line) of every ``open`` call that may write."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_open(node.func):
            # open(file, mode) or path.open(mode)
            at = 1 if isinstance(node.func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else None
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _is_open(func):
    return ((isinstance(func, ast.Name) and func.id == "open")
            or (isinstance(func, ast.Attribute) and func.attr == "open"))


def test_only_write_text_opens_a_file_for_writing():
    stray = [f"{path.name}:{line} in {function}"
             for path in sorted(SRC.glob("*.py"))
             for function, line in writing_opens(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, function) not in ALLOWED]
    assert not stray, f"files written outside training.write_text: {stray}"


def test_writing_open_is_detected():
    tree = ast.parse(
        "def save(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    p.open('r+')\n"
        "    open(p, m)\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, encoding='utf-8')\n")
    assert writing_opens(tree) == [("save", 2), ("save", 3), ("save", 4), ("save", 5)]
