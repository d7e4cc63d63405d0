"""Every training step in the library is ``training.backprop``.

``train``, the batch timer behind criterion 8 and the memory tests all
run ``backprop``, so they measure the step that trains. This test fails
when ``backward(...)`` is called anywhere in ``src/graphbench`` outside
``backprop`` and the gradient check, which backpropagates a bare op or
layer rather than a model's loss.
"""

import ast
import pathlib

import graphbench

SRC = pathlib.Path(graphbench.__file__).parent
ALLOWED = {("training.py", "backprop"), ("gradcheck.py", "run_check")}


def backward_calls(tree):
    """(enclosing function, line) of every ``backward(...)`` or ``x.backward(...)``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "backward")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "backward")):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_backprop_and_gradcheck_call_backward():
    stray = [f"{path.name}:{line} in {function}"
             for path in sorted(SRC.glob("*.py"))
             for function, line in backward_calls(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, function) not in ALLOWED]
    assert not stray, f"backward called outside training.backprop: {stray}"


def test_backward_call_is_detected():
    tree = ast.parse(
        "def step(model, loss):\n"
        "    backward(loss)\n"
        "    tensor.backward(loss)\n"
        "    def inner():\n"
        "        backward(loss)\n"
        "    f = backward\n"
        "backward(loss)\n")
    assert backward_calls(tree) == [("step", 2), ("step", 3), ("inner", 5), (None, 7)]
