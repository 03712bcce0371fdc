"""The total differential Q = (-1)^q d2 + d1 is written once, in
``spectral._q_columns``; the zig-zag pages and the page differentials read
windows of it and re-derive no sign.  An ``ast`` scan of ``spectral.py``
keeps it that way."""

import ast
from pathlib import Path

SPECTRAL = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / "spectral.py"


def _is_minus_one(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        return isinstance(node, ast.Constant) and node.value == 1
    return isinstance(node, ast.Constant) and node.value == -1


def _powers_of_minus_one(tree):
    """(enclosing function, line) of every power of -1, where Python's own
    pow(-1, n) counts too."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_minus_one(node.left):
            found.append((function, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"
                and node.args and _is_minus_one(node.args[0])):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_scan_sees_a_sign():
    tree = ast.parse("def f(q):\n    return (-1) ** q + pow(-1, q)\n")
    assert _powers_of_minus_one(tree) == [("f", 2), ("f", 2)]


def test_q_has_one_sign_rule():
    tree = ast.parse(SPECTRAL.read_text(), filename=SPECTRAL.name)
    found = _powers_of_minus_one(tree)
    assert found, "Q's sign rule is missing from spectral.py"
    assert {function for function, _ in found} == {"_q_columns"}, found


def test_block_kernel_is_gone():
    tree = ast.parse(SPECTRAL.read_text(), filename=SPECTRAL.name)
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_q_columns" in names
    assert "_block_kernel" not in names
