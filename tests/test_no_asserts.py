"""Certificates and shape checks are explicit raises, never ``assert``:
``python -O`` strips asserts, and the CLI maps an explicit
InvariantViolation to exit 3 in either mode.  Every module of the package
is scanned, also for imports of linalg's private names, which no other
module may use, and for trig polynomials built from Fraction literals."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagfloor"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def test_the_scan_sees_the_package():
    assert {"cecohom.py", "hierarchy.py", "linalg.py", "pairs.py", "spectral.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_assert(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} uses assert at lines {lines}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg.py"])
def test_module_imports_no_private_name_from_linalg(name):
    """Only linalg reads its underscore names: its integer-row helpers are
    its own, and every other module goes through the public interface."""
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "lagfloor.linalg")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{name} imports private linalg names {private}"


def test_hierarchy_does_not_import_the_symbolic_prolonged_derivative():
    """The split and phi_4's check read delta_i L from the pair's action
    table (``ActionTable.lie_lagrangian``); the symbolic
    ``lie_derivative_lagrangian`` is tier-1's oracle in
    ``tests/calculus_oracle.py``, and the classifier does not bring it back."""
    tree = ast.parse((PACKAGE / "hierarchy.py").read_text(), filename="hierarchy.py")
    names = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name == "lie_derivative_lagrangian"
    ]
    attributes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "lie_derivative_lagrangian"
    ]
    assert names == [] and attributes == [], f"hierarchy reaches lie_derivative_lagrangian at {names or attributes}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "expr.py"])
def test_no_trig_polynomial_is_built_from_fraction_literals(name):
    """A TP holds int coefficients over one int denominator; outside expr a
    module builds one from ints, or from a rational vector through
    ``TP.from_vector``, never as ``TP({m: F(1)})``."""
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "TP"
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id in ("F", "Fraction")
    ]
    assert calls == [], f"{name} builds a TP from Fraction literals at lines {calls}"
