"""Certificates and shape checks are explicit raises, never ``assert``:
``python -O`` strips asserts, and the CLI maps an explicit
InvariantViolation to exit 3 in either mode.  Every module of the package
is scanned, also for imports of linalg's private names, which no other
module may use."""

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
