"""Certificates and shape checks are explicit raises, never ``assert``:
``python -O`` strips asserts, and the CLI maps an explicit
InvariantViolation to exit 3 in either mode.  Every module of the package
is scanned."""

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
