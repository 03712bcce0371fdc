"""Certificates and shape checks are explicit raises, never ``assert``:
``python -O`` strips asserts, and the CLI maps an explicit
InvariantViolation to exit 3 in either mode.  Modules join ASSERT_FREE once
their asserts are converted; the goal is the whole package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagfloor"
ASSERT_FREE = ("cecohom.py", "hierarchy.py", "linalg.py", "pairs.py", "spectral.py")


@pytest.mark.parametrize("name", ASSERT_FREE)
def test_module_has_no_assert(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} uses assert at lines {lines}"
