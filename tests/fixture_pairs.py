"""The worked pairs, read from the shipped fixtures that the CLI reads."""

import os
from pathlib import Path

from lagfloor.problemfile import build_pair, load_problem_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "lagfloor" / "fixtures"
# environment of a `python -c` script that imports lagfloor and this module
SCRIPT_ENV = {"PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))), "PATH": ""}


def fixture_pair(name):
    """The pair of ``src/lagfloor/fixtures/NAME.toml``."""
    return build_pair(load_problem_file(FIXTURES / f"{name}.toml"))
