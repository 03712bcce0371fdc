"""Every function under src/lagfloor is entered by a command, or is on the
allow-list of ``tests/reach.py`` with its reason."""

import subprocess
import sys

from fixture_pairs import ROOT, SCRIPT_ENV


def test_every_package_function_is_entered_by_a_command_or_allowed():
    """The golden commands, plus check-algebra and check-pair, run under a
    profile in a fresh interpreter; the script lists what they never enter
    and fails on any function off the allow-list, and on a stale entry."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py")], capture_output=True, text=True, env=SCRIPT_ENV, timeout=300
    )
    assert res.returncode == 0, res.stdout + res.stderr
