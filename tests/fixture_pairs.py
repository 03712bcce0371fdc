"""The worked pairs, read from the shipped fixtures that the CLI reads, and
the helpers that tests share about them."""

import os
from pathlib import Path

from lagfloor.expr import parse_expr
from lagfloor.linalg import dense
from lagfloor.pairs import action_module, restrict_cocycle
from lagfloor.problemfile import build_pair, load_problem_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "lagfloor" / "fixtures"
# environment of a `python -c` script that imports lagfloor and this module;
# it writes no bytecode into the source tree
SCRIPT_ENV = {
    "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))),
    "PATH": "",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def fixture_pair(name):
    """The pair of ``src/lagfloor/fixtures/NAME.toml``."""
    return build_pair(load_problem_file(FIXTURES / f"{name}.toml"))

def restricted_at(pair, alpha, point):
    """The restriction of ``alpha`` at the frame of one sample point, as
    {dense stability vector: value}, the shape of phi3's certificate."""
    for (at, vecs, _), values in restrict_cocycle(pair, alpha):
        if at == point:
            return {dense(v, pair.algebra.dim): x for v, x in zip(vecs, values)}
    raise KeyError(f"no restriction entry at {point}")


# rotation-closed families on so3_r3: the spin-1 coordinates and the spin-2
# harmonic quadratics, the modules of acceptance criterion 2
SPIN1 = ("x1", "-x3", "x2")
SPIN2 = ("x1*x2", "-x2^2 + x1^2", "x1*x3", "-x2*x3", "-x3^2 + x1^2")


def polynomial_module(pair, family):
    """The g-module on span(family), an action-closed list of polynomial
    strings, built by ``action_module`` with the pair's ``scalar`` images."""
    act = pair.action
    units = [lambda m, i=i: act.scalar(i, m).vector() for i in range(pair.algebra.dim)]
    return action_module(pair.algebra, [parse_expr(pair.chart, f).num.vector() for f in family], units)


def classes_signature(report):
    """The comparable payloads of a ``FloorReport``: floor, sign, and the
    class of each stage as quotient coordinates, not representatives (K3 by
    its status alone)."""

    def sig(cv):
        return None if cv is None else (cv.status, cv.data)

    k3 = None if report.k3_class is None else report.k3_class.status
    return (report.floor, report.sign, sig(report.psi_class), sig(report.k1_class), sig(report.k2_class), k3,
            sig(report.k4_class))
