import ast
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lagfloor.cecohom import (
    GModule,
    NotACocycle,
    ce_differential,
    coboundary_witness,
    cochain_tuples,
    cohomology,
    is_cocycle,
    validate_module,
)
from lagfloor.liealg import StructureConstants, catalog
from lagfloor.linalg import InvariantViolation, Mat

F = Fraction


def so3_spin1():
    """Action of so(3) on linear functions span{x1,x2,x3}: rho_i = matrix of L_i."""
    g = catalog("so3")
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    mats = []
    for i in range(3):
        ent = [[F(0)] * 3 for _ in range(3)]
        # L_i = -eps_{ijk} x^j d/dx^k acts on x^s: L_i x^s = -eps_{ijs} x^j... read off
        for j in range(3):
            for k in range(3):
                e = eps.get((i, j, k), 0)
                if e:
                    # field term -e * x^j d/dx^k sends x^k -> -e x^j
                    ent[j][k] -= F(e)
        mats.append(Mat.from_rows(ent))
    return GModule(3, g, tuple(mats))


def test_trivial_module_validates():
    for name in ("l3", "so3", "galilean"):
        g = catalog(name)
        assert validate_module(GModule.trivial(g)).ok


def test_spin1_module_validates():
    assert validate_module(so3_spin1()).ok


def test_corrupted_module_detected():
    a = so3_spin1()
    bad_action = list(a.action)
    rho = bad_action[0]
    bad_action[0] = Mat(3, 3, ({**rho.data[0], 0: rho.data[0].get(0, 0) + 1},) + rho.data[1:])
    report = validate_module(GModule(3, a.algebra, tuple(bad_action)))
    assert not report.ok
    assert (0, 1) in report.violations


def test_differential_degree_zero_trivial_coeffs():
    g = catalog("l3")
    d0 = ce_differential(g, GModule.trivial(g), 0)
    assert d0.is_zero()


def test_differential_degree_one_trivial_coeffs():
    # (delta c)(h_i, h_j) = -c_k c^k_{ij}
    g = catalog("l3")
    d1 = ce_differential(g, GModule.trivial(g), 1)
    c = {2: F(1)}  # the e^3 cochain
    out = d1.mul_vec(c)
    # pairs in lex order: (0,1), (0,2), (1,2); [e1,e2] = e3
    assert out == {0: F(-1)}


def test_so3_trivial_h1_h2_zero():
    g = catalog("so3")
    triv = GModule.trivial(g)
    assert cohomology(g, triv, 1).dim == 0
    assert cohomology(g, triv, 2).dim == 0


def test_l3_trivial_h1_h2():
    g = catalog("l3")
    triv = GModule.trivial(g)
    h1 = cohomology(g, triv, 1)
    assert h1.dim == 2
    for rep in h1.representatives:
        # components (a, b, 0): nothing on e3
        assert 2 not in rep
    assert cohomology(g, triv, 2).dim == 2


def test_abelian_trivial_hq_binomial():
    from math import comb

    for n in (2, 3):
        g = catalog("abelian", n=n)
        triv = GModule.trivial(g)
        for q in range(n + 1):
            assert cohomology(g, triv, q).dim == comb(n, q)


def bargmann_pattern(g):
    """delta_ij pairing of p_i with B_j, all other components zero, as a
    2-cochain vector indexed by cochain_tuples."""
    idx = {n: i for i, n in enumerate(g.basis_names)}
    pos = {t: k for k, t in enumerate(cochain_tuples(g.dim, 2))}
    vec = {}
    for i in range(1, 4):
        a, b = idx[f"p{i}"], idx[f"B{i}"]
        vec[pos[(min(a, b), max(a, b))]] = F(1) if a < b else F(-1)
    return vec


def test_galilean_h2_is_bargmann():
    g = catalog("galilean")
    triv = GModule.trivial(g)
    h2 = cohomology(g, triv, 2)
    assert h2.dim == 1
    # the Bargmann pattern is a nontrivial cocycle...
    z = bargmann_pattern(g)
    assert is_cocycle(g, triv, 2, z)
    assert coboundary_witness(g, triv, 2, z) is None
    # ...and spans the quotient: reducing it gives a nonzero coordinate
    assert h2.reduce(z)


def test_poincare_h2_zero_and_witness_exists():
    g = catalog("poincare", c=1)
    triv = GModule.trivial(g)
    assert cohomology(g, triv, 1).dim == 0
    assert cohomology(g, triv, 2).dim == 0
    z = bargmann_pattern(g)
    # same component pattern is NOT a cocycle of the Poincare algebra; the
    # honest statement is that every Poincare 2-cocycle is a coboundary
    if is_cocycle(g, triv, 2, z):
        assert coboundary_witness(g, triv, 2, z) is not None
    h2 = cohomology(g, triv, 2)
    assert h2.dim == 0


def test_witness_roundtrip_random_coboundaries():
    rng = random.Random(11)
    g = catalog("l3")
    triv = GModule.trivial(g)
    d1 = ce_differential(g, triv, 1)
    for _ in range(10):
        b = {i: x for i in range(len(cochain_tuples(g.dim, 1))) if (x := F(rng.randint(-5, 5)))}
        z = d1.mul_vec(b)
        w = coboundary_witness(g, triv, 2, z)
        assert w is not None
        assert d1.mul_vec(w) == z


def test_witness_requires_cocycle():
    g = catalog("so3")
    triv = GModule.trivial(g)
    # z = e^3: (delta z)(e1, e2) = -z([e1, e2]) = -z(e3) = -1 for so3
    z = {2: F(1)}
    with pytest.raises(NotACocycle):
        coboundary_witness(g, triv, 1, z)


def test_negative_degree_cochains_are_rejected():
    g = catalog("so3")
    triv = GModule.trivial(g)
    for call in (lambda: is_cocycle(g, triv, -1, {}), lambda: coboundary_witness(g, triv, -1, {})):
        with pytest.raises(InvariantViolation, match="negative degree -1"):
            call()


def test_whitehead_spin1():
    a = so3_spin1()
    g = a.algebra
    assert cohomology(g, a, 1).dim == 0
    assert cohomology(g, a, 2).dim == 0


def random_conjugate(rng, module):
    """Valid module in a random basis: rho -> P rho P^{-1}."""
    n = module.dim
    while True:
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        p = Mat.from_rows(rows)
        from lagfloor.linalg import kernel_basis

        if kernel_basis(p).dim == 0:
            break
    from lagfloor.linalg import solve

    # P^{-1} column by column
    inv_cols = [solve(p, {j: F(1)}) for j in range(n)]
    pinv = Mat.from_vectors(inv_cols, n).transpose()
    return GModule(n, module.algebra, tuple(p.mul(m).mul(pinv) for m in module.action))


def test_delta_squared_zero_fuzz():
    rng = random.Random(2024)
    from fixture_pairs import fixture_pair, polynomial_module

    l3_module = polynomial_module(fixture_pair("l3_cylinder"), ["z", "1"])
    for base in (GModule.trivial(catalog("l3")), l3_module, so3_spin1()):
        for _ in range(3):
            a = random_conjugate(rng, base)
            assert validate_module(a).ok
            g = a.algebra
            for q in range(g.dim):
                d_q = ce_differential(g, a, q)
                d_next = ce_differential(g, a, q + 1)
                assert d_next.mul(d_q).is_zero()


def test_euler_characteristic_identity():
    # sum (-1)^q dim C^q = sum (-1)^q dim H^q, exactly, for every finite
    # complex: an independent structural check on kernel/image bookkeeping
    from math import comb

    cases = [
        (catalog("l3"), GModule.trivial(catalog("l3"))),
        (catalog("so3"), so3_spin1()),
        (catalog("abelian", n=3), GModule.trivial(catalog("abelian", n=3))),
    ]
    for g, a in cases:
        chi_cochains = sum((-1) ** q * comb(g.dim, q) * a.dim for q in range(g.dim + 1))
        chi_cohomology = sum((-1) ** q * cohomology(g, a, q).dim for q in range(g.dim + 1))
        assert chi_cochains == chi_cohomology


def test_dims_invariant_under_module_basis_permutation():
    a = so3_spin1()
    g = a.algebra
    perm = [2, 0, 1]
    P = Mat.from_rows([[F(j == perm[i]) for j in range(3)] for i in range(3)])
    Pinv = P.transpose()
    conj = tuple(P.mul(m).mul(Pinv) for m in a.action)
    b = GModule(3, g, conj)
    assert validate_module(b).ok
    for q in (1, 2):
        assert cohomology(g, b, q).dim == cohomology(g, a, q).dim


def test_h2_of_one_dimensional_algebra_is_zero():
    # one generator: abelian, so H^1 = R, and there are no 2-cochains at all
    g = StructureConstants(1, ("e1",))
    triv = GModule.trivial(g)
    assert cohomology(g, triv, 1).dim == 1
    assert cochain_tuples(g.dim, 2) == []
    h2 = cohomology(g, triv, 2)
    assert h2.dim == 0 and h2.representatives == ()
    assert coboundary_witness(g, triv, 2, {}) == {}


def test_cohomology_far_above_the_dimension_lists_no_cochain():
    """Above dim G the cochain tuples are empty without enumerating any
    combination, so a degree of 10^9 costs nothing."""
    from lagfloor.cecohom import cochain_tuples

    g = catalog("galilean")
    assert cochain_tuples(g.dim, g.dim + 1) == []
    res = cohomology(g, GModule.trivial(g), 10**9)
    assert res.dim == 0 and res.representatives == ()


def _cohomology_under_python_O(module, q):
    """Standard output of a python -O script that computes H^q(so3, module),
    module a Python expression in F and Mat: "raised: ..." on an
    InvariantViolation, "passed" otherwise."""
    script = textwrap.dedent(
        f"""
        from fractions import Fraction as F

        from lagfloor.cecohom import GModule, cohomology
        from lagfloor.liealg import catalog
        from lagfloor.linalg import InvariantViolation, Mat

        assert False, "asserts must be stripped under -O"
        g = catalog("so3")
        bad = {module}
        try:
            cohomology(g, bad, {q})
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("passed")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_delta_squared_check_raises_under_python_O():
    """An explicit check, so python -O keeps it: on a 'module' of so(3) that
    breaks the bracket relations, delta^2 != 0 raises InvariantViolation."""
    # rho_1 = 1, rho_2 = rho_3 = 0 on a line: rho_[e2,e3] = rho_1 fails
    out = _cohomology_under_python_O("GModule(1, g, (Mat.from_rows([[1]]), Mat.zero(1, 1), Mat.zero(1, 1)))", 1)
    assert out.startswith("raised:"), out


@pytest.mark.parametrize("q", [1, 2])
def test_delta_squared_check_raises_under_python_O_on_fractional_entries(q):
    """The same certificate on action matrices with non-integer entries,
    whose differentials are integer rows over row denominators 6 and 3: the
    product delta_q delta_{q-1} is exact, and the bad module raises at
    degrees 1 and 2 under python -O."""
    rho1 = "Mat.from_rows([[F(1, 2), F(1, 3)], [0, F(2, 3)]])"
    out = _cohomology_under_python_O(f"GModule(2, g, ({rho1}, Mat.zero(2, 2), Mat.zero(2, 2)))", q)
    assert out.startswith("raised: delta^2 != 0"), out


def test_delta_squared_check_raises_on_every_call():
    """The delta^2 = 0 check runs on every call, so an invalid module raises
    again on a second call, while a valid one keeps its cohomology."""
    g = catalog("so3")
    bad = GModule(1, g, (Mat.from_rows([[1]]), Mat.zero(1, 1), Mat.zero(1, 1)))
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="delta"):
            cohomology(g, bad, 1)
    triv = GModule.trivial(g)
    assert [cohomology(g, triv, 2).dim for _ in range(2)] == [0, 0]


def test_cohomology_reduces_each_delta_once_by_rows_and_columns(monkeypatch):
    """H^q for q = 0..dim on Galilean runs at most one row and one column
    rref per delta_q: delta_q is d_out at q and d_in at q + 1, and its
    reductions are kept on the cached matrix."""
    import dataclasses

    import lagfloor.linalg as la
    from lagfloor.cecohom import ce_differential

    g = dataclasses.replace(catalog("galilean"))  # a new algebra: nothing cached for it
    triv = GModule.trivial(g)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda rows, ncols: calls.append(rows) or rref(rows, ncols))
    dims = [cohomology(g, triv, q).dim for q in range(g.dim + 1)]
    deltas = [ce_differential(g, triv, q) for q in range(g.dim + 1)]
    assert len(calls) <= 2 * len(deltas)
    assert dims == [cohomology(catalog("galilean"), GModule.trivial(catalog("galilean")), q).dim
                    for q in range(g.dim + 1)]


def test_witness_of_a_non_cocycle_raises_under_python_O():
    """NotACocycle is an InvariantViolation raised explicitly, so python -O
    keeps it, and a command that met it would exit 3 with no traceback."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from lagfloor.cecohom import GModule, coboundary_witness
        from lagfloor.liealg import catalog
        from lagfloor.linalg import InvariantViolation

        assert False, "asserts must be stripped under -O"
        g = catalog("so3")
        try:
            coboundary_witness(g, GModule.trivial(g), 1, {2: Fraction(1)})
        except InvariantViolation as exc:
            print("raised:", type(exc).__name__, exc)
        else:
            print("passed")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised: NotACocycle coboundary_witness requires a cocycle\n", res.stdout


def test_internal_failures_are_invariant_violations():
    from lagfloor.calculus import NotClosed
    from lagfloor.linalg import DenominatorNotContained, InvariantViolation

    for exc in (NotACocycle, DenominatorNotContained, NotClosed):
        assert issubclass(exc, InvariantViolation), exc


def test_cochains_have_no_wrapper_type():
    """A cochain is the sparse vector ce_differential acts on, and H^q is the
    QuotientSpace itself: cecohom defines no second cochain or result type."""
    path = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / "cecohom.py"
    tree = ast.parse(path.read_text(), filename=path.name)
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"GModule", "ce_differential", "cohomology"} <= names
    assert not names & {"Cochain", "CohomologyResult", "cochain_dim"}


def test_pages_have_no_zigzag_engine():
    """A page is the filtered reduction's dimensions alone: spectral defines
    no zig-zag cell, lift or page differential, a quotient records no
    positions of its representatives, and lagfloor exports neither name."""
    import lagfloor
    from dataclasses import fields
    from lagfloor.linalg import QuotientSpace
    from lagfloor.spectral import DoubleComplex

    path = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / "spectral.py"
    tree = ast.parse(path.read_text(), filename=path.name)
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"Page", "page", "_filtered_reduction"} <= names
    assert not names & {"LiftFailure", "PageCell", "cell", "page_differential", "_page_cell",
                        "_window_length", "_zigzag_cocycles", "_zigzag_boundaries"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "weakref" not in imported
    assert not hasattr(DoubleComplex([[1]], {}, {}), "_cells")
    assert "positions" not in {f.name for f in fields(QuotientSpace)}
    assert not hasattr(lagfloor, "page_differential") and not hasattr(lagfloor, "LiftFailure")
