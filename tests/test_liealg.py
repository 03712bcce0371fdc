import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lagfloor.cecohom import jacobi_check, zero_one_cocycles
from lagfloor.expr import Chart, parse_expr
from lagfloor.liealg import BadParams, StructureConstants, UnknownName, catalog
from lagfloor.linalg import kernel_of_rows
from lagfloor.pairs import GMPair, validate_pair

F = Fraction


def bracket(g, x, y):
    """([x, y])^k = c^k_{ij} x^i y^j for coefficient vectors x, y."""
    out = [F(0)] * g.dim
    for (i, j), comps in g.c.items():
        coeff = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        for k, v in comps.items():
            out[k] += v * coeff
    return tuple(out)


def test_abelian_jacobi_ok():
    assert jacobi_check(catalog("abelian", n=4)).ok


def test_l3_jacobi_ok_and_bracket():
    g = catalog("l3")
    assert jacobi_check(g).ok
    assert bracket(g, (1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))
    assert bracket(g, (0, 1, 0), (0, 0, 1)) == (F(0), F(0), F(0))


def test_so3_jacobi_ok_and_bracket():
    g = catalog("so3")
    assert jacobi_check(g).ok
    assert bracket(g, (1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))
    assert bracket(g, (0, 1, 0), (0, 0, 1)) == (F(1), F(0), F(0))


def test_catalog_unknown_and_bad_params():
    with pytest.raises(UnknownName):
        catalog("nope")
    with pytest.raises(BadParams):
        catalog("abelian", n=0)
    with pytest.raises(BadParams):
        catalog("poincare", c=-1)


def test_galilean_brackets_golden():
    g = catalog("galilean")
    assert jacobi_check(g).ok
    names = g.basis_names
    assert names == ("p0", "p1", "p2", "p3", "B1", "B2", "B3", "L1", "L2", "L3")
    idx = {n: i for i, n in enumerate(names)}

    def br(a, b):
        va = tuple(F(i == idx[a]) for i in range(10))
        vb = tuple(F(i == idx[b]) for i in range(10))
        return bracket(g, va, vb)

    def vec(**comps):
        return tuple(F(comps.get(n, 0)) for n in names)

    # contraction limit: boosts commute with each other and with space translations
    assert br("p1", "B1") == vec()
    assert br("p1", "B2") == vec()
    assert br("B1", "B2") == vec()
    # surviving brackets
    assert br("p0", "B1") == vec(p1=1)
    assert br("L1", "L2") == vec(L3=1)
    assert br("L1", "p2") == vec(p3=1)
    assert br("L1", "B2") == vec(B3=1)


def test_poincare_brackets_golden():
    g = catalog("poincare", c=1)
    assert jacobi_check(g).ok
    idx = {n: i for i, n in enumerate(g.basis_names)}

    def br(a, b):
        va = tuple(F(i == idx[a]) for i in range(10))
        vb = tuple(F(i == idx[b]) for i in range(10))
        return bracket(g, va, vb)

    def vec(**comps):
        return tuple(F(comps.get(n, 0)) for n in g.basis_names)

    # commuting the fields d/dx^i and t d/dx^j + x^j d/dt gives +delta_ij d/dt
    assert br("p1", "B1") == vec(p0=1)
    assert br("p1", "B2") == vec()
    assert br("B1", "B2") == vec(L3=-1)
    assert br("p0", "B1") == vec(p1=1)


def test_poincare_contraction_equals_galilean():
    gal = catalog("galilean")
    poi = catalog("poincare", c=3)
    # zero out the two 1/c^2-proportional bracket families in the Poincare table
    idx = {n: i for i, n in enumerate(poi.basis_names)}
    boosts = {idx["B1"], idx["B2"], idx["B3"]}
    spaces = {idx["p1"], idx["p2"], idx["p3"]}
    for (i, j), comps in poi.c.items():
        trimmed = dict(comps)
        if (i in boosts and j in boosts) or (i in spaces and j in boosts) or (i in boosts and j in spaces):
            trimmed = {}
        gal_comps = gal.c.get((i, j), {})
        assert {k: v for k, v in trimmed.items() if v} == {k: v for k, v in gal_comps.items() if v}


def test_bracket_antisymmetry_random():
    rng = random.Random(5)
    for name in ("l3", "so3", "galilean"):
        g = catalog(name)
        for _ in range(10):
            x = tuple(F(rng.randint(-4, 4)) for _ in range(g.dim))
            y = tuple(F(rng.randint(-4, 4)) for _ in range(g.dim))
            assert bracket(g, x, y) == tuple(-v for v in bracket(g, y, x))


def test_every_catalog_output_passes_jacobi():
    for g in (
        catalog("abelian", n=2),
        catalog("abelian", n=3),
        catalog("l3"),
        catalog("so3"),
        catalog("galilean"),
        catalog("poincare", c=1),
        catalog("poincare", c=F(1, 2)),
    ):
        assert jacobi_check(g).ok


def test_catalog_algebras_go_with_their_last_reader():
    """An algebra the catalog builds is collected once nothing reads it, and
    the differentials kept for it go too: none of 30 Poincare algebras,
    each through jacobi_check, outlives the loop."""
    import gc
    import weakref

    from lagfloor import cecohom

    gc.collect()
    held = len(cecohom._DIFF_CACHE)
    refs = []
    for k in range(30):
        g = catalog("poincare", c=F(k + 2, 3))
        assert jacobi_check(g).ok
        refs.append(weakref.ref(g))
    del g
    gc.collect()
    assert [r for r in refs if r() is not None] == []
    assert len(cecohom._DIFF_CACHE) == held


def test_jacobi_violation_detected():
    from lagfloor.liealg import _sc

    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi
    bad = _sc(3, ["e1", "e2", "e3"], [(0, 1, 2, 1), (0, 2, 0, 1)])
    report = jacobi_check(bad)
    assert not report.ok
    assert report.violations


def dense_jacobi(g):
    """The Jacobi identity by the dense formula over every index, as (ok,
    violations): the reference that jacobi_check's sum over nonzero
    constants must equal.
    The constants are scaled to integers by their common denominator, which
    scales every sum by its square and keeps it exact."""
    n = g.dim
    den = math.lcm(*(v.denominator for comps in g.c.values() for v in comps.values()))
    c = [[[int(g.coeff(i, j, k) * den) for k in range(n)] for j in range(n)] for i in range(n)]
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l] + c[k][i][m] * c[m][j][l]
                            for m in range(n))
                    if s:
                        bad.append((i, j, k, l))
    return not bad, tuple(bad)


CATALOG = [
    ("abelian", {"n": 1}), ("abelian", {"n": 4}), ("l3", {}), ("so3", {}), ("galilean", {}),
    ("poincare", {"c": 1}), ("poincare", {"c": F(1, 2)}),
]


def mutate_one_constant(g, rng):
    """g with one structure constant c^k_ij (i < j) set to a fresh value,
    zero included, drawn from the seeded rng."""
    i, j = sorted(rng.sample(range(g.dim), 2))
    k = rng.randrange(g.dim)
    c = {ij: dict(comps) for ij, comps in g.c.items()}
    c.setdefault((i, j), {})[k] = F(rng.randint(-3, 3), rng.randint(1, 2))
    return StructureConstants(g.dim, g.basis_names, c)


def test_sparse_jacobi_equals_the_dense_formula():
    """Equal reports, violations in the same order, on every catalog
    algebra, on 60 seeded single-constant mutations of the Galilean and
    Poincare tables, most of which break the identity, and on 20 random
    tables, whose violations share (i, j, k) across several l."""
    for name, params in CATALOG:
        g = catalog(name, **params)
        report = jacobi_check(g)
        assert (report.ok, report.violations) == dense_jacobi(g)
    rng = random.Random(16)
    broken = 0
    for name, params in [("galilean", {}), ("poincare", {"c": 1})] * 30:
        g = mutate_one_constant(catalog(name, **params), rng)
        report = jacobi_check(g)
        assert (report.ok, report.violations) == dense_jacobi(g)
        broken += not report.ok
    assert broken >= 30
    shared = 0
    for _ in range(20):
        c = {}
        for i in range(5):
            for j in range(i + 1, 5):
                c[(i, j)] = {k: F(rng.randint(-2, 2)) for k in range(5) if rng.random() < 0.4}
        g = StructureConstants(5, tuple(f"e{i}" for i in range(5)), c)
        report = jacobi_check(g)
        assert (report.ok, report.violations) == dense_jacobi(g)
        triples = [v[:3] for v in report.violations]
        shared += len(triples) > len(set(triples))
    assert shared >= 10


def test_zero_one_cocycles_dims():
    assert zero_one_cocycles(catalog("so3")).dim == 0
    assert zero_one_cocycles(catalog("l3")).dim == 2
    assert zero_one_cocycles(catalog("abelian", n=3)).dim == 3
    # time translation survives the Galilean abelianization
    z = zero_one_cocycles(catalog("galilean"))
    assert z.dim == 1
    assert z.basis == ({0: 1},)
    assert zero_one_cocycles(catalog("poincare", c=1)).dim == 0


def test_zero_one_cocycles_equal_the_kernel_of_the_table():
    """Z^1(G) as ker delta_1 has the canonical basis of the kernel of the
    table's nonzero rows {k: c^k_ij}, vector for vector, on every catalog
    algebra and on 20 seeded random 5-dimensional tables."""
    rng = random.Random(45)
    algebras = [catalog(name, **params) for name, params in CATALOG]
    for _ in range(20):
        c = {}
        for i in range(5):
            for j in range(i + 1, 5):
                c[(i, j)] = {k: F(rng.randint(-2, 2), rng.randint(1, 2)) for k in range(5) if rng.random() < 0.2}
        algebras.append(StructureConstants(5, tuple(f"e{i}" for i in range(5)), c))
    dims = set()
    for g in algebras:
        want = kernel_of_rows([dict(row) for row in g.table.values() if row], g.dim)
        assert zero_one_cocycles(g).basis == want.basis
        dims.add(want.dim)
    assert len(dims) >= 4


R4 = Chart((("t", "line"), ("x1", "line"), ("x2", "line"), ("x3", "line")))


def symbolic_fields(c):
    """The fields (p0, p_i, B_i, L_i) on R^4 from strings, as the fixtures
    write them; ``c=None`` drops the 1/c^2 terms of the boosts."""
    boost_t = "0" if c is None else "x{i}/c^2"
    comps = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    for i in (1, 2, 3):
        b = [boost_t.format(i=i), "0", "0", "0"]
        b[i] = "t"
        comps.append(b)
    comps += [["0", "0", "x3", "-x2"], ["0", "-x3", "0", "x1"], ["0", "x2", "-x1", "0"]]
    params = {} if c is None else {"c": c}
    return tuple(tuple(parse_expr(R4, s, params).num for s in f) for f in comps)


def algebra(c):
    return catalog("galilean") if c is None else catalog("poincare", c=c)


@pytest.mark.parametrize("c", [None, 1, 3, F(1, 2)])
def test_catalog_constants_bracket_the_symbolic_fields(c):
    """The derived tables against an independent oracle: the bracket of the
    fields, written as strings, read off the pair's action table by
    validate_pair."""
    assert validate_pair(GMPair(algebra(c), R4, symbolic_fields(c))).ok


def test_symbolic_oracle_tells_the_speeds_of_light_apart():
    assert not validate_pair(GMPair(algebra(3), R4, symbolic_fields(1))).ok
    assert not validate_pair(GMPair(algebra(None), R4, symbolic_fields(F(1, 2)))).ok


def test_liealg_imports_only_linalg_from_the_package():
    """The catalog derivation is exact linear algebra: liealg reads nothing
    of the symbolic layer (calculus, expr, exprspace)."""
    source = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / "liealg.py"
    package = {node.module for node in ast.walk(ast.parse(source.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level}
    assert package == {"linalg"}
