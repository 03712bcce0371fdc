import random
from fractions import Fraction

import pytest

from lagfloor.liealg import (
    BadParams,
    UnknownName,
    bracket,
    catalog,
    jacobi_check,
    zero_one_cocycles,
)

F = Fraction


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


def test_jacobi_violation_detected():
    from lagfloor.liealg import _sc

    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi
    bad = _sc(3, ["e1", "e2", "e3"], [(0, 1, 2, 1), (0, 2, 0, 1)])
    report = jacobi_check(bad)
    assert not report.ok
    assert report.violations


def test_zero_one_cocycles_dims():
    assert zero_one_cocycles(catalog("so3")).dim == 0
    assert zero_one_cocycles(catalog("l3")).dim == 2
    assert zero_one_cocycles(catalog("abelian", n=3)).dim == 3
    # time translation survives the Galilean abelianization
    z = zero_one_cocycles(catalog("galilean"))
    assert z.dim == 1
    assert z.basis == ({0: 1},)
    assert zero_one_cocycles(catalog("poincare", c=1)).dim == 0
