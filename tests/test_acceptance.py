"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is pinned exactly (tolerance zero: all arithmetic
is rational).  The Galilean entries of criteria 1 and 3 once followed a
reference table that claimed H^1 = 0 for the 10-dimensional Galilean
algebra.  That table was wrong: no bracket has a p0 component, so time
translation survives abelianization and H^1 = (G/[G,G])* = R.  The entries
now read H^1 = 1 and K0 = 1, and criterion 1 checks the abelianization by
hand from the structure constants, independently of the cohomology code.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from lagfloor.calculus import d_el, euler_lagrange, gradient, is_closed, total_time_derivative
from lagfloor.cecohom import GModule, cochain_tuples, cohomology, is_cocycle
from lagfloor.expr import Expr, parse_expr
from lagfloor.hierarchy import classify, k_spaces, noether_charges
from lagfloor.liealg import catalog
from lagfloor.linalg import InvariantViolation
from lagfloor.pairs import FunctionCochain, pi_images
from lagfloor.spectral import (
    abutment_check,
    page,
    random_double_complex,
    total_cohomology,
    validate_double_complex,
)

from calculus_oracle import lie_derivative_lagrangian
from fixture_pairs import SPIN1, SPIN2, classes_signature, fixture_pair, polynomial_module

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


L3 = fixture_pair("l3_cylinder")
TRANS2 = fixture_pair("translations_r2")
TRANS3 = fixture_pair("translations_r3")
SO3R3 = fixture_pair("so3_r3")
SPHERE = fixture_pair("so3_sphere")
GAL = fixture_pair("galilean_r4")
POI = fixture_pair("poincare_c1")


def h_dims(g):
    triv = GModule.trivial(g)
    return cohomology(g, triv, 1).dim, cohomology(g, triv, 2).dim


def bargmann_cochain(g):
    """The 2-cochain vector pairing p_i with B_i, indexed by cochain_tuples."""
    idx = {n: i for i, n in enumerate(g.basis_names)}
    pos = {t: k for k, t in enumerate(cochain_tuples(g.dim, 2))}
    vec = {}
    for i in (1, 2, 3):
        a, b = idx[f"p{i}"], idx[f"B{i}"]
        vec[pos[(min(a, b), max(a, b))]] = F(1) if a < b else F(-1)
    return vec


def galilean_abelianization_hand_check(g):
    """G/[G,G] is spanned by p0, read straight off the structure constants."""
    names = g.basis_names
    others = ("p1", "p2", "p3", "B1", "B2", "B3", "L1", "L2", "L3")
    assert set(names) == {"p0", *others}
    brackets = [[g.coeff(i, j, k) for k in range(g.dim)] for i in range(g.dim) for j in range(i + 1, g.dim)]
    # no bracket has a p0 component, so p0 is not in [G, G]
    p0 = names.index("p0")
    assert all(v[p0] == 0 for v in brackets)
    # every other basis element is, up to a nonzero scalar, a single bracket
    for name in others:
        k = names.index(name)
        assert any(v[k] and sum(1 for x in v if x) == 1 for v in brackets), name


def test_acceptance_1_trivial_coefficient_cohomology_table():
    with criterion(1, "trivial-coefficient H^1/H^2 table"):
        table = {
            "so3": h_dims(catalog("so3")),
            "poincare": h_dims(catalog("poincare", c=1)),
            "galilean": h_dims(catalog("galilean")),
            "l3": h_dims(catalog("l3")),
            "abelian2": h_dims(catalog("abelian", n=2)),
            "abelian3": h_dims(catalog("abelian", n=3)),
        }
        # the Bargmann pattern spans H^2 of the Galilean algebra, up to scalar
        g = catalog("galilean")
        h2 = cohomology(g, GModule.trivial(g), 2)
        z = bargmann_cochain(g)
        assert is_cocycle(g, GModule.trivial(g), 2, z)
        assert h2.reduce(z)
        galilean_abelianization_hand_check(g)
        expected = {
            "so3": (0, 0),
            "poincare": (0, 0),
            "galilean": (1, 1),  # H^1 = R: p0 is not in [G, G], see the docstring
            "l3": (2, 2),
            "abelian2": (2, 1),
            "abelian3": (3, 3),
        }
        assert table == expected


def test_acceptance_2_whitehead_fixture():
    with criterion(2, "Whitehead: H^1 = H^2 = 0 for so(3) spin-1 and spin-2"):
        spin1 = polynomial_module(SO3R3, SPIN1)
        assert spin1.dim == 3
        spin2 = polynomial_module(SO3R3, SPIN2)
        assert spin2.dim == 5
        for module in (spin1, spin2):
            assert cohomology(SO3R3.algebra, module, 1).dim == 0
            assert cohomology(SO3R3.algebra, module, 2).dim == 0


def test_acceptance_3_k_space_reports():
    with criterion(3, "K-space tables at the default truncation"):
        got = {
            "l3": k_spaces(L3).dims,
            "translations3": k_spaces(TRANS3).dims,
            "galilean": k_spaces(GAL).dims,
            "poincare": k_spaces(POI).dims,
            "sphere": k_spaces(SPHERE).dims,
        }
        expected = {
            "l3": (2, 2, 2, 0, 1),
            "translations3": (3, 0, 3, 0, 0),
            "galilean": (1, 0, 1, 0, 0),  # K0 = H^1 = R: p0 is not in [G, G]
            "poincare": (0, 0, 0, 0, 0),
            "sphere": (0, 0, 0, 1, 0),
        }
        assert got == expected


def cylinder_family(a=0, b=0, c=0, d=0, q=0):
    return parse_expr(
        L3.chart,
        "a*dphi + b*z*dphi + c*z + d*dphi/dz + (q/2)*dphi^2/dz",
        params={"a": F(a), "b": F(b), "c": F(c), "d": F(d), "q": F(q)},
    )


def test_acceptance_4_floor_table_32_patterns():
    with criterion(4, "floor map of the five-parameter family, all 32 patterns"):
        checked = {}
        for pattern in range(32):
            a, b, c, d, q = ((pattern >> k) & 1 for k in range(5))
            rep = classify(L3, cylinder_family(a, b, c, d, q))
            assert rep.status == "classified"
            if b or q:
                floor = 0
            elif a:
                floor = 3
            else:
                floor = 4
            sign = "+" if (c == 0 and d == 0) else "-"
            assert (rep.floor, rep.sign) == (floor, sign), (a, b, c, d, q)
            checked[(a, b, c, d, q)] = (rep.floor, rep.sign)
        assert checked[(1, 0, 0, 0, 0)] == (3, "+")
        assert checked[(0, 1, 0, 0, 0)] == (0, "+")
        assert checked[(0, 0, 0, 0, 1)] == (0, "+")
        assert checked[(0, 0, 1, 0, 0)] == (4, "-")
        assert checked[(1, 0, 1, 0, 0)] == (3, "-")
        assert checked[(0, 0, 0, 0, 0)] == (4, "+")


def magnetic_r2(B=1, m=1):
    return parse_expr(TRANS2.chart, f"{m}*(dq1^2 + dq2^2)/2 + {B}*(q1*dq2 - q2*dq1)")


def magnetic_r3():
    return parse_expr(
        TRANS3.chart,
        "(dq1^2 + dq2^2 + dq3^2)/2 + 2*(q1*dq2 - q2*dq1) + (q2*dq3 - q3*dq2)",
    )


def galilean_free(m):
    return parse_expr(GAL.chart, f"{m}*(dx1^2 + dx2^2 + dx3^2)/(2*dt)")


def monopole(m, g):
    return parse_expr(
        SPHERE.chart,
        f"{m}*(du^2 + dv^2)/(2*(1 + u^2 + v^2)^2) - 2*({g})*(u*dv - v*du)/(1 + u^2 + v^2)",
    )


def test_acceptance_5_physics_fixtures():
    with criterion(5, "magnetic, Galilean free particle, and monopole floors"):
        for L, pair in ((magnetic_r2(B=3), TRANS2), (magnetic_r3(), TRANS3)):
            rep = classify(pair, L)
            assert (rep.floor, rep.sign) == (1, "+")
            assert rep.k2_class.status == "nonzero"
        m = F(5)
        rep = classify(GAL, galilean_free(m))
        assert (rep.floor, rep.sign) == (1, "+")
        # the class is m times the Bargmann pattern, exactly
        idx = {n: i for i, n in enumerate(GAL.algebra.basis_names)}
        pairs_pb = {(idx[f"p{i}"], idx[f"B{i}"]) for i in (1, 2, 3)}
        assert set(rep.witnesses.f2) == pairs_pb
        assert all(v == m for v in rep.witnesses.f2.values())
        rep = classify(SPHERE, monopole(1, 7))
        assert (rep.floor, rep.sign) == (2, "+")
        cert = rep.k3_class.data
        assert list(cert["values"].values()) == [F(-7)]
        rep = classify(SPHERE, monopole(1, 0))
        assert (rep.floor, rep.sign) == (4, "+")


def test_acceptance_6_noether_outputs():
    with criterion(6, "Noether charges with vanishing conservation residuals"):
        # the worked charges: N_i = dL/d(dq^i) - B_{ik} q^k - E_i tau
        m, B, E1, E2 = F(1), F(2), F(3), F(0)
        L = parse_expr(
            TRANS2.chart,
            "m*(dq1^2 + dq2^2)/2 + B*(q1*dq2 - q2*dq1) + E1*q1 + E2*q2",
            params={"m": m, "B": B, "E1": E1, "E2": E2},
        )
        rep = classify(TRANS2, L)
        charges = noether_charges(TRANS2, L, rep)
        ch = TRANS2.chart
        tau = Expr.var(ch, "tau")
        want1 = L.partial("dq1") - B * Expr.var(ch, "q2") - E1 * tau
        want2 = L.partial("dq2") + B * Expr.var(ch, "q1") - E2 * tau
        assert (charges[0] - want1).is_zero()
        assert (charges[1] - want2).is_zero()
        # conservation residual vanishes identically on every fixture
        # (noether_charges asserts D_t N_i + X_i^mu F_mu(L) = 0 internally)
        fixtures = [
            (TRANS2, magnetic_r2(B=1)),
            (TRANS3, magnetic_r3()),
            (GAL, galilean_free(2)),
            (SPHERE, monopole(1, 3)),
            (L3, cylinder_family(a=1, c=1)),
            (SO3R3, parse_expr(SO3R3.chart, "(dx1^2 + dx2^2 + dx3^2)/2")),
        ]
        for pair, L in fixtures:
            rep = classify(pair, L)
            assert rep.status == "classified"
            charges = noether_charges(pair, L, rep)
            assert len(charges) == pair.algebra.dim


def test_acceptance_7_spectral_property_suite():
    with criterion(7, "200 random double complexes: Q^2, stabilization, abutment"):
        failures = 0
        for seed in range(200):
            dc = random_double_complex(seed, maxdim=4)
            assert validate_double_complex(dc).ok
            try:  # each degree checks Q_m Q_{m-1} = 0
                for m in range(dc.width + dc.height - 1):
                    total_cohomology(dc, m)
            except InvariantViolation:
                failures += 1
                continue
            r0 = max(dc.width, dc.height) + 1
            stable, nxt = page(dc, r0), page(dc, r0 + 1)
            for p in range(dc.width):
                for q in range(dc.height):
                    if stable.dim(p, q) != nxt.dim(p, q):
                        failures += 1
            if not abutment_check(dc).ok:
                failures += 1
        assert failures == 0


def random_rank1_lagrangian(rng, pair):
    ch = pair.chart
    vels = [ch.velocity(n) for n in ch.names]
    monos = ["1"] + list(ch.line_names)
    if "phi" in ch.angle_names:
        monos += ["sin(phi)", "cos(phi)"]
    L = parse_expr(ch, "0")
    for v in vels:
        for m in monos:
            if rng.random() < 0.3:
                L = L + parse_expr(ch, f"{m}*{v}") * F(rng.randint(-2, 2), rng.randint(1, 2))
        if rng.random() < 0.4:
            L = L + parse_expr(ch, f"{v}^2") * F(rng.randint(-2, 2), rng.randint(1, 2))
    for m in monos[1:]:
        if rng.random() < 0.3:
            L = L + parse_expr(ch, m) * F(rng.randint(-2, 2))
    return L


def random_field(rng, pair):
    from calculus_oracle import VectorFieldExpr

    ch = pair.chart
    opts = ["0", "1"] + list(ch.line_names)
    if ch.angle_names:
        opts.append(f"sin({ch.angle_names[0]})")
    return VectorFieldExpr(ch, tuple(parse_expr(ch, rng.choice(opts)) for _ in ch.names))


def test_acceptance_8_symbolic_property_suite():
    with criterion(8, "Noether identity, pi-naturality, d^2, classify invariance"):
        rng = random.Random(20240817)
        # Noether identity residual on 20 random polynomial Lagrangians
        pairs = [L3, TRANS2, SO3R3]
        count = 0
        while count < 20:
            pair = pairs[count % len(pairs)]
            L = random_rank1_lagrangian(rng, pair)
            if L.is_zero():
                continue
            X = random_field(rng, pair)
            el = [Expr(pair.chart, *c) for c in euler_lagrange(L)]
            lie = lie_derivative_lagrangian(X, L)
            contracted = parse_expr(pair.chart, "0")
            momentum = parse_expr(pair.chart, "0")
            for mu, name in enumerate(pair.chart.names):
                contracted = contracted + X.components[mu] * el[mu]
                momentum = momentum + X.components[mu] * L.partial(pair.chart.velocity(name))
            residual = lie - contracted - Expr(pair.chart, *total_time_derivative(momentum))
            assert residual.is_zero()
            count += 1
        # pi-naturality on 20 random closed forms: pi_images checks both
        # identities on the monomial images, and is_cocycle checks
        # delta(pi w) = 0 again symbolically
        count = 0
        while count < 20:
            pair = pairs[count % len(pairs)]
            f = random_rank1_lagrangian(rng, pair).subs_zero(
                [pair.chart.velocity(n) for n in pair.chart.names]
            )
            w = gradient(f)
            if pair.chart.angle_names and count % 2:
                comps = list(w.components)
                idx = pair.chart.names.index(pair.chart.angle_names[0])
                comps[idx] = comps[idx] + F(count)
                from lagfloor.calculus import OneForm

                w = OneForm(pair.chart, tuple(comps))
            assert is_closed(w)
            units, vec = [], {}
            for mu, comp in enumerate(w.components):
                assert comp.den.is_one()
                for m, c in comp.num.vector().items():
                    vec[len(units)] = c
                    units.append((mu, m))
            (images,) = pi_images(pair, units, [vec])
            out = FunctionCochain(pair, tuple(Expr(pair.chart, t) for t in images))
            assert out.is_cocycle()
            count += 1
        # d^2 = 0 on 50 random functions
        for k in range(50):
            pair = pairs[k % len(pairs)]
            f = random_rank1_lagrangian(rng, pair).subs_zero(
                [pair.chart.velocity(n) for n in pair.chart.names]
            )
            assert is_closed(gradient(f))
        # classify invariance under L -> L + d_EL f on the worked fixtures
        fixtures = [
            (L3, cylinder_family(a=1), "z^2*sin(phi)"),
            (L3, cylinder_family(b=1, c=1), "z^3"),
            (L3, cylinder_family(), "z*cos(phi)"),
            (TRANS2, magnetic_r2(B=1), "q1^2*q2"),
            (TRANS3, magnetic_r3(), "q1*q2*q3"),
            (GAL, galilean_free(1), "t*x1"),
            (SPHERE, monopole(1, 2), "u^2 - v"),
            (SPHERE, monopole(1, 0), "u*v"),
        ]
        for pair, L, ftext in fixtures:
            base = classify(pair, L)
            shifted = classify(pair, L + d_el(parse_expr(pair.chart, ftext)))
            assert classes_signature(base) == classes_signature(shifted), ftext
