import ast
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lagfloor.calculus import d_el
from lagfloor.cecohom import GModule, cohomology
from lagfloor.expr import TP, Chart, Expr, parse_expr, to_string
from lagfloor.hierarchy import (
    ClassifyOptions,
    FloorReport,
    NotWeaklyInvariantError,
    PotentialUnavailable,
    build_invariance_double_complex,
    classify,
    k_spaces,
    noether_charges,
    phi1,
    psi,
    weak_invariance_split,
)
from lagfloor.liealg import catalog
from lagfloor.linalg import InvariantViolation
from lagfloor.pairs import GMPair
from lagfloor.spectral import abutment_check, page, total_cohomology

from calculus_oracle import field_exprs, lie_derivative_lagrangian
from fixture_pairs import ROOT, SCRIPT_ENV, classes_signature, fixture_pair, restricted_at
from lagfloor.problemfile import build_lagrangian, build_pair, load_problem_file

F = Fraction

L3 = fixture_pair("l3_cylinder")
TRANS2 = fixture_pair("translations_r2")
TRANS3 = fixture_pair("translations_r3")
SPHERE = fixture_pair("so3_sphere")
GAL = fixture_pair("galilean_r4")
POI = fixture_pair("poincare_c1")
# sl(2,R) on the cylinder, not transitive; its last point lies on the
# singular orbit z = 0
SL2 = build_pair(load_problem_file(ROOT / "tests" / "problems" / "sl2_cylinder.toml"))
SL2_OPTS = ClassifyOptions(2, 2)


def P(text, pair=L3, **params):
    return parse_expr(pair.chart, text, params=params)


def family(a=0, b=0, c=0, d=0, q=0):
    """The five-parameter cylinder family: a dphi + b z dphi + c z +
    d dphi/dz + (q/2) dphi^2/dz."""
    return P(
        "a*dphi + b*z*dphi + c*z + d*dphi/dz + (q/2)*dphi^2/dz",
        a=F(a), b=F(b), c=F(c), d=F(d), q=F(q),
    )


def galilean_free(m=1):
    return P("m*(dx1^2 + dx2^2 + dx3^2)/(2*dt)", GAL, m=F(m))


def monopole(m=0, g=1):
    """Charged particle on the punctured sphere, stereographic chart.

    The charge term is the stereographic image of -g (1 + cos theta) dphi,
    which is -2g (u dv - v du)/(1 + u^2 + v^2); its restriction certificate
    is exactly -g.
    """
    return P(
        "m*(du^2 + dv^2)/(2*(1 + u^2 + v^2)^2) - 2*g*(u*dv - v*du)/(1 + u^2 + v^2)",
        SPHERE,
        m=F(m),
        g=F(g),
    )


def magnetic(pair, B=1, E=(0, 0), m=1):
    n = len(pair.chart.names)
    terms = [f"{m}*(" + " + ".join(f"dq{i + 1}^2" for i in range(n)) + ")/2"]
    terms.append(f"({B})*(q1*dq2 - q2*dq1)")
    for i, e in enumerate(E):
        if e:
            terms.append(f"({e})*q{i + 1}")
    return parse_expr(pair.chart, " + ".join(terms))


# -- the split -------------------------------------------------------------------

def test_split_of_the_cylinder_family():
    split = weak_invariance_split(L3, family(a=1, b=2, c=3, d=4, q=5))
    # delta_1 L = b dphi + c
    assert split.w[0].components[0].is_zero()
    assert split.w[0].components[1] == P("2")
    assert split.t[0] == F(3)
    # delta_2 L = (a + b z) dz + q dphi + d
    assert split.w[1].components[0] == P("1 + 2*z")
    assert split.w[1].components[1] == P("5")
    assert split.t[1] == F(4)
    # delta_3 L = 0
    assert all(c.is_zero() for c in split.w[2].components)
    assert split.t[2] == 0


def test_split_invariant_lagrangian():
    split = weak_invariance_split(L3, P("dz^3 + 2*dz"))
    assert all(c.is_zero() for w in split.w for c in w.components)
    assert all(t == 0 for t in split.t)


def test_split_rejects_quadratic_velocity_variation():
    with pytest.raises(NotWeaklyInvariantError) as err:
        weak_invariance_split(L3, P("z^2*dphi^2"))
    assert err.value.generator == "e1"


# -- psi / phi_1 ------------------------------------------------------------------

def test_psi_of_family_is_c_d_0():
    split = weak_invariance_split(L3, family(c=2, d=7))
    cv = psi(split)
    assert cv.data == (F(2), F(7), F(0))
    assert not cv.is_zero()


def test_phi1_of_family_is_b_q_harmonics():
    split = weak_invariance_split(L3, family(b=3, q=2))
    cv, alphas = phi1(L3, split)
    assert dict(cv.data) == {("phi", 0): F(3), ("phi", 1): F(2)}


# -- floors: the 32-pattern table ----------------------------------------------------

def expected_floor(a, b, c, d, q):
    """Parameter-to-floor map of the five-parameter family."""
    if b or q:
        floor = 0
    elif a:
        floor = 3
    else:
        floor = 4
    sign = "+" if (c == 0 and d == 0) else "-"
    return floor, sign


@pytest.mark.parametrize("pattern", range(32))
def test_family_floor_table(pattern):
    bits = [(pattern >> k) & 1 for k in range(5)]
    a, b, c, d, q = bits
    report = classify(L3, family(a, b, c, d, q))
    assert report.status == "classified"
    floor, sign = expected_floor(a, b, c, d, q)
    assert (report.floor, report.sign) == (floor, sign)


def test_family_key_fixtures():
    r = classify(L3, family(a=1))
    assert (r.floor, r.sign) == (3, "+")
    assert r.k4_class.status == "nonzero"
    r = classify(L3, family(b=1))
    assert (r.floor, r.sign) == (0, "+")
    assert r.k1_class.status == "nonzero"
    r = classify(L3, family(c=1, d=1))
    assert (r.floor, r.sign) == (4, "-")
    assert r.psi_class.data == (F(1), F(1), F(0))
    r = classify(L3, family())
    assert (r.floor, r.sign) == (4, "+")


def test_floor_reports_do_not_share_a_witness():
    """Each report gets a witness record of its own for its stages to fill
    in: filling one leaves another report's empty."""
    a, b = FloorReport("classified"), FloorReport("classified")
    assert a.witnesses is not b.witnesses
    a.witnesses.f2 = {(0, 1): F(1)}
    assert (b.witnesses.alpha, b.witnesses.f2, b.witnesses.k3_witness) == (None, None, None)


def test_repeated_classify_adds_no_ce_differential():
    """GModule.trivial gives one module per algebra, so a second classify of
    the same pair and Lagrangian finds each CE differential it needs in
    ``_DIFF_CACHE``, which is keyed by the module's id."""
    from lagfloor import cecohom

    L = family(c=1, d=1)
    classify(L3, L)
    before = len(cecohom._DIFF_CACHE)
    classify(L3, L)
    assert len(cecohom._DIFF_CACHE) == before


def test_rebuilt_invariance_complex_adds_no_ce_differential():
    """Each build of the invariance complex makes new modules, and a CE
    differential cached for a module goes when the module is collected, so
    building the same pair's complex again does not grow ``_DIFF_CACHE``."""
    import gc

    from lagfloor import cecohom

    build_invariance_double_complex(L3)
    gc.collect()
    before = len(cecohom._DIFF_CACHE)
    sizes = []
    for _ in range(3):
        build_invariance_double_complex(L3)
        gc.collect()
        sizes.append(len(cecohom._DIFF_CACHE) - before)
    assert sizes == [0, 0, 0]


def test_invariant_forms_cache_lets_its_pairs_go():
    """``_INV_FORMS_CACHE`` holds the forms, not the pair: classified pairs
    are collected, and their entries go with them."""
    import gc
    import weakref

    from lagfloor import hierarchy

    gc.collect()
    before = len(hierarchy._INV_FORMS_CACHE)
    pairs = [fixture_pair("l3_cylinder") for _ in range(3)]
    for pair in pairs:
        assert classify(pair, family(a=1)).floor == 3
    assert len(hierarchy._INV_FORMS_CACHE) == before + 3
    refs = [weakref.ref(pair) for pair in pairs]
    del pairs, pair
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(hierarchy._INV_FORMS_CACHE) == before


def test_floor4_decomposition_certificate():
    r = classify(L3, P("dz^2") + d_el(P("z^2*sin(phi)")))
    assert (r.floor, r.sign) == (4, "+")
    assert r.decomposition is not None
    l_inv = r.decomposition["l_inv"]
    for x in field_exprs(L3):
        assert lie_derivative_lagrangian(x, l_inv).is_zero()


# -- physics fixtures ------------------------------------------------------------------

def test_magnetic_r2_floor_1_plus():
    r = classify(TRANS2, magnetic(TRANS2, B=2))
    assert (r.floor, r.sign) == (1, "+")
    assert r.k2_class.status == "nonzero"
    # the cocycle normalization: f_kl = -2 B_kl for L = q^i B_ik dq^k
    assert r.witnesses.f2 == {(0, 1): F(-4)}


def test_phi2_is_additive_on_magnetic_family():
    r1 = classify(TRANS2, magnetic(TRANS2, B=1))
    r2 = classify(TRANS2, magnetic(TRANS2, B=3))
    r12 = classify(TRANS2, magnetic(TRANS2, B=4))
    c1, c2, c12 = (r.k2_class.data for r in (r1, r2, r12))
    assert tuple(a + b for a, b in zip(c1, c2)) == c12


def test_magnetic_r3_floor_1_plus():
    pair = TRANS3
    L = parse_expr(
        pair.chart,
        "(dq1^2 + dq2^2 + dq3^2)/2 + q1*dq2 - q2*dq1 + 3*(q2*dq3 - q3*dq2)",
    )
    r = classify(pair, L)
    assert (r.floor, r.sign) == (1, "+")
    assert r.k2_class.status == "nonzero"


def test_magnetic_with_electric_field_floor_1_minus():
    L = magnetic(TRANS2, B=1, E=(2, 0))
    r = classify(TRANS2, L)
    assert (r.floor, r.sign) == (1, "-")
    assert r.psi_class.data == (F(2), F(0))


def test_galilean_free_particle_floor_1_plus_with_bargmann_class():
    r = classify(GAL, galilean_free(m=3))
    assert (r.floor, r.sign) == (1, "+")
    assert r.k2_class.status == "nonzero"
    # alpha(B_i) = m x^i, all other components zero
    idx = {n: i for i, n in enumerate(GAL.algebra.basis_names)}
    for i, name in enumerate(GAL.algebra.basis_names):
        comp = r.witnesses.alpha[i]
        if name.startswith("B"):
            want = parse_expr(GAL.chart, f"3*x{name[1]}")
            assert (comp - want).is_zero()
        else:
            assert comp.is_zero()
    # f = delta(alpha) is m times the Bargmann pairing
    f2 = r.witnesses.f2
    assert f2[(idx["p1"], idx["B1"])] == F(3)
    assert f2[(idx["p2"], idx["B2"])] == F(3)
    assert f2[(idx["p3"], idx["B3"])] == F(3)
    assert all(k in ((idx["p1"], idx["B1"]), (idx["p2"], idx["B2"]), (idx["p3"], idx["B3"])) for k in f2)


def test_monopole_floor_2_plus_with_certificate():
    r = classify(SPHERE, monopole(m=1, g=2))
    assert (r.floor, r.sign) == (2, "+")
    assert r.k3_class.status == "nonzero"
    cert = r.k3_class.data
    assert list(cert["values"].values()) == [F(-2)]


def test_monopole_classifies_at_tiny_closure_cap():
    # the cocycle components never close into a finite module, and the
    # classifier builds none: the cap is accepted and changes nothing
    r = classify(SPHERE, monopole(m=1, g=2), ClassifyOptions(closure_cap=4))
    assert (r.floor, r.sign) == (2, "+")


def test_monopole_without_charge_floor_4_plus():
    r = classify(SPHERE, monopole(m=1, g=0))
    assert (r.floor, r.sign) == (4, "+")


def test_relativistic_side_poincare_free_density():
    # the rational Galilean-side check: the same density is NOT weakly
    # invariant for the Poincare action (its boost variation is quadratic)
    with pytest.raises(NotWeaklyInvariantError):
        weak_invariance_split(POI, galilean_free(m=1))


# -- Noether charges --------------------------------------------------------------------

def test_translation_charges_free_particle():
    L = parse_expr(TRANS2.chart, "(dq1^2 + dq2^2)/2")
    r = classify(TRANS2, L)
    charges = noether_charges(TRANS2, L, r)
    assert charges[0] == parse_expr(TRANS2.chart, "dq1")
    assert charges[1] == parse_expr(TRANS2.chart, "dq2")


def test_example_charges_with_magnetic_and_electric_parts():
    L = magnetic(TRANS2, B=1, E=(2, 5))
    r = classify(TRANS2, L)
    charges = noether_charges(TRANS2, L, r)
    ch = TRANS2.chart
    # N_i = dL/d(dq^i) - B_{ik} q^k - E_i tau
    want0 = L.partial("dq1") - r.witnesses.alpha[0] - Expr.var(ch, "tau") * F(2)
    assert (charges[0] - want0).is_zero()
    # and the alpha are the magnetic potentials B_{ik} q^k up to constants
    assert (r.witnesses.alpha[0].partial("q2") - P("1", TRANS2)).is_zero()


def test_galilean_boost_charges():
    L = galilean_free(m=2)
    r = classify(GAL, L)
    charges = noether_charges(GAL, L, r)
    idx = {n: i for i, n in enumerate(GAL.algebra.basis_names)}
    ch = GAL.chart
    # boost charge: t * (m dx^i / dt) - m x^i
    want = parse_expr(ch, "2*t*dx1/dt - 2*x1")
    assert (charges[idx["B1"]] - want).is_zero()


@pytest.mark.parametrize("other", [dict(B=2, E=(2, 5)), dict(B=1, E=(0, 5))])
def test_charges_reject_a_report_of_another_lagrangian(other):
    """The charges take alpha and t from the report; the conservation
    identity rejects them when the report belongs to another Lagrangian."""
    r = classify(TRANS2, magnetic(TRANS2, B=1, E=(2, 5)))
    with pytest.raises(InvariantViolation):
        noether_charges(TRANS2, magnetic(TRANS2, **other), r)


def test_charges_unavailable_on_floor_zero():
    r = classify(L3, family(b=1))
    with pytest.raises(PotentialUnavailable):
        noether_charges(L3, family(b=1), r)


# -- K-spaces ---------------------------------------------------------------------------

def test_k_spaces_l3_cylinder():
    rep = k_spaces(L3)
    assert rep.dims == (2, 2, 2, 0, 1)


def test_family_images_exhaust_the_k_spaces():
    """The homomorphism images over the five-parameter family match the
    independently computed K-space dimensions (except K2: its image is
    empty on this pair, which is why the first floor of the hierarchy is
    empty here)."""
    from lagfloor.linalg import Subspace

    kdims = k_spaces(L3).dims
    psi_vecs, k1_vecs, k4_vecs = [], [], []
    k2_all_zero = k3_all_zero = True
    for pattern in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)):
        rep = classify(L3, family(*pattern))
        psi_vecs.append(rep.psi_class.data)
        harm = dict(rep.k1_class.data or ())
        k1_vecs.append(tuple(harm.get(("phi", i), F(0)) for i in range(3)))
        if rep.k2_class is not None and rep.k2_class.status == "nonzero":
            k2_all_zero = False
        if rep.k3_class is not None and rep.k3_class.status == "nonzero":
            k3_all_zero = False
        if rep.k4_class is not None and rep.k4_class.status in ("zero", "nonzero"):
            k4_vecs.append(rep.k4_class.data)
    def span_dim(vectors, n):
        return Subspace.spanned_by([{i: x for i, x in enumerate(v) if x} for v in vectors], n).dim

    assert span_dim(psi_vecs, 3) == kdims[0]
    assert span_dim(k1_vecs, 3) == kdims[1]
    assert k2_all_zero and k3_all_zero
    assert span_dim(k4_vecs, 1) == kdims[4]


def test_k_spaces_translations_r3():
    rep = k_spaces(TRANS3)
    assert rep.dims == (3, 0, 3, 0, 0)


def test_k_spaces_sphere():
    rep = k_spaces(SPHERE)
    assert rep.dims == (0, 0, 0, 1, 0)
    # one truncated class restricts to zero (smooth-trivial, log potential)
    assert rep.k3_residual_dim == 1
    # the certified representative restricts to a nonzero constant
    vals = restricted_at(SPHERE, rep.k3_reps[0], SPHERE.sample_points[0])
    assert any(vals.values())


def test_k3_certified_reps_are_as_many_as_the_certified_classes():
    """A rep whose values repeat an earlier rep's certifies no new class:
    the certified reps are those that raise the rank of the accounted values."""
    from lagfloor.hierarchy import _certify_k3

    r = k_spaces(SPHERE).k3_reps[0]
    assert _certify_k3(SPHERE, 2, (r, r)) == (1, (r,), 1)


def test_k3_values_that_constant_cocycles_take_certify_nothing():
    """On l3_cylinder, Z^1 pairs with the stability section e2 - z e3 onto
    all of R, so every restriction value is accounted for: no class is
    certified and every truncated class is residual."""
    from lagfloor.hierarchy import _certify_k3
    from lagfloor.pairs import FunctionCochain

    alpha = FunctionCochain(L3, (P("0"), P("2*z + 5"), P("2")))
    assert list(restricted_at(L3, alpha, L3.sample_points[0]).values()) == [5]
    assert _certify_k3(L3, 1, (alpha,)) == (0, (), 1)


def test_k3_without_a_frame_reports_every_truncated_class():
    """No sample point gives no frame, and a free action gives frames with
    no vectors: nothing is certified, so every truncated class is reported
    as residual, not as dimension."""
    from lagfloor.hierarchy import _certify_k3
    from lagfloor.pairs import FunctionCochain

    r = k_spaces(SPHERE).k3_reps[0]
    pointless = GMPair(SPHERE.algebra, SPHERE.chart, SPHERE.fields, SPHERE.transitive, SPHERE.stability_sections, ())
    assert _certify_k3(pointless, 1, (r,)) == (0, (), 1)
    alpha = FunctionCochain(TRANS2, (P("1", TRANS2), P("0", TRANS2)))
    assert TRANS2.frames and all(not vecs for _, vecs, _ in TRANS2.frames)
    assert _certify_k3(TRANS2, 1, (alpha,)) == (0, (), 1)


def test_k3_certificate_agrees_with_phi3_on_each_truncated_class():
    """K3's certificate is phi3's restriction rule applied to a family: on
    each of so3_sphere's truncated classes alone, phi3 finds a certificate
    exactly when the K3 rule certifies the class.  The first restricts to
    zero, and no witness is found within the ansatz; the second restricts
    to a nonzero constant."""
    from lagfloor.hierarchy import UndeterminedError, _certify_k3, k3_space, phi3

    opts = ClassifyOptions(3, 0)
    _, reps = k3_space(SPHERE, opts)
    verdicts = []
    for r in reps:
        try:
            status = phi3(SPHERE, r, opts)[0].status
        except UndeterminedError:
            status = "undetermined"
        verdicts.append((status, _certify_k3(SPHERE, 1, (r,))[0]))
    assert verdicts == [("undetermined", 0), ("nonzero", 1)]


def test_sl2_cylinder_k3_is_certified_on_the_singular_orbit():
    """The Gelfand-Fuks class (0, sin(phi), -cos(phi)) restricts to zero at
    the three points off z = 0, whose stabilizers are one-dimensional; at
    (z, phi) = (0, 0) the stabilizer is spanned by e2 - e1 and e3, and the
    class takes the values (0, -1) there.  Z^1(sl2) = 0, so that frame alone
    certifies it: without the point the class is residual."""
    rep = k_spaces(SL2, SL2_OPTS)
    assert (rep.dims, rep.k3_residual_dim) == ((0, 0, 0, 1, 1), 0)
    assert tuple(to_string(c) for c in rep.k3_reps[0].components) == ("0", "sin(phi)", "-cos(phi)")
    off_orbit_pair = GMPair(SL2.algebra, SL2.chart, SL2.fields, SL2.transitive, SL2.stability_sections,
                            SL2.sample_points[:3])
    off_orbit = k_spaces(off_orbit_pair, SL2_OPTS)
    assert (off_orbit.dims, off_orbit.k3_residual_dim) == ((0, 0, 0, 0, 1), 1)


@pytest.mark.parametrize("a", [1, 2, F(-3, 2)])
def test_sl2_cylinder_charges_are_the_moment_map(a):
    """The charges of a z dphi + 3 dphi + 1 are the moment map of the
    cotangent lift, N_i = a z X_i^phi: the closed term b dphi and the
    constant add nothing."""
    L = parse_expr(SL2.chart, "a*z*dphi + b*dphi + c", params={"a": F(a), "b": F(3), "c": F(1)})
    charges = noether_charges(SL2, L, classify(SL2, L, SL2_OPTS))
    z = Expr.var(SL2.chart, "z")
    for n_i, field in zip(charges, field_exprs(SL2)):
        assert (n_i - z * field.components[1] * F(a)).is_zero()


def test_stability_frames_are_built_once_per_pair(monkeypatch):
    """phi3, the K3 certificate and the restriction read the pair's frames,
    built on first read, one per sample point: 3 on a fresh so3_sphere,
    none when the same pair is classified again, 3 for its K-spaces."""
    from lagfloor import hierarchy, pairs

    built = []
    frame = pairs.stability_frame

    def counted(p, point):
        built.append(point)
        return frame(p, point)

    # in hierarchy too, should it ever import the builder again
    for module in (pairs, hierarchy):
        monkeypatch.setattr(module, "stability_frame", counted, raising=False)
    sphere = fixture_pair("so3_sphere")
    L = monopole(m=7, g=F(2, 3))
    assert classify(sphere, L).floor == 2 and len(built) == 3
    assert classify(sphere, L).floor == 2 and len(built) == 3
    built.clear()
    assert k_spaces(fixture_pair("so3_sphere")).k3_residual_dim == 1 and len(built) == 3


def test_brackets_are_certified_once_per_pair_before_any_stage(monkeypatch):
    """classify, k_spaces and the invariance complex certify the pair's
    brackets first: on l3 with e2 and e3 swapped each raises
    InvariantViolation naming [e1, e2] before any stage builds an action
    image (the certificate itself reads only the images of the field
    components' monomials), and the report is kept on the pair, so a valid
    pair is checked once however many commands read it."""
    from lagfloor import pairs

    checked = []
    validate = pairs.validate_pair

    def counted(p):
        checked.append(p)
        return validate(p)

    monkeypatch.setattr(pairs, "validate_pair", counted)
    bent = GMPair(L3.algebra, L3.chart, (L3.fields[0], L3.fields[2], L3.fields[1]))
    field_monos = {m for field in bent.fields for x in field for m in x.terms}
    opts = ClassifyOptions(degree=1, fourier=1)
    for compute in (lambda: classify(bent, P("dz^2")), lambda: k_spaces(bent, opts),
                    lambda: build_invariance_double_complex(bent, opts)):
        with pytest.raises(InvariantViolation, match=r"the fields violate the bracket \[e1, e2\]"):
            compute()
        act = bent.action
        assert not act._prolonged and not act._oneform and not act._contraction
        assert all(m in field_monos for _, m in act._scalar)
    assert checked == [bent]
    pair = fixture_pair("l3_cylinder")
    classify(pair, P("dz^2"), opts)
    k_spaces(pair, opts)
    build_invariance_double_complex(pair, opts)
    assert checked == [bent, pair]


def test_k3_truncated_classes_in_canonical_order():
    """The truncated quotient's representatives, before the restriction
    certificate filters them, in the order the quotient picks them.

    The expected cochains were produced before K3 was rebuilt on the action
    table; their order depends on the ambient coordinate order of the
    canonical echelon forms.
    """
    from lagfloor.expr import to_string
    from lagfloor.hierarchy import k3_space

    dim, reps = k3_space(SPHERE, ClassifyOptions(3, 0))
    assert dim == 2
    assert [tuple(to_string(c) for c in a.components) for a in reps] == [
        ("v", "-u", "0"),
        ("u", "v", "-1"),
    ]


def test_k3_raises_insert_each_monomial_coboundary_once(monkeypatch):
    """K3's denominator is one store grown across the raises: the fixed
    generators go in before the first raise, and each raise inserts the
    coboundaries of the monomials it adds to the one before it, one row
    per monomial, and no other."""
    import lagfloor.hierarchy as h

    stores = []

    class Recording(h.Echelon):
        def _insert(self, w):
            stores.append(self)
            return super()._insert(w)

    calls = []
    listed = h.function_monomials

    def recording_monomials(chart_, degree, fourier):
        monos = listed(chart_, degree, fourier)
        calls.append((len(stores), monos))
        return monos

    monkeypatch.setattr(h, "Echelon", Recording)
    monkeypatch.setattr(h, "function_monomials", recording_monomials)
    assert h.k3_space(SPHERE, ClassifyOptions(3, 0))[0] == 2
    calls.append((len(stores), None))
    raises = calls[1:]  # the first call lists the ansatz
    assert len(raises) > 2 and raises[0][0] > 0
    assert all(store is stores[0] for store in stores)
    before = []
    for (start, monos), (end, _) in zip(raises, raises[1:]):
        assert set(before) <= set(monos)
        assert end - start == len(monos) - len(before)
        before = monos


# -- invariances of the classifier ---------------------------------------------------------

def random_function(rng, pair):
    if pair is L3:
        monos = ["z", "z^2", "z*sin(phi)", "cos(phi)", "z^2*cos(2*phi)"]
    else:
        monos = ["q1", "q2", "q1*q2", "q1^2"]
    f = parse_expr(pair.chart, "0")
    for m in monos:
        if rng.random() < 0.5:
            f = f + parse_expr(pair.chart, m) * F(rng.randint(-3, 3), rng.randint(1, 2))
    return f


@pytest.mark.parametrize("pattern", [(1, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)])
def test_full_derivative_invariance(pattern):
    rng = random.Random(hash(pattern) & 0xFFFF)
    L = family(*pattern)
    base = classify(L3, L)
    for _ in range(3):
        f = random_function(rng, L3)
        shifted = classify(L3, L + d_el(f))
        assert classes_signature(shifted) == classes_signature(base)


WITNESS_PINS = [
    # (pair, invariant part, g, w, l_inv) for L = invariant part + d_EL(g),
    # captured before phi3 read its system off the action table; t'' and f
    # come out 0.  The witness is the canonical particular solution, so it
    # depends on the order of phi3's unknowns
    (TRANS3, "(dq1^2 + dq2^2 + dq3^2)/2", "q1*q2^2 + q3",
     ("q2^2", "2*q1*q2", "0"), "1/2*dq3^2 + dq3 + 1/2*dq2^2 + 1/2*dq1^2"),
    (fixture_pair("so3_r3"), "(dx1^2 + dx2^2 + dx3^2)/2", "x1*x2",
     ("x2", "x1", "0"), "1/2*dx3^2 + 1/2*dx2^2 + 1/2*dx1^2"),
    (L3, "dz^2/2", "z^3*cos(2*phi) + z",
     ("3*z^2*cos(2*phi)", "-2*z^3*sin(2*phi)"), "1/2*dz^2 + dz"),
]


@pytest.mark.parametrize("pair, base, g, w, l_inv", WITNESS_PINS, ids=["translations_r3", "so3_r3", "l3_cylinder"])
def test_phi3_witness_of_a_full_derivative_pinned(pair, base, g, w, l_inv):
    L = P(base, pair) + d_el(P(g, pair))
    rep = classify(pair, L)
    assert (rep.floor, rep.sign) == (4, "+")
    wf, t2, f = rep.witnesses.k3_witness
    assert tuple(to_string(c) for c in wf.components) == w
    assert t2 == (0,) * pair.algebra.dim
    assert to_string(f) == "0"
    assert to_string(rep.decomposition["l_inv"]) == l_inv


def test_invariant_shift_invariance():
    L = family(1, 0, 1, 0, 0)
    base = classify(L3, L)
    for inv in ("dz^2", "dz^3 + 2*dz", "7"):
        shifted = classify(L3, L + P(inv))
        assert classes_signature(shifted) == classes_signature(base)


def test_phi4_is_additive_on_the_a_family():
    c1 = classify(L3, family(a=1)).k4_class.data
    c2 = classify(L3, family(a=2)).k4_class.data
    c3 = classify(L3, family(a=3)).k4_class.data
    assert tuple(x + y for x, y in zip(c1, c2)) == c3


def test_linearity_of_psi_and_phi1():
    s1 = weak_invariance_split(L3, family(c=1, b=2))
    s2 = weak_invariance_split(L3, family(d=3, q=1))
    s12 = weak_invariance_split(L3, family(c=1, b=2, d=3, q=1))
    assert psi(s12).data == tuple(x + y for x, y in zip(psi(s1).data, psi(s2).data))
    m1 = dict(phi1(L3, s1)[0].data)
    m2 = dict(phi1(L3, s2)[0].data)
    m12 = dict(phi1(L3, s12)[0].data)
    keys = set(m1) | set(m2)
    assert {k: m1.get(k, F(0)) + m2.get(k, F(0)) for k in keys} == m12


# -- the truncated double complex -----------------------------------------------------------

def test_l3_invariance_complex_e2_column():
    dc = build_invariance_double_complex(L3, ClassifyOptions(degree=3, fourier=3))
    p2 = page(dc, 2)
    assert p2.dim(0, 0) == 1  # H^0(G) = R
    assert p2.dim(1, 0) == 2  # H^1(G) = R^2
    assert p2.dim(2, 0) == 2  # H^2(G) = R^2
    assert total_cohomology(dc, 0).dim == 1
    assert abutment_check(dc).ok


def test_galilean_invariance_complex_past_the_cap(monkeypatch):
    """The filtered reduction on a complex above MAX_COMPLEX_CELLS, with the
    cap raised in process: 11 x 3 cells at degree 0, the abutment holds,
    and the q = 0 row of E_2 is H^p(g) with trivial coefficients."""
    import lagfloor.hierarchy as h

    monkeypatch.setattr(h, "MAX_COMPLEX_CELLS", 10 * h.MAX_COMPLEX_CELLS)
    dc = build_invariance_double_complex(GAL, ClassifyOptions(degree=0, fourier=0))
    assert (dc.width, dc.height) == (11, 3)
    assert abutment_check(dc).ok
    g = GAL.algebra
    e2 = page(dc, 2)
    want = [cohomology(g, GModule.trivial(g), p).dim for p in range(11)]
    assert want == [1, 1, 1, 3, 3, 2, 3, 3, 1, 1, 1]
    assert [e2.dim(p, 0) for p in range(11)] == want


def test_l3_transposed_corner_is_invariant_functions():
    from zigzag import transpose

    t = transpose(build_invariance_double_complex(L3, ClassifyOptions(degree=3, fourier=3)))
    p1 = page(t, 1)
    # invariant functions within the truncation: constants only
    assert p1.dim(0, 0) == 1


def _planted_operators(rng, m):
    """(operators, planted): one to three integer operators on Q^m, each
    given as its sparse columns, and a basis of a random subspace they
    keep.  The operators are block upper triangular on span(e_0..e_{d-1}),
    then conjugated by a product of elementary matrices, which takes that
    span to the span of planted."""
    d = rng.randint(0, m)
    change = [[F(int(r == c)) for c in range(m)] for r in range(m)]
    inverse = [row[:] for row in change]
    for _ in range(rng.randint(0, 4) if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.choice([1, -1, 2])
        for row in change:  # change = change * (1 + c e_ij)
            row[j] += c * row[i]
        inverse[i] = [x - c * y for x, y in zip(inverse[i], inverse[j])]  # (1 - c e_ij) * inverse
    ops = []
    for _ in range(rng.randint(1, 3)):
        a = [[F(0) if r >= d > c else F(rng.choice([0, 0, 1, -1, 2])) for c in range(m)] for r in range(m)]
        conj = [[sum(change[r][k] * a[k][l] * inverse[l][c] for k in range(m) for l in range(m)) for c in range(m)]
                for r in range(m)]
        ops.append([{r: conj[r][c] for r in range(m) if conj[r][c]} for c in range(m)])
    return ops, [{r: change[r][c] for r in range(m) if change[r][c]} for c in range(d)]


def test_invariance_closure_equals_the_residual_kernel_shrink_on_random_operators():
    """One elimination per pass finds the subspace that shrinking by the
    kernel of the images' residual rows finds, on random operator families
    that keep a planted subspace, from the unit basis or from the planted
    subspace and random vectors."""
    from lagfloor.hierarchy import _largest_invariant_subspace
    from lagfloor.linalg import Subspace

    from span_oracle import largest_invariant_subspace

    rng = random.Random(48)
    shrunk = kept = 0
    for _ in range(200):
        m = rng.randint(1, 5)
        ops, planted = _planted_operators(rng, m)
        unit_images = [cols.__getitem__ for cols in ops]
        if rng.random() < 0.3:
            basis = [{u: F(1)} for u in range(m)]
        else:
            vectors = [[rng.choice([0, 0, 1, -1, 3]) for _ in range(m)] for _ in range(rng.randint(1, 2))]
            vectors = planted + [{u: F(x) for u, x in enumerate(v) if x} for v in vectors]
            basis = [dict(b) for b in Subspace.spanned_by(vectors, m).basis]
        got = _largest_invariant_subspace(basis, unit_images)
        want = largest_invariant_subspace(basis, unit_images)
        assert Subspace.spanned_by(got, m).int_basis == Subspace.spanned_by(want, m).int_basis
        shrunk += 0 < len(got) < len(basis)
        kept += len(got) == len(basis)
    assert shrunk > 20 and kept > 20


@pytest.mark.parametrize("pair, opts", [(L3, ClassifyOptions()), (SPHERE, ClassifyOptions()), (SL2, SL2_OPTS)],
                         ids=["l3_cylinder", "so3_sphere", "sl2_cylinder"])
def test_invariance_closure_equals_the_residual_kernel_shrink_on_shrinking_pairs(pair, opts, monkeypatch):
    """On pairs whose truncations are not action-closed, each family the
    invariance complex shrinks spans what the reference shrink keeps."""
    import lagfloor.hierarchy as h
    from lagfloor.linalg import Subspace

    from span_oracle import largest_invariant_subspace

    closures = []
    closure = h._largest_invariant_subspace

    def recording(basis, unit_images):
        out = closure(basis, unit_images)
        closures.append((basis, unit_images, out))
        return out

    monkeypatch.setattr(h, "_largest_invariant_subspace", recording)
    build_invariance_double_complex(pair, opts)
    assert len(closures) == 2 and len(closures[0][2]) < len(closures[0][0])
    for basis, unit_images, out in closures:
        index = {u: k for k, u in enumerate(sorted({u for b in basis for u in b}))}

        def span(vectors):
            return Subspace.spanned_by([{index[u]: x for u, x in v.items()} for v in vectors], len(index)).int_basis

        assert span(out) == span(largest_invariant_subspace(basis, unit_images))


def test_abelian_r1_invariance_complex():
    q = Chart((("q", "line"),))
    pair = GMPair(catalog("abelian", n=1), q, ((TP.const(1),),))
    p2 = page(build_invariance_double_complex(pair, ClassifyOptions(degree=2, fourier=0)), 2)
    assert p2.dim(0, 0) == 1  # Lambda^0 invariants = constants
    assert p2.dim(1, 0) == 1  # H^1 of the abelian line


def test_invariance_complex_check_raises_under_python_O():
    """An explicit check, so python -O keeps it: a d1 that no longer commutes
    with d2 (doubled on the one-tuple columns) raises InvariantViolation."""
    script = textwrap.dedent(
        """
        import lagfloor.hierarchy as h
        from lagfloor.linalg import InvariantViolation, Mat
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        block_diag = h._block_diag

        def skewed(m, count):
            out = block_diag(m, count)
            if count != 1:
                return out
            return Mat(out.rows, out.cols, tuple({j: 2 * x for j, x in row.items()} for row in out.data))

        h._block_diag = skewed
        try:
            h.build_invariance_double_complex(fixture_pair("l3_cylinder"))
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("passed")
        """
    )
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=SCRIPT_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: invariance complex failed validation"), res.stdout


@pytest.mark.parametrize("path, extra, check", [
    ("src/lagfloor/fixtures/l3_cylinder.toml", (), "module failed validation"),
    ("tests/problems/sl2_cylinder.toml", (), "module failed validation"),
    ("tests/problems/gl3_stabilizer_elementary.toml", (), "module failed validation"),
    ("src/lagfloor/fixtures/so3_r3.toml", ("--ansatz-degree", "1"), "invariance complex failed validation"),
    ("src/lagfloor/fixtures/translations_r3.toml", ("--ansatz-degree", "2"), "invariance complex failed validation"),
], ids=["l3_cylinder", "sl2_cylinder", "gl3_stabilizer_elementary", "so3_r3", "translations_r3"])
def test_a_rotated_induced_action_exits_3_under_python_O(path, extra, check):
    """The action on 2-forms induced with its generators rotated, rho2_i
    taken from generator i + 1, fails an explicit check, so python -O keeps
    it: the module check where the rotation breaks the brackets, and the
    Q^2 commute block at q = 1 where it keeps them (so(3)'s cyclic rotation
    is an automorphism, and translations commute)."""
    script = textwrap.dedent(
        """
        import sys
        import lagfloor.hierarchy as h
        from lagfloor.cli import main

        assert False, "asserts must be stripped under -O"
        validated = h.validated_module
        h.validated_module = lambda dim, g, action: validated(dim, g, action[1:] + action[:1])
        raise SystemExit(main(["--format", "machine", "spectral", *sys.argv[1:], "--from-pair"]))
        """
    )
    res = subprocess.run([sys.executable, "-O", "-c", script, path, *extra], capture_output=True, text=True,
                         env=SCRIPT_ENV, cwd=ROOT)
    assert res.returncode == 3, res.stdout + res.stderr
    assert f"invariant_violation = {check}" in res.stdout


def test_hierarchy_certificates_raise_under_python_O():
    """The classifier's checks are explicit raises, so python -O keeps them:
    an acceleration Lagrangian and a tampered Noether potential each raise
    InvariantViolation."""
    script = textwrap.dedent(
        """
        from lagfloor.expr import parse_expr
        from lagfloor.hierarchy import classify, noether_charges, weak_invariance_split
        from lagfloor.linalg import InvariantViolation
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        L3 = fixture_pair("l3_cylinder")
        ch = L3.chart
        L = parse_expr(ch, "z")
        report = classify(L3, L)
        report.witnesses.alpha = tuple(a + parse_expr(ch, "z") for a in report.witnesses.alpha)
        cases = [
            lambda: weak_invariance_split(L3, parse_expr(ch, "ddphi + dz^2/2")),
            lambda: noether_charges(L3, L, report),
        ]
        for case in cases:
            try:
                case()
            except InvariantViolation as exc:
                print("raised:", exc)
            else:
                print("passed")
        """
    )
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=SCRIPT_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "raised: rank-1 Lagrangians only",
        "raised: Noether conservation identity failed",
    ], res.stdout


def test_moved_zero_tests_raise_under_python_O():
    """The checks that run on numerator and denominator pairs are explicit
    raises, so python -O keeps them: a perturbed scalar image of the action
    table, a tampered potential, a tampered phi3 witness and a tampered
    decomposition each raise InvariantViolation."""
    script = textwrap.dedent(
        """
        import lagfloor.calculus as calculus
        import lagfloor.hierarchy as h
        from lagfloor.calculus import gradient
        from lagfloor.expr import TP, TP_ONE, parse_expr
        from lagfloor.linalg import InvariantViolation
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        GAL = fixture_pair("galilean_r4")
        L3 = fixture_pair("l3_cylinder")
        ch = L3.chart

        def perturbed_scalar():
            _, alphas = h.phi1(GAL, h.weak_invariance_split(GAL, parse_expr(GAL.chart, "(dx1^2 + dx2^2 + dx3^2)/dt")))
            scalar = GAL.action.scalar
            GAL.action.scalar = lambda i, m: scalar(i, m) + TP.var("x1")
            h.phi2(GAL, alphas)

        def tampered_potential():
            find = calculus.find_potential
            calculus.find_potential = lambda w: find(w) + parse_expr(ch, "z")
            try:
                calculus.derham_split(gradient(parse_expr(ch, "z^2*sin(phi)")))
            finally:
                calculus.find_potential = find

        def tampered_witness():
            pi = h.pi_images
            h.pi_images = lambda p, units, basis: [[pw[0] + TP_ONE, *pw[1:]] for pw in pi(p, units, basis)]
            try:
                h.classify(L3, parse_expr(ch, "z"))
            finally:
                h.pi_images = pi

        def tampered_decomposition():
            d_el = h.d_el
            h.d_el = lambda f: d_el(f) + parse_expr(ch, "z*dz")
            try:
                h.classify(L3, parse_expr(ch, "z"))
            finally:
                h.d_el = d_el

        for case in (perturbed_scalar, tampered_potential, tampered_witness, tampered_decomposition):
            try:
                case()
            except InvariantViolation as exc:
                print("raised:", exc)
            else:
                print("passed")
        """
    )
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=SCRIPT_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "raised: (delta alpha) must be constant for closed splits",
        "raised: derham_split reconstruction failed",
        "raised: the rebuilt witness must reproduce alpha",
        "raised: decomposition failed verification",
    ], res.stdout


# (Lagrangian, residue line) of split failures on the line pair X = d/dq1
# of R^2, each printed as before the split's residue became a pair
SPLIT_FAILURES = [
    ("q1*q2*dq1", "residue = (q2, 0)"),  # w = q2 dq1 is not closed
    ("q1*dq2^2 + q1^2/(1 + q2^2)", "residue = dq2^2"),  # quadratic in velocities
]


@pytest.mark.parametrize("lagrangian, residue", SPLIT_FAILURES, ids=["not-closed", "quadratic"])
def test_split_failures_exit_5_with_their_residue_under_python_O(lagrangian, residue, tmp_path):
    """The split's residue and closedness are tested on pairs; a failure
    still builds its residue as an expression and prints it, with exit 5,
    also under python -O."""
    problem = tmp_path / "split.toml"
    problem.write_text(
        '[algebra]\nname = "abelian"\nparams = {n = 1}\n\n'
        '[chart]\ncoords = [["q1", "line"], ["q2", "line"]]\n\n'
        '[action]\ne1 = ["1", "0"]\n\n'
        f'[lagrangian]\nexpr = "{lagrangian}"\n'
    )
    script = f"from lagfloor.cli import main\nraise SystemExit(main(['--format', 'machine', 'classify', {str(problem)!r}]))"
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=SCRIPT_ENV)
    assert res.returncode == 5, res.stderr
    assert res.stdout.splitlines()[-3:] == ["status = not_weakly_invariant", "generator = e1", residue], res.stdout


def _imported_names(module):
    source = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    return imported


def test_hierarchy_reads_the_action_through_the_pair():
    """The classifier and the invariance complex take the generator action
    from the pair's table; no symbolic second path comes back."""
    banned = {
        "lie_derivative_scalar", "lie_derivative_oneform", "lie_derivative_twoform",
        "pi_map", "solve_linear_expr_system",
    }
    imported = _imported_names("hierarchy")
    assert not imported & banned, sorted(imported & banned)


def test_pair_modules_read_the_action_table():
    """Modules, invariant forms and pi read monomial images off the action
    table, which the derivative rule fills: pairs solves no expression
    system and takes no symbolic Lie derivative."""
    banned = {"solve_linear_expr_system", "lie_derivative_scalar", "lie_derivative_oneform", "lie_derivative_twoform"}
    imported = _imported_names("pairs")
    assert not imported & banned, sorted(imported & banned)


@pytest.mark.parametrize("name", ["galilean_r4", "poincare_c1"])
def test_k_spaces_differentiate_no_expression(name, monkeypatch):
    """On a fresh pair, so with a cold action table, the K-spaces take every
    derivative by the derivative rule on monomial keys: Expr.partial is
    never called."""
    calls = []
    partial = Expr.partial

    def counted(self, gen):
        calls.append(gen)
        return partial(self, gen)

    pair = fixture_pair(name)
    monkeypatch.setattr(Expr, "partial", counted)
    k_spaces(pair, ClassifyOptions())
    assert calls == []


# (fixture, --set values) of every fixture pair with a Lagrangian, at the
# parameters of the pinned classify and noether commands and a few more
FIXTURE_LAGRANGIANS = [
    ("l3_cylinder", "a=1,b=0,c=0,d=0,q=0"),
    ("l3_cylinder", "a=0,b=1,c=0,d=0,q=0"),
    ("l3_cylinder", "a=0,b=0,c=1,d=0,q=0"),
    ("l3_cylinder", "a=0,b=0,c=0,d=1,q=1"),
    ("l3_cylinder", "a=1,b=0,c=1,d=1,q=0"),
    ("so3_sphere", "m=7,g=2/3"),
    ("so3_sphere", "m=7,g=0"),
    ("so3_r3", "m=3"),
    ("translations_r2", "m=1,B=2,E1=1,E2=3"),
    ("translations_r3", "m=1,B1=1,B2=0,B3=2,E1=0,E2=0,E3=0"),
    ("translations_r3", "m=1,B1=0,B2=0,B3=0,E1=1,E2=0,E3=2"),
    ("galilean_r4", "m=2"),
]


@pytest.mark.parametrize("name, values", FIXTURE_LAGRANGIANS)
def test_classify_and_charges_compare_no_expressions(name, values, monkeypatch):
    """Every check that classify and noether_charges make only tests a value
    for zero or for a constant, on numerator and denominator pairs of trig
    polynomials: Expr.__eq__ is never called."""
    pf = load_problem_file(ROOT / "src" / "lagfloor" / "fixtures" / f"{name}.toml")
    L = build_lagrangian(pf, {k: F(v) for k, v in (kv.split("=") for kv in values.split(","))})
    pair = build_pair(pf)
    calls = []
    eq = Expr.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(Expr, "__eq__", counted)
    report = classify(pair, L)
    if report.witnesses.alpha is not None:
        noether_charges(pair, L, report)
    assert calls == []
