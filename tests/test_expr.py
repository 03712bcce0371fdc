import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor import expr
from lagfloor.expr import (
    MAX_NESTING,
    TP,
    UNIT,
    Chart,
    EvaluationPole,
    Expr,
    ParseError,
    UnknownSymbol,
    derivation,
    fraction_const_value,
    function_monomials,
    parse_expr,
    time_derivation,
    to_string,
)
from lagfloor.exprspace import equation_rows
from lagfloor.linalg import kernel_of_rows

import tp_reference

F = Fraction

CYL = Chart((("z", "line"), ("phi", "angle")))
PLANE = Chart((("u", "line"), ("v", "line")))


def P(text, ch=CYL, **kw):
    return parse_expr(ch, text, **kw)


def test_chart_names_are_computed_once_and_stay_out_of_identity():
    """The derived names are fields set once from coords: equality, hashing
    and repr read coords alone, as they did when the names were properties."""
    coords = (("z", "line"), ("phi", "angle"))
    assert CYL.names == ("z", "phi") and CYL.names is CYL.names
    assert (CYL.line_names, CYL.angle_names) == (("z",), ("phi",))
    assert CYL.velocity_names == ("dz", "dphi") and CYL.velocity_names is CYL.velocity_names
    assert CYL.acceleration_names == ("ddz", "ddphi")
    assert CYL.jet_names == {"dz", "dphi", "ddz", "ddphi"}
    assert CYL.symbols == {"z", "phi", "dz", "dphi", "ddz", "ddphi", "tau"}
    assert (CYL.kind("z"), CYL.kind("phi")) == ("line", "angle")
    with pytest.raises(KeyError):
        CYL.kind("dz")
    assert CYL == Chart(coords) and CYL != Chart(coords[::-1])
    assert hash(CYL) == hash(Chart(coords)) == hash((coords,))
    assert repr(CYL) == "Chart(coords=(('z', 'line'), ('phi', 'angle')))"
    with pytest.raises(ValueError, match="duplicate coordinate names in \\['z', 'z'\\]"):
        Chart((("z", "line"), ("z", "angle")))
    for clash in ("dz", "ddz", "tau"):
        with pytest.raises(ValueError, match=f"coordinate name '{clash}' clashes"):
            Chart((("z", "line"), (clash, "line")))


# -- parsing -----------------------------------------------------------------

def test_parse_polynomial():
    e = P("z*dphi + 1/2")
    assert not e.is_zero()
    assert e == P("dphi*z") + P("1/2")


def test_pythagorean_identity_reduces_to_one():
    assert P("sin(phi)^2 + cos(phi)^2") == Expr.const(CYL, 1)


def test_rational_velocity_expression():
    e = P("dphi/dz")
    assert e * P("dz") == P("dphi")


def test_bare_angle_is_rejected():
    with pytest.raises(ParseError):
        P("phi + 1")


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        P("w + 1")


def test_params_substitution():
    e = P("a*z + b", params={"a": F(2), "b": F(-1, 3)})
    assert e == P("2*z - 1/3")


def test_params_keep_the_positions_and_depth_of_the_text():
    """A parameter is bound by the parser, not rewritten into the text:
    error positions index the text as written, and a parameter nests no
    deeper than the literal in its place."""
    line = Chart((("x", "line"),))
    with pytest.raises(ParseError) as exc:
        parse_expr(line, "a)", {"a": F(2)})
    assert exc.value.pos == 1
    deep = "(" * MAX_NESTING + "{}" + ")" * MAX_NESTING
    assert parse_expr(line, deep.format("a"), {"a": F(2)}) == parse_expr(line, deep.format("2"))


def test_double_angle_product_to_sum():
    # sin(phi)*cos(phi) = sin(2*phi)/2
    assert P("sin(phi)*cos(phi)") == P("sin(2*phi)/2")


def test_negative_power():
    assert P("dz^-2") == P("1/dz^2")


# -- printing round-trip -------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "z*dphi + 1/2",
        "sin(phi)*cos(phi) + z^3",
        "dphi^2/dz - 7*z",
        "(z + sin(2*phi))/(dz^2)",
        "1/2*z*cos(3*phi)",
    ],
)
def test_print_parse_roundtrip(text):
    e = P(text)
    assert P(to_string(e)) == e


# -- partial derivatives -------------------------------------------------------

def test_partial_line():
    assert P("z^2*dphi").partial("z") == P("2*z*dphi")


def test_partial_angle_through_trig():
    assert P("cos(phi)").partial("phi") == P("-sin(phi)")
    assert P("sin(2*phi)").partial("phi") == P("2*cos(2*phi)")


def test_partial_velocity_quotient_rule():
    assert P("dphi^2/dz").partial("dz") == P("-dphi^2/dz^2")


def test_partial_unknown_generator():
    with pytest.raises(UnknownSymbol):
        P("z").partial("nope")


def fixture_expressions():
    """Every shipped Lagrangian, its parameters set to generic values, and
    every field component, as (label, Expr)."""
    from fixture_pairs import FIXTURES, fixture_pair
    from lagfloor.problemfile import build_lagrangian, load_problem_file

    out = []
    for path in sorted(FIXTURES.glob("*.toml")):
        pf = load_problem_file(path)
        if "lagrangian" in pf.sections:
            names = pf.section("lagrangian")["params"]
            values = {n: F(2 * i + 3, i + 2) for i, n in enumerate(names)}
            out.append((f"{path.stem} L", build_lagrangian(pf, values)))
        if "action" in pf.sections:
            pair = fixture_pair(path.stem)
            for i, field in enumerate(pair.fields):
                out.extend((f"{path.stem} X{i}^{mu}", Expr(pair.chart, c)) for mu, c in enumerate(field))
    return out


def test_partials_are_kept_and_equal_a_fresh_derivative():
    """e.partial(g) equals, as a string and by ==, the derivative of a fresh
    equal copy; derivatives of derivatives do too."""
    exprs = fixture_expressions()
    labels = " ".join(label for label, _ in exprs)
    assert "so3_sphere L" in labels and "l3_cylinder X0^1" in labels
    for label, e in exprs:
        ch = e.chart
        gens = (*ch.names, *ch.velocity_names, *ch.acceleration_names, "tau")
        for g in gens:
            d = e.partial(g)
            fresh = Expr(ch, e.num, e.den).partial(g)
            assert to_string(d) == to_string(fresh) and d == fresh, (label, g)
            for h in gens[:len(ch.names)]:
                assert to_string(d.partial(h)) == to_string(Expr(ch, d.num, d.den).partial(h)), (label, g, h)
    sphere = dict(exprs)["so3_sphere L"]
    assert not sphere.den.is_one()  # a rational Lagrangian is among them
    assert CYL.kind("phi") == "angle" and P("z*cos(phi)").partial("phi") == P("-z*sin(phi)")


def test_unknown_generator_raises_every_time_and_keeps_nothing():
    e = P("z^2*dphi")
    for _ in range(2):
        with pytest.raises(UnknownSymbol):
            e.partial("nope")
    assert e.partial("z") == P("2*z*dphi")
    with pytest.raises(UnknownSymbol):
        e.partial("nope")


def test_power_of_a_sum_is_bounded_before_expansion():
    """base^k with t > 1 terms in its numerator or denominator is refused
    when C(|k| + t - 1, t - 1) exceeds MAX_POWER_TERMS; a monomial base takes
    any exponent."""
    from lagfloor.expr import MAX_POWER_TERMS

    for text, bound in (("(1 + u + v)^300", 45451), ("(1 + u + v)^44", 1035), ("1/(1 + u + v)^-300", 45451),
                        ("(u/(1 + u + v))^-44", 1035), ("((1 + u)^40)^3", 12341)):
        with pytest.raises(ParseError, match=f"expands to up to {bound} terms, above the limit of {MAX_POWER_TERMS}"):
            parse_expr(PLANE, text)
    assert to_string(parse_expr(PLANE, "u^1000")) == "u^1000"
    assert parse_expr(PLANE, "(u*v/3)^-500") == parse_expr(PLANE, "3^500/(u^500*v^500)")
    assert parse_expr(PLANE, "(1 + u^2 + v^2)^2") == P("1 + 2*u^2 + 2*v^2 + u^4 + 2*u^2*v^2 + v^4", PLANE)
    assert len(parse_expr(PLANE, "(1 + u + v)^10").num.terms) == 66


def test_product_of_sums_is_bounded_before_expansion():
    """a*b and a/b are refused when the term counts of the two numerators, or
    of the two denominators, that they multiply have a product above
    MAX_POWER_TERMS; products under the bound expand as before."""
    from lagfloor.expr import MAX_POWER_TERMS

    sixty = ["(1 + u + v)"] * 60
    for text, bound in (("*".join(sixty), 1053), ("/".join(["1"] + sixty), 1053),
                        ("(1 + u)^40*(1 + v)^30", 1271), ("1/(1 + u)^40/(1 + v)^30", 1271),
                        ("(1 + u)^40/(1/(1 + v)^30)", 1271), ("(1/(1 + u)^40)/(1 + v)^30", 1271)):
        with pytest.raises(ParseError, match=f"a product expands to up to {bound} terms, above the limit of {MAX_POWER_TERMS}"):
            parse_expr(PLANE, text)
    assert parse_expr(PLANE, "*".join(sixty[:25])) == parse_expr(PLANE, "(1 + u + v)^25")
    assert len(parse_expr(PLANE, "*".join(sixty[:25])).num.terms) == 351
    assert parse_expr(PLANE, "/".join(["1"] + sixty[:25])) == parse_expr(PLANE, "(1 + u + v)^-25")
    assert parse_expr(PLANE, "(1 + u)^40*(u/(1 + v))^30") == parse_expr(PLANE, "(1 + u)^40*u^30/(1 + v)^30")


# -- canonical-form property ---------------------------------------------------

def random_point(rng, ch):
    vals = {}
    for n in ch.line_names:
        vals[n] = F(rng.randint(-6, 6), rng.randint(1, 5))
    for n in ch.velocity_names + ch.acceleration_names:
        vals[n] = F(rng.randint(-6, 6), rng.randint(1, 5))
    for a in ch.angle_names:
        t = F(rng.randint(-5, 5), rng.randint(1, 7))
        vals[a] = (2 * t / (1 + t * t), (1 - t * t) / (1 + t * t))
    return vals


def random_expr(rng, ch, depth=3):
    if depth == 0:
        choice = rng.randrange(4)
        if choice == 0:
            return Expr.const(ch, F(rng.randint(-4, 4), rng.randint(1, 3)))
        if choice == 1:
            return Expr.var(ch, rng.choice(ch.line_names + ch.velocity_names))
        if ch.angle_names:
            a = rng.choice(ch.angle_names)
            return parse_expr(ch, f"{'sin' if choice == 2 else 'cos'}({rng.randint(1, 2)}*{a})")
        return Expr.var(ch, rng.choice(ch.line_names))
    a = random_expr(rng, ch, depth - 1)
    b = random_expr(rng, ch, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    return a * b


def random_fraction(rng, ch):
    num = random_expr(rng, ch, 2)
    while (den := random_expr(rng, ch, 2)).is_zero():
        pass
    return num / den


def test_negation_and_difference_skip_a_second_reduction():
    """-e and a - b build their pairs without reducing again; each is the
    pair that reducing -num over den gives, terms in the same order."""
    rng = random.Random(4040)

    def same(x, y):
        assert same_tp(x.num, y.num) and same_tp(x.den, y.den)
        assert to_string(x) == to_string(y)

    for _ in range(60):
        a, b = random_fraction(rng, CYL), random_fraction(rng, CYL)
        same(-a, Expr(CYL, -a.num, a.den))
        same(a - b, a + Expr(CYL, -b.num, b.den))


def test_equality_agrees_with_random_evaluation_on_100_pairs():
    rng = random.Random(12345)
    agree = 0
    for _ in range(100):
        e1 = random_expr(rng, CYL)
        e2 = random_expr(rng, CYL)
        same = e1 == e2
        # evaluate at 4 random rational points; equal normal forms must agree
        for _ in range(4):
            pt = random_point(rng, CYL)
            v1, v2 = e1.evaluate(pt), e2.evaluate(pt)
            if same:
                assert v1 == v2
            elif v1 != v2:
                break
        else:
            # points never separated them: they must be equal expressions
            if not same:
                # a dense-subset coincidence over 4 points is astronomically
                # unlikely for these families; treat as failure
                raise AssertionError(f"normal forms differ but values agree: {e1!r} vs {e2!r}")
        agree += 1
    assert agree == 100


def test_evaluate_trig_exact():
    e = P("sin(2*phi)")
    pt = {"z": F(0), "dz": F(0), "dphi": F(0), "phi": (F(3, 5), F(4, 5))}
    assert e.evaluate(pt) == 2 * F(3, 5) * F(4, 5)


def test_evaluation_pole():
    with pytest.raises(EvaluationPole):
        P("1/z").evaluate({"z": F(0), "phi": (F(0), F(1)), "dz": F(1), "dphi": F(1)})


# -- fraction reduction behaviour ----------------------------------------------

def test_fraction_cancellation_by_trial_division():
    e = P("(u^2 - v^2)", PLANE) / P("u - v", PLANE)
    assert e == P("u + v", PLANE)


def test_sum_with_divisible_denominators():
    one_plus = P("1 + u^2 + v^2", PLANE)
    a = P("u", PLANE) / one_plus
    b = P("v", PLANE) / (one_plus * one_plus)
    s = a + b
    assert s * (one_plus * one_plus) == P("u", PLANE) * one_plus + P("v", PLANE)
    # denominator stayed at (1+u^2+v^2)^2, not degree 6
    assert s.den.degree_in(("u", "v")) == 4


def test_velocity_monomial_denominator_cancels():
    e = P("dphi^2/dz") * P("dz")
    assert e == P("dphi^2")
    assert e.den.is_one()


def test_subs_zero_velocities():
    e = P("z*dphi + 3*z + 1/2")
    r = e.subs_zero(("dz", "dphi"))
    assert r == P("3*z + 1/2")


def test_ansatz_monomials_count():
    monos = function_monomials(CYL, 2, 1)
    # line part: 1, z, z^2 ; trig part: 1, sin, cos  -> 9 monomials
    assert len(monos) == 9


def test_const_value_of_rational():
    """fraction_const_value reads a constant off a pair of trig polynomials,
    in lowest terms or not."""
    e = P("(2*z + 2)/(z + 1)")
    assert fraction_const_value(e.num, e.den) == 2
    assert fraction_const_value(P("2*z + 2").num, P("z + 1").num) == 2
    assert fraction_const_value(P("6*z^2").num, P("4*z^2").num) == F(3, 2)
    assert fraction_const_value(P("z + 1").num, P("z + 2").num) is None


# -- exprspace ------------------------------------------------------------------

def test_kernel_of_expr_system_clears_denominators():
    # c0 + c1 * u/2 - 2 * c3 = c2 / (1 + u), times 1 + u:
    # (c0 - c2 - 2 c3) + (c0 + c1/2 - 2 c3) u + (c1/2) u^2 = 0
    terms = [(0, 1, TP.const(1)), (1, F(1, 2), TP.var("u")), (3, -1, TP.const(2))]
    rows = equation_rows(terms, (2, P("1/(1 + u)", PLANE)))
    assert sorted(sorted(r.items()) for r in rows) == [
        [(0, 1), (2, -1), (3, -2)],
        [(0, 2), (1, 1), (3, -4)],
        [(1, 1)],
    ]
    # a rational right-hand side is no polynomial: its unknown is forced to 0
    assert kernel_of_rows(rows, 4).basis == ({0: F(2), 3: F(1)},)
    # a polynomial one is read as it is
    rows = equation_rows(terms, (2, P("1 + u", PLANE)))
    assert kernel_of_rows(rows, 4).basis == ({0: F(1), 1: F(2), 2: F(1)}, {0: F(2), 3: F(1)})


# -- trig-polynomial kernel against its plain Fraction reference -------------

KERNEL_VARS = ("dz", "u", "z")
KERNEL_ANGLES = ("phi", "th")
KERNEL_CHART = Chart((("z", "line"), ("u", "line"), ("phi", "angle"), ("th", "angle")))
# rational points of the unit circle, as (sin, cos)
CIRCLE = [(F(0), F(1)), (F(1), F(0)), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(4, 5), F(-3, 5))]


@st.composite
def monomials(draw, trig):
    exps = draw(st.lists(st.integers(0, 3), min_size=len(KERNEL_VARS), max_size=len(KERNEL_VARS)))
    vars_ = tuple((n, e) for n, e in zip(KERNEL_VARS, exps) if e)
    factors = []
    if trig:
        for a in KERNEL_ANGLES:
            if draw(st.booleans()):
                factors.append((a, draw(st.sampled_from("sc")), draw(st.integers(1, 3))))
    return vars_, tuple(factors)


def polys(trig=True, max_terms=5):
    """Plain {monomial: Fraction} dicts, the reference's polynomials."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return st.dictionaries(monomials(trig), coeffs, max_size=max_terms)


def tps(trig=True, max_terms=5):
    return polys(trig, max_terms).map(TP.from_vector)


def divisors():
    return polys(trig=False, max_terms=3).filter(bool)


def same_tp(a, b):
    """Equal trig polynomials with the same terms in the same order."""
    return a == b and list(a.terms.items()) == list(b.terms.items())


def matches_reference(tp, ref):
    """The integer TP is in lowest terms and has the reference's values, its
    terms in the reference's order, and its printed form."""
    assert isinstance(tp.den, int) and tp.den > 0
    assert all(type(c) is int for c in tp.terms.values())
    assert math.gcd(tp.den, *tp.terms.values()) == 1
    assert list(tp.vector().items()) == list(ref.items())
    assert to_string(Expr(KERNEL_CHART, tp)) == tp_reference.to_string(ref)
    return True


def cold_and_warm(compute):
    """compute() with the monomial rules' tables emptied, then again with
    the tables that first call filled."""
    for rule in (expr._merge_vars, expr._mono_mul, expr._move_exponent):
        rule.cache_clear()
    return compute(), compute()


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda trig: st.tuples(polys(trig), polys(trig))))
def test_sums_and_differences_match_the_fraction_reference(pair):
    a, b = pair
    assert matches_reference(TP.from_vector(a) + TP.from_vector(b), tp_reference.add(a, b))
    assert matches_reference(TP.from_vector(a) - TP.from_vector(b), tp_reference.sub(a, b))


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda trig: st.tuples(polys(trig), polys(trig))))
def test_product_matches_the_fourier_product_reference(pair):
    """Trig-free pairs skip _mono_mul, and the product-to-sum halves go into
    the denominator; values, term order and printed form are the
    reference's, with and without trig factors."""
    a, b = pair
    ref = tp_reference.mul(a, b)
    for got in cold_and_warm(lambda: TP.from_vector(a) * TP.from_vector(b)):
        assert matches_reference(got, ref)
    # every caller shares a cached product, so none of it can be mutable
    for m1 in a:
        for m2 in b:
            products, _halves = expr._mono_mul(m1, m2)
            assert type(products) is tuple and all(type(p) is tuple for p in products)


@settings(max_examples=60, deadline=None)
@given(polys(), st.fractions(min_value=-5, max_value=5, max_denominator=7), st.sampled_from(KERNEL_VARS),
       st.sampled_from(KERNEL_ANGLES))
def test_scale_and_partials_match_the_fraction_reference(a, c, var, angle):
    tp = TP.from_vector(a)
    assert matches_reference(tp.scale(c), tp_reference.scale(a, c))
    for d, ref in ((derivation(KERNEL_CHART, var), tp_reference.partial_var(a, var)),
                   (derivation(KERNEL_CHART, angle), tp_reference.partial_angle(a, angle))):
        for got in cold_and_warm(lambda: d(tp)):
            assert matches_reference(got, ref)


RULE_CHART = Chart((("x", "line"), ("y", "line"), ("phi", "angle"), ("th", "angle")))
# line coordinates, their velocities, the angles' velocities and tau
RULE_VARS = ("dphi", "dth", "dx", "dy", "tau", "x", "y")
RULE_DERIVATIONS = (
    derivation(RULE_CHART, "x"),
    derivation(RULE_CHART, "phi"),
    derivation(RULE_CHART, "dx"),
    time_derivation(RULE_CHART),
    time_derivation(RULE_CHART, tau=True),
)


@st.composite
def rule_monomials(draw):
    exps = draw(st.lists(st.integers(0, 2), min_size=len(RULE_VARS), max_size=len(RULE_VARS)))
    vars_ = tuple((n, e) for n, e in zip(RULE_VARS, exps) if e)
    trig = tuple((a, draw(st.sampled_from("sc")), draw(st.integers(1, 3)))
                 for a in RULE_CHART.angle_names if draw(st.booleans()))
    return vars_, trig


def rule_polys():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return st.dictionaries(rule_monomials(), coeffs, max_size=4).map(TP.from_vector)


@settings(max_examples=80, deadline=None)
@given(rule_polys(), rule_polys())
def test_the_derivative_rule_obeys_the_product_rule(a, b):
    """D(a*b) == D(a)*b + a*D(b) for d/dx, d/dphi, d/d(dx) and D_t with and
    without tau; products of Fourier factors of one angle go through the
    product-to-sum halves of the normal form."""
    for d in RULE_DERIVATIONS:
        assert d(a * b) == d(a) * b + a * d(b)


@settings(max_examples=60, deadline=None)
@given(polys(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3),
       st.sampled_from(CIRCLE), st.sampled_from(CIRCLE))
def test_evaluation_matches_the_fraction_reference(a, values, phi, th):
    point = dict(zip(KERNEL_VARS, values)), {"phi": phi, "th": th}
    assert TP.from_vector(a).evaluate(*point) == tp_reference.evaluate(a, *point)


@settings(max_examples=100, deadline=None)
@given(polys(), divisors(), st.booleans())
def test_division_matches_the_long_division_reference(a, d, multiple):
    """Exact division of a random dividend, and of a multiple of d, against
    the reference's dense long division; None exactly when it gives None."""
    if multiple:
        a = tp_reference.mul(a, d)
    got, want = TP.from_vector(a).divide_by(TP.from_vector(d)), tp_reference.divide_by(a, d)
    assert (got is None) == (want is None)
    assert want is None or matches_reference(got, want)


@settings(max_examples=50, deadline=None)
@given(tps(), tps(trig=False, max_terms=3).filter(lambda d: not d.is_zero()))
def test_an_exact_product_divides_back(q, d):
    """The degree test rejects only non-multiples: q*d / d is q."""
    assert (q * d).divide_by(d) == q


@settings(max_examples=60, deadline=None)
@given(tps(), tps())
def test_equal_values_are_equal_trig_polynomials(a, b):
    """Lowest terms make == and hash compare values, whatever the route."""
    for x, y in (((a + b) - b, a), (a * b, b * a), (a.scale(F(6, 4)).scale(F(2, 3)), a)):
        assert x == y and hash(x) == hash(y)


def test_a_trig_polynomial_holds_int_coefficients_over_a_positive_int():
    """The constructor refuses a Fraction coefficient and a denominator that
    is not a positive int, and keeps lowest terms: {} over 1 for zero."""
    m = ((("z", 1),), ())
    for terms, den in (({m: F(1, 2)}, 1), ({m: 1.5}, 1), ({m: 1}, 0), ({m: 1}, F(2)), ({m: 1}, -2)):
        with pytest.raises(TypeError):
            TP(terms, den)
    assert TP({m: 4, UNIT: 6}, 8).terms == {m: 2, UNIT: 3} and TP({m: 4, UNIT: 6}, 8).den == 4
    assert (TP({m: 0}, 5).terms, TP({m: 0}, 5).den) == ({}, 1)
    assert TP.from_vector({m: F(1, 2), UNIT: F(-1, 3)}) == TP({m: 3, UNIT: -2}, 6)


def test_a_fraction_coefficient_raises_under_python_O():
    """An explicit raise, so python -O keeps it."""
    script = (
        "from fractions import Fraction\n"
        "from lagfloor.expr import TP\n"
        "try:\n"
        "    TP({((('z', 1),), ()): Fraction(1, 2)})\n"
        "except TypeError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: a trig polynomial's coefficients are ints"), res.stdout


@pytest.mark.parametrize("d", ["1 + u^2 + z", "dz", "3", "u*z^2 - 1"])
def test_zero_divided_by_a_polynomial_is_zero(d):
    zero = TP().divide_by(P(d, Chart((("z", "line"), ("u", "line")))).num)
    assert zero is not None and same_tp(zero, TP())


def test_lower_degree_is_refused_before_the_division():
    """u^2*z + 1 has degree 1 in z, u*z^2 + 1 degree 2: not a multiple."""
    ch = Chart((("z", "line"), ("u", "line")))
    a, d = P("u^2*z + 1", ch).num, P("u*z^2 + 1", ch).num
    assert a.divide_by(d) is None and tp_reference.divide_by(a.vector(), d.vector()) is None
