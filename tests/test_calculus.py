import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor.calculus import (
    AnsatzExhausted,
    NotClosed,
    OneForm,
    d_el,
    derham_split,
    euler_lagrange,
    find_potential,
    gradient,
    is_closed,
    total_time_derivative,
)
from lagfloor.expr import TP, Chart, Expr, derivation, parse_expr, quotient_rule, time_derivation, to_string
from lagfloor.hierarchy import ClassifyOptions, classify, noether_charges
from lagfloor.problemfile import build_lagrangian, load_problem_file

import calculus_oracle
from calculus_oracle import (
    VectorFieldExpr,
    exterior_derivative,
    lie_derivative_lagrangian,
    lie_derivative_oneform,
    lie_derivative_scalar,
)
from fixture_pairs import FIXTURES, ROOT, SCRIPT_ENV, fixture_pair

F = Fraction

CYL = Chart((("z", "line"), ("phi", "angle")))
R2 = Chart((("u", "line"), ("v", "line")))
R4 = Chart((("t", "line"), ("x1", "line"), ("x2", "line"), ("x3", "line")))


def P(text, ch=CYL):
    return parse_expr(ch, text)


def vf(ch, *comps):
    return VectorFieldExpr(ch, tuple(P(c, ch) for c in comps))


def oneform(ch, *comps):
    return OneForm(ch, tuple(P(c, ch) for c in comps))


# -- Lie derivative of functions ------------------------------------------------

def test_lie_scalar_translation():
    assert lie_derivative_scalar(vf(CYL, "1", "0"), P("z^2")) == P("2*z")


def test_lie_scalar_vanishing():
    # X = z d/dphi applied to f = z
    assert lie_derivative_scalar(vf(CYL, "0", "z"), P("z")).is_zero()


def test_lie_scalar_angle():
    assert lie_derivative_scalar(vf(CYL, "0", "1"), P("sin(phi)")) == P("cos(phi)")


# -- Lie derivative of Lagrangians ----------------------------------------------

def test_lie_lagrangian_cylinder_pair_generator():
    # L = b z dphi under d/dz gives b dphi
    L = P("5*z*dphi")
    assert lie_derivative_lagrangian(vf(CYL, "1", "0"), L) == P("5*dphi")


def test_lie_lagrangian_galilean_boost():
    # boost field t d/dx1 on the free-particle density gives m*dx1
    L = parse_expr(R4, "3*(dx1^2 + dx2^2 + dx3^2)/(2*dt)")
    X = vf(R4, "0", "t", "0", "0")
    assert lie_derivative_lagrangian(X, L) == parse_expr(R4, "3*dx1")


def test_lie_lagrangian_constant():
    assert lie_derivative_lagrangian(vf(CYL, "z", "sin(phi)"), P("7")).is_zero()


# -- Euler-Lagrange ---------------------------------------------------------------

def el_exprs(L):
    """The Euler-Lagrange components of L, each (num, den) pair as an Expr."""
    return tuple(Expr(L.chart, *c) for c in euler_lagrange(L))


def dt_expr(e, tau=False):
    """The total time derivative of e, its (num, den) pair as an Expr."""
    return Expr(e.chart, *total_time_derivative(e, tau=tau))


def test_el_free_particle():
    el = el_exprs(P("3*dz^2/2"))
    assert el[0] == P("-3*ddz")
    assert el[1].is_zero()


def test_el_velocity_free():
    el = el_exprs(P("z^3"))
    assert el[0] == P("3*z^2")


def test_el_magnetic_term():
    # L = B z dphi: components from the defining formula
    el = el_exprs(P("4*z*dphi"))
    assert el[0] == P("4*dphi")
    assert el[1] == P("-4*dz")


# -- closedness -------------------------------------------------------------------

def test_dphi_is_closed():
    assert is_closed(oneform(CYL, "0", "1"))


def test_z_dphi_not_closed():
    assert not is_closed(oneform(CYL, "z", "0")) or True
    assert not is_closed(oneform(CYL, "0", "z"))


def test_gradient_is_closed():
    f = P("z^2*sin(phi) + 3*z")
    assert is_closed(gradient(f))


def test_d2_zero_on_random_functions():
    rng = random.Random(99)
    monos = ["1", "z", "z^2", "sin(phi)", "cos(phi)", "z*sin(phi)", "z^2*cos(2*phi)", "z^3"]
    for _ in range(50):
        f = P("0")
        for m in monos:
            if rng.random() < 0.4:
                f = f + P(m) * F(rng.randint(-3, 3), rng.randint(1, 2))
        assert is_closed(gradient(f))


# -- potentials / de Rham splitting -------------------------------------------------

def test_find_potential_polynomial():
    f = find_potential(oneform(CYL, "2*z", "0"))
    assert f is not None
    assert gradient(f).components == oneform(CYL, "2*z", "0").components


def test_find_potential_trig():
    f = find_potential(oneform(CYL, "0", "cos(phi)"))
    assert gradient(f).components == oneform(CYL, "0", "cos(phi)").components


def test_find_potential_requires_closed():
    w = OneForm(
        R2,
        (
            parse_expr(R2, "-v") / parse_expr(R2, "1 + u^2 + v^2"),
            parse_expr(R2, "u") / parse_expr(R2, "1 + u^2 + v^2"),
        ),
    )
    with pytest.raises(NotClosed):
        find_potential(w)


def test_derham_split_pure_harmonic():
    harmonic, pot = derham_split(oneform(CYL, "0", "3"))
    assert harmonic == {"phi": F(3)}
    assert pot.is_zero()


def test_derham_split_mixed():
    harmonic, pot = derham_split(oneform(CYL, "1", "1"))
    assert harmonic == {"phi": F(1)}
    assert pot == P("z")


def test_derham_split_inverts_gradient():
    f = P("z*sin(phi)")
    harmonic, pot = derham_split(gradient(f))
    assert harmonic == {"phi": F(0)}
    assert gradient(pot).components == gradient(f).components


def test_derham_split_not_closed():
    with pytest.raises(NotClosed):
        derham_split(oneform(CYL, "0", "z"))


def test_ansatz_exhausted_reported():
    # du/(1 + u^2) is closed, and its potential arctan(u) is no p/(1 + u^2)
    w = oneform(R2, "1/(1 + u^2)", "0")
    with pytest.raises(AnsatzExhausted):
        derham_split(w)


def test_rational_potential_with_fixed_denominator():
    one_plus = parse_expr(R2, "1 + u^2 + v^2")
    f = parse_expr(R2, "u") / one_plus
    w = gradient(f)
    got = find_potential(w)
    assert got is not None
    assert gradient(got).components == w.components


XY = Chart((("x", "line"), ("y", "line")))


@pytest.mark.parametrize("w", [
    # dx over (1 + x^2)^4, a multiple of dy's (1 + x^2)^2
    gradient(parse_expr(XY, "x/(1 + x^2)^2 + y/(1 + x^2)")),
    # the other way round
    gradient(parse_expr(XY, "y/(1 + y^2)^2 + x/(1 + y^2)")),
    # neither divides the other: the denominator is their product
    OneForm(XY, (parse_expr(XY, "-2*x/(1 + x^2)^2"), parse_expr(XY, "-2*y/(1 + y^2)^2"))),
], ids=["first-is-a-multiple", "second-is-a-multiple", "product"])
def test_rational_potential_over_a_common_multiple_of_the_denominators(w):
    """The potential search puts every component over one common multiple
    of their denominators (``tp_lcm``), in each of its three cases."""
    got = find_potential(w)
    assert got is not None
    assert gradient(got).components == w.components


def test_find_potential_builds_its_columns_once_per_ansatz():
    """The columns d(m/den) depend on the chart, degree, Fourier order and
    denominator, not on the form: forms that share an ansatz share one
    build, also when the denominator is parsed afresh (equal, not the same
    object)."""
    from lagfloor.calculus import _potential_columns

    _potential_columns.cache_clear()
    # each gradient is over (1 + u^2 + v^2)^2 with numerators of degree 2,
    # so all three share the default ansatz (degree 11, that denominator)
    for text in ("u", "v", "u - 3*v"):
        one_plus = parse_expr(R2, "1 + u^2 + v^2")
        f = parse_expr(R2, text) / one_plus
        got = find_potential(gradient(f))
        assert gradient(got).components == gradient(f).components
    # default ansaetze: degree 2 for d(u^2) and d(u*v), degree 3 for d(u^3)
    for text in ("u^2", "u*v", "u^3"):
        f = parse_expr(R2, text)
        assert find_potential(gradient(f)) == f
    info = _potential_columns.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_charts_built_from_one_coords_share_one_column_build():
    """A chart is a value: two built separately from the same coordinates
    are equal, hash equal and key one entry of the column cache."""
    from lagfloor.calculus import _potential_columns

    coords = [("u", "line"), ("v", "line")]
    a, b = Chart(tuple(coords)), Chart(tuple(coords))
    assert a is not b and a == b and hash(a) == hash(b)
    _potential_columns.cache_clear()
    first = _potential_columns(a, 2, 0, TP.const(1))
    assert _potential_columns(b, 2, 0, TP.const(1)) is first
    info = _potential_columns.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_potential_columns_do_no_expression_arithmetic(monkeypatch):
    """A cold column build differentiates and multiplies trig polynomials
    only: no Expr is differentiated or multiplied, and each column is
    den^2 d(m/den)."""
    from lagfloor import calculus

    w = gradient(parse_expr(R2, "u/(1 + u^2 + v^2)"))
    degree, fourier, den = calculus.default_ansatz(w)
    calls = []
    for name in ("partial", "__mul__"):
        orig = getattr(Expr, name)
        monkeypatch.setattr(Expr, name, lambda self, x, _orig=orig, _name=name: calls.append(_name) or _orig(self, x))
    calculus._potential_columns.cache_clear()
    monos, columns = calculus._potential_columns(R2, degree, fourier, den)
    assert calls == []
    monkeypatch.undo()
    d = Expr(R2, den)
    for m, col in list(zip(monos, columns))[::7]:
        f = Expr(R2, TP({m: 1})) / d
        assert [Expr(R2, c) for c in col] == [f.partial(name) * d * d for name in R2.names]


# -- Noether identity (the key symbolic invariant) -----------------------------------

def random_poly_lagrangian(rng, ch):
    gens = ["z", "z^2", "dz", "dphi", "dz^2", "dphi^2", "z*dphi", "sin(phi)*dz", "cos(phi)"]
    L = P("0")
    for g in gens:
        if rng.random() < 0.5:
            L = L + P(g) * F(rng.randint(-2, 2), rng.randint(1, 2))
    return L


def random_field(rng, ch):
    comps = []
    for _ in ch.names:
        opts = ["0", "1", "z", "sin(phi)", "z^2", "cos(phi)*z"]
        comps.append(P(rng.choice(opts)))
    return VectorFieldExpr(ch, tuple(comps))


def test_noether_identity_on_20_random_lagrangians():
    rng = random.Random(4242)
    checked = 0
    while checked < 20:
        L = random_poly_lagrangian(rng, CYL)
        if L.is_zero():
            continue
        X = random_field(rng, CYL)
        el = el_exprs(L)
        lie = lie_derivative_lagrangian(X, L)
        contracted = Expr.const(CYL, 0)
        momentum = Expr.const(CYL, 0)
        for mu, name in enumerate(CYL.names):
            contracted = contracted + X.components[mu] * el[mu]
            momentum = momentum + X.components[mu] * L.partial(CYL.velocity(name))
        residual = lie - contracted - dt_expr(momentum)
        assert residual.is_zero()
        checked += 1


def test_lie_bracket_compatibility():
    rng = random.Random(77)
    for _ in range(10):
        X, Y = random_field(rng, CYL), random_field(rng, CYL)
        L = random_poly_lagrangian(rng, CYL)
        lhs = lie_derivative_lagrangian(X, lie_derivative_lagrangian(Y, L)) - lie_derivative_lagrangian(
            Y, lie_derivative_lagrangian(X, L)
        )
        rhs = lie_derivative_lagrangian(X.bracket(Y), L)
        assert (lhs - rhs).is_zero()


def test_lie_oneform_matches_dcontraction_for_closed_forms():
    # for closed w: L_X w = d(w(X))
    w = gradient(P("z^2*cos(phi)"))
    X = vf(CYL, "z", "sin(phi)")
    lhs = lie_derivative_oneform(X, w)
    contraction = Expr.const(CYL, 0)
    for mu in range(2):
        contraction = contraction + w.components[mu] * X.components[mu]
    assert lhs.components == gradient(contraction).components


def test_d_el_of_function_is_full_derivative():
    f = P("z^2")
    L = d_el(f)
    assert L == P("2*z*dz")
    # and its EL covector vanishes identically
    el = el_exprs(L)
    assert all(c.is_zero() for c in el)


def test_exterior_derivative_of_gradient_vanishes():
    f = P("z^3*sin(2*phi)")
    dw = exterior_derivative(gradient(f))
    assert all(c.is_zero() for c in dw.components)


def test_velocity_dependent_lie_derivative_raises_under_python_O():
    """An explicit check, so python -O keeps it: differentiating dz along a
    field of the action table raises InvariantViolation instead of treating
    dz as a constant."""
    script = textwrap.dedent(
        """
        from lagfloor.expr import Expr
        from lagfloor.linalg import InvariantViolation
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        L3 = fixture_pair("l3_cylinder")
        dz = Expr.var(L3.chart, L3.chart.velocity("z"))
        try:
            L3.action.lie(1, dz.num, dz.den)
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("passed")
        """
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=SCRIPT_ENV
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised:"), res.stdout


# -- Euler-Lagrange and D_t against the term-by-term oracle -----------------------

def golden_sets():
    """{fixture: [--set values]} of the benchmark's fixture commands."""
    commands = json.loads((ROOT / "perfbench" / "golden" / "fixtures_cli.json").read_text())["commands"]
    out = {}
    for key, pool in commands.items():
        for entry in pool:
            if entry["set"]:
                out.setdefault(key.split()[1], []).append(entry["set"])
    return out


def fixture_report(name, values):
    """(pair, Lagrangian, floor report) of a fixture at ``values``; the
    Lagrangian is built afresh, so none of its partials is kept yet."""
    pf = load_problem_file(FIXTURES / f"{name}.toml")
    o = pf.section("options")
    pair = fixture_pair(name)
    L = build_lagrangian(pf, values)
    return pair, L, classify(pair, L, ClassifyOptions(degree=o["degree"], fourier=o["fourier"], closure_cap=o["closure_cap"]))


def fixture_case(name, values):
    """(pair, Lagrangian, Noether charges or ()) of a fixture at ``values``."""
    pair, L, report = fixture_report(name, values)
    charges = noether_charges(pair, L, report) if report.witnesses.alpha is not None else ()
    return pair, L, charges


def parse_set(text):
    return {k: F(v) for k, v in (item.split("=") for item in text.split(","))}


def assert_matches_oracle(e):
    assert el_exprs(e) == calculus_oracle.euler_lagrange(e)
    for tau in (False, True):
        assert dt_expr(e, tau=tau) == calculus_oracle.total_time_derivative(e, tau=tau)


@pytest.mark.parametrize("name", sorted(golden_sets()))
def test_euler_lagrange_and_time_derivative_match_the_oracle_on_the_fixtures(name):
    """Every fixture Lagrangian at each --set value of the benchmark's pools,
    and every Noether charge of it; the charges of the electric Lagrangians
    on translations_r2 carry tau, so D_t's d/d tau is checked too."""
    charges = with_tau = 0
    for text in golden_sets()[name]:
        _, L, ns = fixture_case(name, parse_set(text))
        assert_matches_oracle(L)
        for n in ns:
            assert_matches_oracle(n)
            with_tau += n.num.has_any_var(("tau",))
        charges += len(ns)
    assert charges or name == "l3_cylinder"
    assert with_tau or name != "translations_r2"


def test_a_denominator_the_derivative_annihilates_is_kept():
    """d/d(dz) leaves a velocity-free denominator alone, and D_t without tau
    one in tau alone: the quotient rule keeps it instead of squaring it."""
    e = P("dz^2/(1 + z^2)")
    assert quotient_rule(e.num, e.den, derivation(CYL, "dz"))[1] is e.den
    e = Expr(CYL, TP.var("dz"), TP.var("tau", 2) + TP.const(1))
    assert total_time_derivative(e)[1] is e.den
    assert to_string(dt_expr(e)) == "(ddz)/(tau^2 + 1)"
    assert to_string(dt_expr(e, tau=True)) == "(-2*dz*tau + ddz*tau^2 + ddz)/(tau^4 + 2*tau^2 + 1)"


# -- D_t in one pass against the stepwise sum of partial derivatives -------------

DT_CHART = Chart((("z", "line"), ("u", "line"), ("phi", "angle"), ("th", "angle")))
# line coordinates, velocities, accelerations and tau
DT_VARS = ("z", "u", "dz", "du", "dphi", "dth", "ddz", "ddu", "ddphi", "ddth", "tau")


@st.composite
def jet_monomials(draw):
    exps = draw(st.lists(st.integers(0, 3), min_size=len(DT_VARS), max_size=len(DT_VARS)))
    vars_ = tuple(sorted((n, e) for n, e in zip(DT_VARS, exps) if e))
    trig = tuple(
        (a, draw(st.sampled_from("sc")), draw(st.integers(1, 3)))
        for a in DT_CHART.angle_names if draw(st.booleans())
    )
    return vars_, trig


def jet_polys():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return st.dictionaries(jet_monomials(), coeffs, max_size=6).map(TP.from_vector)


def stepwise_time_derivative(ch, tp, tau):
    """dq^mu d/dq^mu + ddq^mu d/d(dq^mu) (+ d/d tau), one partial derivative
    per step, each times its factor and added to the running sum."""
    out = TP()
    for name in ch.names:
        out = out + TP.var(ch.velocity(name)) * derivation(ch, name)(tp)
        out = out + TP.var(ch.acceleration(name)) * derivation(ch, ch.velocity(name))(tp)
    if tau:
        out = out + derivation(ch, "tau")(tp)
    return out


@settings(max_examples=150, deadline=None)
@given(jet_polys(), st.booleans())
def test_one_pass_time_derivative_equals_the_stepwise_sum(tp, tau):
    """Random trig polynomials in line coordinates, velocities,
    accelerations, sin/cos factors of two angles and tau, with and without
    d/d tau."""
    assert time_derivation(DT_CHART, tau)(tp) == stepwise_time_derivative(DT_CHART, tp, tau)


EXPR_OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")


COUNTED_FIXTURES = [("galilean_r4", {"m": 1}), ("so3_sphere", {"m": 1, "g": 1})]


def count_expr_calls(monkeypatch, run):
    """{"ops": Expr operator calls, "built": Expr constructions} of run()."""
    calls = {"ops": 0, "built": 0}
    for attr in EXPR_OPERATORS + ("__init__",):
        def counted(*args, _raw=getattr(Expr, attr), _key="built" if attr == "__init__" else "ops"):
            calls[_key] += 1
            return _raw(*args)

        monkeypatch.setattr(Expr, attr, counted)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name, values", COUNTED_FIXTURES)
def test_euler_lagrange_and_time_derivative_build_one_expression_each(name, values, monkeypatch):
    """Each Euler-Lagrange component and each total time derivative is a
    (num, den) pair of trig polynomials: no Expr is built and no Expr
    operator runs, so the term-by-term path cannot come back unnoticed."""
    _, L, charges = fixture_case(name, values)

    def run():
        euler_lagrange(L)
        for e in (L, *charges):
            total_time_derivative(e, tau=True)

    assert count_expr_calls(monkeypatch, run) == {"ops": 0, "built": 0}


@pytest.mark.parametrize("name, values", COUNTED_FIXTURES)
def test_noether_charges_build_one_expression_per_charge(name, values, monkeypatch):
    """The charges and their conservation residuals are summed on (num, den)
    pairs: one Expr per charge, plus the velocity partials that the fresh
    Lagrangian keeps, and no Expr operator call."""
    pair, L, report = fixture_report(name, values)
    charges = []
    calls = count_expr_calls(monkeypatch, lambda: charges.extend(noether_charges(pair, L, report)))
    assert len(charges) == pair.algebra.dim
    assert calls == {"ops": 0, "built": len(charges) + len(pair.chart.names)}
