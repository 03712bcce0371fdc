import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor.calculus import OneForm, gradient, is_closed
from lagfloor.cecohom import cohomology
from lagfloor.expr import (
    TP,
    AnsatzSpec,
    EvaluationPole,
    Expr,
    fraction_const_value,
    function_monomials,
    parse_expr,
    to_string,
)
from lagfloor.liealg import catalog
from lagfloor.hierarchy import classify
from lagfloor.linalg import InvariantViolation, dense, kernel_of_rows
from lagfloor.pairs import (
    FunctionCochain,
    GMPair,
    NotACocycle,
    closedness_rows,
    coboundary,
    invariant_closed_forms,
    pi_images,
    restrict_cocycle,
    stability_frame,
    stability_subalgebra,
    validate_pair,
)
from lagfloor.problemfile import NotPolynomial, build_lagrangian, build_pair, load_problem_file, parse_problem_file

from calculus_oracle import (
    exterior_derivative,
    field_exprs,
    lie_derivative_lagrangian,
    lie_derivative_oneform,
    lie_derivative_scalar,
    lie_derivative_twoform,
)
from fixture_pairs import FIXTURES, ROOT, SCRIPT_ENV, SPIN1, SPIN2, fixture_pair, polynomial_module, restricted_at

F = Fraction

L3 = fixture_pair("l3_cylinder")
SO3R3 = fixture_pair("so3_r3")
SPHERE = fixture_pair("so3_sphere")
GAL = fixture_pair("galilean_r4")
POI = fixture_pair("poincare_c1")
TRANS2 = fixture_pair("translations_r2")
TRANS3 = fixture_pair("translations_r3")
STANDARD = [L3, SO3R3, SPHERE, GAL, POI, TRANS2, TRANS3]
# the test ids these pairs have always run under (pytest numbers the two
# "translations"), kept so that every test keeps its name
STANDARD_IDS = ["l3_cylinder", "so3_r3", "so3_sphere", "galilean_r4", "poincare_r4", "translations", "translations"]


def P(text, pair=L3):
    return parse_expr(pair.chart, text)


def lie(p, i, f):
    """X_i(f) from the pair's table, as an expression."""
    return Expr(p.chart, *p.action.lie(i, f.num, f.den))


def lie_lagrangian(p, i, L):
    """delta_i L from the pair's table, as an expression."""
    return Expr(p.chart, *p.action.lie_lagrangian(i, L.num, L.den))


def scalar_coboundary(p, f):
    """(delta f)_i = X_i f."""
    return FunctionCochain(p, tuple(lie(p, i, f) for i in range(p.algebra.dim)))


def oneform(pair, *comps):
    return OneForm(pair.chart, tuple(P(c, pair) for c in comps))


# -- pair validation ------------------------------------------------------------

@pytest.mark.parametrize("pair", STANDARD[:-1], ids=STANDARD_IDS[:-1])
def test_standard_pairs_validate(pair):
    assert validate_pair(pair).ok


def test_broken_pair_reports_failures():
    from lagfloor.pairs import GMPair

    bad = GMPair(L3.algebra, L3.chart, (L3.fields[0], L3.fields[2], L3.fields[1]))
    report = validate_pair(bad)
    assert not report.ok
    assert report.violations


# the components that tests/test_calculus.py::random_field draws
CYLINDER_COMPONENTS = ("0", "1", "z", "z^2", "sin(phi)", "cos(phi)*z")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(CYLINDER_COMPONENTS), min_size=4, max_size=4))
def test_table_bracket_matches_the_expression_bracket(comps):
    """Two random polynomial fields on the cylinder as an abelian pair, so
    no structure term: the table's commutator, the ``coboundary`` of the
    cochain k -> X_k^mu at (0, 1) for each mu, equals the expression
    bracket of calculus_oracle component by component, and validate_pair
    fails exactly when it is nonzero."""
    ch = L3.chart
    fields = (tuple(P(c).num for c in comps[:2]), tuple(P(c).num for c in comps[2:]))
    pair = GMPair(catalog("abelian", n=2), ch, fields)
    x, y = field_exprs(pair)
    want = x.bracket(y).components
    got = [s for mu in range(len(ch.names)) for _, _, s in coboundary(pair, [x[mu] for x in fields])]
    assert len(got) == len(want)
    for r, w in zip(got, want):
        assert Expr(ch, r) == w
    assert validate_pair(pair).ok == all(w.is_zero() for w in want)


# -- pi map -----------------------------------------------------------------------

def pi_of(pair, w):
    """pi(w) through pi_images, for a closed polynomial 1-form w: its
    elementary forms (mu, m) are the units, and its coefficients the vector."""
    units, vec = [], {}
    for mu, comp in enumerate(w.components):
        assert comp.den.is_one()
        for m, c in comp.num.vector().items():
            vec[len(units)] = c
            units.append((mu, m))
    (images,) = pi_images(pair, units, [vec])
    return FunctionCochain(pair, tuple(Expr(pair.chart, t) for t in images))


def test_pi_of_dphi_on_cylinder():
    out = pi_of(L3, oneform(L3, "0", "1"))
    assert out.components[0].is_zero()
    assert out.components[1] == P("z")
    assert out.components[2] == P("1")


def test_pi_of_gradient_is_coboundary():
    f = P("z^2*sin(phi)")
    out = pi_of(L3, gradient(f))
    want = scalar_coboundary(L3, f)
    assert all((a - b).is_zero() for a, b in zip(out.components, want.components))


def test_pi_naturality_random_closed_forms():
    rng = random.Random(31)
    monos = ["1", "z", "z^2", "sin(phi)", "cos(2*phi)", "z*cos(phi)"]
    for _ in range(20):
        f = P("0")
        for m in monos:
            if rng.random() < 0.5:
                f = f + P(m) * F(rng.randint(-3, 3), rng.randint(1, 2))
        c = F(rng.randint(-2, 2))
        w = gradient(f)
        comps = list(w.components)
        comps[1] = comps[1] + c  # harmonic c*dphi keeps it closed
        w = OneForm(L3.chart, tuple(comps))
        assert is_closed(w)
        out = pi_of(L3, w)  # pi_images checks both naturality identities
        assert out.is_cocycle()


@pytest.mark.parametrize("pair", STANDARD, ids=STANDARD_IDS)
def test_action_table_matches_lie_derivatives(pair):
    """Every table entry, a trig polynomial read back as an Expr,
    against the symbolic Lie derivative of the elementary function or form,
    at the fixtures' ansatz (degree 3, Fourier order 3); and d L_X w = L_X d w
    for every elementary 1-form w, the identity by which the invariance
    complex induces the action on 2-forms, at degree 2 (1 on four
    coordinates), Fourier order 2."""
    ch = pair.chart
    zero = Expr.const(ch, 0)

    def expr(d):
        assert isinstance(d, TP)
        return Expr(ch, d)

    def unit(mu, me):
        return OneForm(ch, tuple(me if nu == mu else zero for nu in range(len(ch.names))))

    for m in function_monomials(ch, 3, 3):
        me = Expr(ch, TP({m: 1}))
        for mu, name in enumerate(ch.names):
            assert expr(pair.action.partial(mu, m)) == me.partial(name)
        for i, x in enumerate(field_exprs(pair)):
            assert expr(pair.action.scalar(i, m)) == lie_derivative_scalar(x, me)
            for mu in range(len(ch.names)):
                image = OneForm(ch, tuple(expr(d) for d in pair.action.oneform(i, mu, m)))
                assert image.components == lie_derivative_oneform(x, unit(mu, me)).components
                assert expr(pair.action.contraction(i, mu, m)) == me * x.components[mu]
    # 2-form Lie derivatives are the costliest to build symbolically, so a
    # lower degree; the fields of the 4-coordinate pairs are linear, and
    # degree 1 already meets every term of theirs
    for m in function_monomials(ch, 2 if len(ch.names) <= 3 else 1, 2):
        me = Expr(ch, TP({m: 1}))
        for x in field_exprs(pair):
            for mu in range(len(ch.names)):
                w = unit(mu, me)
                d_of_lie = exterior_derivative(lie_derivative_oneform(x, w))
                lie_of_d = lie_derivative_twoform(x, exterior_derivative(w))
                assert d_of_lie.components == lie_of_d.components


def test_action_table_is_not_part_of_pair_equality():
    """A pair built again from its file equals L3 in everything its
    constructor takes, its algebra's constants included (the catalog
    builds a new table at each call), yet holds an action table of its
    own, not the one whose entries L3 has filled."""

    def value(p):
        g = p.algebra
        return ((g.basis_names, g.c), p.chart, p.fields, p.transitive, p.stability_sections, p.sample_points)

    again = fixture_pair("l3_cylinder")
    L3.action.scalar(0, ((("z", 1),), ()))
    assert value(again) == value(L3)
    assert again.action is not L3.action


def _random_function(pair, seed, degree=3, fourier=1):
    rng = random.Random(seed)
    ch = pair.chart
    f = Expr.const(ch, 0)
    for m in function_monomials(ch, degree, fourier):
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            f = f + Expr(ch, TP({m: 1})) * c
    return f


@pytest.mark.parametrize("pair", STANDARD, ids=STANDARD_IDS)
def test_action_lie_matches_lie_derivative_scalar(pair):
    """Polynomial and trig-polynomial inputs go through the monomial images,
    rational ones through the quotient rule on the images of numerator and
    denominator; both give the symbolic Expr.  The rational inputs of the
    second list are compared as values only: there the quotient rule may
    cancel a factor that the symbolic sum keeps."""
    a, b = pair.chart.line_names[0], pair.chart.line_names[-1]
    printed_alike = [_random_function(pair, 7), P(f"{a}*{b}^2 - 3", pair), P(f"{b}/(1 + {a}^2)", pair)]
    rational = []
    if pair is L3:
        printed_alike.append(P("z*sin(phi)"))
        rational.append(P("1/(1 + z^2)"))
    if pair is SPHERE:
        rational += [comp for section in SPHERE.stability_sections for comp in section]
    for i, x in enumerate(field_exprs(pair)):
        for f in printed_alike:
            assert to_string(lie(pair, i, f)) == to_string(lie_derivative_scalar(x, f))
        for f in rational:
            assert not f.den.is_one()
            assert lie(pair, i, f) == lie_derivative_scalar(x, f)


def test_rational_field_component_is_refused_at_build():
    """X_2 = dz/(1 + z^2) + z dphi has no trig polynomial components: the
    pair's one conversion of its fields raises NotPolynomial when the pair
    is built, before any table entry or command reads a field."""
    e2 = 'e2 = ["0", "z"]'
    text = (FIXTURES / "l3_cylinder.toml").read_text()
    assert e2 in text
    pf = parse_problem_file(text.replace(e2, 'e2 = ["1/(1 + z^2)", "z"]'))
    with pytest.raises(NotPolynomial, match="monomial coordinates require polynomial components"):
        build_pair(pf)


# -- the prolonged action: delta_i L from the table ---------------------------

FAMILIES = ["galilean_r4", "l3_cylinder", "so3_r3", "so3_sphere", "translations_r2", "translations_r3"]


def family_lagrangian(name, rng):
    """The fixture's [lagrangian] at a random nonzero rational draw of its
    parameters."""
    pf = load_problem_file(FIXTURES / f"{name}.toml")
    values = {p: F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4)) for p in pf.section("lagrangian")["params"]}
    return build_lagrangian(pf, values)


def assert_lie_lagrangian_matches(pair, L, printed=True):
    """delta_i L from the table against the symbolic prolonged derivative,
    by value and, unless ``printed`` is false, by printed form."""
    for i, x in enumerate(field_exprs(pair)):
        got, want = lie_lagrangian(pair, i, L), lie_derivative_lagrangian(x, L)
        assert got == want
        if printed:
            assert to_string(got) == to_string(want)


@pytest.mark.parametrize("name", FAMILIES)
def test_lie_lagrangian_matches_the_symbolic_derivative_on_the_shipped_families(name):
    """Every generator of every shipped pair with a Lagrangian family, at
    random parameter draws; the split prints what this derivative gives, so
    the printed forms must agree too."""
    pair = fixture_pair(name)
    rng = random.Random(name)
    for _ in range(4):
        assert_lie_lagrangian_matches(pair, family_lagrangian(name, rng))


def test_lie_lagrangian_on_a_trig_lagrangian():
    """On the cylinder X_2 = z d/dphi has D_t X_2^phi = dz, so both the
    coordinate and the velocity terms of the prolonged field meet Fourier
    factors."""
    L = P("sin(phi)*dz^2 + z*cos(2*phi)*dphi + sin(phi)*cos(phi)*dphi/dz + z^2*dphi^2/(1 + z^2)")
    assert_lie_lagrangian_matches(L3, L)
    assert lie_lagrangian(L3, 1, P("dphi")) == P("dz")


@st.composite
def lagrangian_terms(draw, pair, trig_free=False, max_terms=4):
    """A trig polynomial in the chart's line coordinates and velocities, with
    Fourier factors of order <= 2 on its angles unless ``trig_free``."""
    ch = pair.chart
    names = sorted(ch.line_names + ch.velocity_names)
    monomial = st.tuples(
        st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)),
        st.tuples(*(st.one_of(st.none(), st.tuples(st.sampled_from("sc"), st.integers(1, 2)))
                    for _ in ch.angle_names)),
    ).map(lambda mt: (
        tuple((n, e) for n, e in zip(names, mt[0]) if e),
        () if trig_free else tuple(sorted((a, *f) for a, f in zip(ch.angle_names, mt[1]) if f)),
    ))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return TP.from_vector(draw(st.dictionaries(monomial, coeffs, max_size=max_terms)))


HYPOTHESIS_PAIRS = [L3, SPHERE, GAL, TRANS3]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYPOTHESIS_PAIRS).flatmap(lambda p: st.tuples(st.just(p), lagrangian_terms(p))))
def test_lie_lagrangian_matches_on_random_polynomial_lagrangians(case):
    pair, num = case
    assert_lie_lagrangian_matches(pair, Expr(pair.chart, num))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYPOTHESIS_PAIRS).flatmap(lambda p: st.tuples(
    st.just(p), lagrangian_terms(p), lagrangian_terms(p, trig_free=True, max_terms=3).filter(lambda d: not d.is_zero()))))
def test_lie_lagrangian_matches_on_random_rational_lagrangians(case):
    """By value only: the quotient rule on the table's images may cancel a
    factor that the symbolic sum keeps, as for ``lie``."""
    pair, num, den = case
    assert_lie_lagrangian_matches(pair, Expr(pair.chart, num, den), printed=False)


def test_lie_lagrangian_takes_rank_1_lagrangians_only():
    """An explicit raise, as in the oracle's ``lie_derivative_lagrangian``; the module
    scan of test_no_asserts keeps it one under python -O."""
    with pytest.raises(ValueError, match="rank-1 Lagrangians only"):
        lie_lagrangian(L3, 0, P("ddz*dz"))


@pytest.mark.parametrize("name", FAMILIES)
def test_a_second_classify_of_a_family_adds_no_prolonged_image(name):
    """Parameter values of one family share their monomials, so once one
    member is classified (the split, and on floor 4 the check of L_inv),
    another member reads every prolonged image from the table."""
    pair = fixture_pair(name)
    rng = random.Random(name)
    classify(pair, family_lagrangian(name, rng))
    filled = len(pair.action._prolonged)
    assert filled
    classify(pair, family_lagrangian(name, rng))
    assert len(pair.action._prolonged) == filled


def test_pi_images_agree_with_the_contraction():
    """pi_images against (pi w)_i = sum_mu w_mu X_i^mu, contracted here."""
    ch = L3.chart
    units = [(mu, m) for mu in range(2) for m in function_monomials(ch, 1, 1)]
    # dphi, d(z sin(phi)) = sin(phi) dz + z cos(phi) dphi, and dz
    forms = [oneform(L3, "0", "1"), oneform(L3, "sin(phi)", "z*cos(phi)"), oneform(L3, "1", "0")]
    basis = []
    for w in forms:
        v = {}
        for mu, comp in enumerate(w.components):
            for m, c in comp.num.vector().items():
                v[units.index((mu, m))] = c
        basis.append(v)
    for w, images in zip(forms, pi_images(L3, units, basis)):
        for x, terms in zip(field_exprs(L3), images):
            want = sum((a * b for a, b in zip(w.components, x.components)), P("0"))
            assert want.den.is_one() and want.num == terms


def test_pi_certificates_raise_under_python_O():
    """Explicit checks, so python -O keeps them: a non-closed form and a
    tampered field each raise InvariantViolation from pi_images."""
    script = textwrap.dedent(
        """
        from lagfloor.expr import TP, parse_expr
        from lagfloor.linalg import InvariantViolation
        from lagfloor.pairs import GMPair, pi_images
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        L3 = fixture_pair("l3_cylinder")
        ch = L3.chart
        z_dphi = [(1, ((("z", 1),), ()))]  # z dphi is not closed
        dphi = [(1, ((), ()))]
        tampered = GMPair(L3.algebra, ch, (
            L3.fields[0],
            (TP(), parse_expr(ch, "2*z").num),
            L3.fields[2],
        ))
        cases = [
            lambda: pi_images(L3, z_dphi, [{0: 1}]),
            lambda: pi_images(tampered, dphi, [{0: 1}]),
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
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=SCRIPT_ENV,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised:") for line in lines), res.stdout


def test_closure_certificates_raise_under_python_O():
    """A velocity-dependent Lie-derivative argument or cochain component
    raises InvariantViolation under python -O."""
    script = textwrap.dedent(
        """
        from lagfloor.expr import Expr, parse_expr
        from lagfloor.linalg import InvariantViolation
        from lagfloor.pairs import FunctionCochain
        from fixture_pairs import fixture_pair

        assert False, "asserts must be stripped under -O"
        L3 = fixture_pair("l3_cylinder")
        ch = L3.chart
        dz = Expr.var(ch, ch.velocity("z"))
        zero = parse_expr(ch, "0")
        cases = [
            lambda: L3.action.lie(0, dz.num, dz.den),
            lambda: FunctionCochain(L3, (zero, dz, zero)),
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
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=SCRIPT_ENV,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised:") for line in lines), res.stdout


def test_pi_images_pass_on_the_closed_basis_of_each_pair():
    for pair in (L3, SPHERE, TRANS2):
        ch = pair.chart
        units = [(mu, m) for mu in range(len(ch.names)) for m in function_monomials(ch, 2, 1)]
        closed = kernel_of_rows(closedness_rows(pair, function_monomials(ch, 2, 1)), len(units))
        assert len(pi_images(pair, units, closed.basis)) == closed.dim > 0


def symbolic_delta(pair, alpha):
    """(delta alpha)_ij for i < j, from the symbolic Lie derivatives of the
    oracle and the structure constants, as expressions."""
    g, xs, comps = pair.algebra, field_exprs(pair), alpha.components
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            v = lie_derivative_scalar(xs[i], comps[j]) - lie_derivative_scalar(xs[j], comps[i])
            for k in range(g.dim):
                if g.coeff(i, j, k):
                    v = v - comps[k] * g.coeff(i, j, k)
            out.append(((i, j), v))
    return out


# cochains over several denominators: equal, one a multiple of another, and
# coprime, so the common denominator D is a product and X_i(D) is nonzero
DELTA_COCHAINS = [
    (L3, ("1/(1 + z^2)", "z*sin(phi)/(1 + z^2)^2", "3/2")),
    (L3, ("cos(phi)/(2 + z)", "z/(1 + z^2)", "z^2 - 1/3")),
    (L3, ("z^2/3 + sin(2*phi)", "0", "z")),
    (SPHERE, ("u/(1 + u^2 + v^2)", "1/(1 + v^2)", "u*v/2")),
    (GAL, ("x1/(1 + t^2)", "0", "x2", "1/(1 + t^2)", "0", "t")),
]


def padded_cochain(pair, comps):
    """The cochain of the given component strings, zero after them."""
    comps = comps + ("0",) * (pair.algebra.dim - len(comps))
    return FunctionCochain(pair, tuple(P(c, pair) for c in comps))


@pytest.mark.parametrize("pair, comps", DELTA_COCHAINS)
def test_delta_matches_the_symbolic_coboundary(pair, comps):
    """FunctionCochain.delta, computed on trig polynomials over the common
    denominator, equals the coboundary of the symbolic Lie derivatives."""
    alpha = padded_cochain(pair, comps)
    got = [((i, j), Expr(pair.chart, num, den)) for i, j, num, den in alpha.delta()]
    assert [ij for ij, _ in got] == [ij for ij, _ in symbolic_delta(pair, alpha)]
    for (ij, a), (_, b) in zip(got, symbolic_delta(pair, alpha)):
        assert a == b, ij


@pytest.mark.parametrize("pair, comps", DELTA_COCHAINS)
def test_the_coboundary_of_a_rational_function_is_a_cocycle(pair, comps):
    """delta(delta f) = 0 for f rational: the correction term over D keeps
    every component of delta(X f) zero."""
    f = P(comps[0], pair) + P(comps[1], pair)
    assert scalar_coboundary(pair, f).is_cocycle()
    assert not padded_cochain(pair, comps).is_cocycle()


def test_monopole_contraction_consistency():
    # alpha = (-g u, -g v, g) restricted against the radial section gives -g
    g = F(3)
    alpha = FunctionCochain(
        SPHERE, (P("-3*u", SPHERE), P("-3*v", SPHERE), P("3", SPHERE))
    )
    assert alpha.is_cocycle()
    values = restricted_at(SPHERE, alpha, SPHERE.sample_points[0])
    assert list(values.values()) == [-g]


# -- modules on action-closed families ---------------------------------------------

def test_closure_of_z_on_cylinder():
    """z alone is not closed (a generator maps it to 1); with 1 it spans a
    2-dimensional module."""
    with pytest.raises(InvariantViolation, match="not closed"):
        polynomial_module(L3, ["z"])
    assert polynomial_module(L3, ["z", "1"]).dim == 2


def test_closure_spin1_on_r3():
    module = polynomial_module(SO3R3, SPIN1)
    assert module.dim == 3
    h1 = cohomology(SO3R3.algebra, module, 1)
    h2 = cohomology(SO3R3.algebra, module, 2)
    assert h1.dim == 0 and h2.dim == 0  # Whitehead at spin 1


def test_closure_spin2_whitehead():
    module = polynomial_module(SO3R3, SPIN2)
    assert module.dim == 5
    assert cohomology(SO3R3.algebra, module, 1).dim == 0
    assert cohomology(SO3R3.algebra, module, 2).dim == 0


# families and action matrices, one row-major tuple per generator
PINNED_CLOSURES = [
    (L3, ["z", "1"], [(0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0)]),
    (SO3R3, SPIN1, [
        (0, 0, 0, 0, 0, -1, 0, 1, 0),
        (0, -1, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 1, 0, 0),
    ]),
    (SO3R3, SPIN2, [
        (0, 0, -1, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, -2, 0, 0, 0, 1, 0),
        (0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, -4, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0),
        (0, 4, 0, 0, 2, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0),
    ]),
]


@pytest.mark.parametrize("pair, family, action", PINNED_CLOSURES, ids=["l3_z", "spin1", "spin2"])
def test_closure_basis_and_matrices_pinned(pair, family, action):
    assert [m.entries for m in polynomial_module(pair, family).action] == action


# -- invariant closed forms ---------------------------------------------------------

def _proportional(w, v):
    """w = c v for a nonzero constant c."""
    k = next(k for k, comp in enumerate(v.components) if not comp.is_zero())
    q = w.components[k] / v.components[k]
    c = fraction_const_value(q.num, q.den)
    return c is not None and c != 0 and w.components == v.scale(c).components


def test_invariant_forms_cylinder():
    basis = invariant_closed_forms(L3, AnsatzSpec(3, 3))
    assert len(basis) == 1 and _proportional(basis[0], gradient(P("z")))


def test_invariant_forms_translations():
    basis = invariant_closed_forms(TRANS2, AnsatzSpec(2, 0))
    dq = [gradient(P(q, TRANS2)) for q in ("q1", "q2")]
    assert len(basis) == 2
    assert all(_proportional(w, d) for w, d in zip(basis, dq))


def test_invariant_forms_so3_r3_radial():
    # the only closed invariant form is d(x.x), the differential of an invariant
    basis = invariant_closed_forms(SO3R3, AnsatzSpec(2, 0))
    assert len(basis) == 1
    assert _proportional(basis[0], gradient(P("x1^2 + x2^2 + x3^2", SO3R3)))


# -- stability subalgebras ---------------------------------------------------------------

def test_stability_cylinder_is_e2_minus_z_e3():
    z0 = F(1, 2)
    stab = stability_subalgebra(L3, {"z": z0, "phi": (F(3, 5), F(4, 5))})
    assert stab.dim == 1
    v = stab.basis[0]
    # proportional to e2 - z0 e3
    assert 0 not in v and v[1] != 0 and v[2] == -z0 * v[1]


def test_stability_translations_trivial():
    stab = stability_subalgebra(TRANS2, TRANS2.sample_points[0])
    assert stab.dim == 0


def test_stability_so3_r3_is_rotation_axis():
    pt = {"x1": F(1), "x2": F(2), "x3": F(2)}
    stab = stability_subalgebra(SO3R3, pt)
    assert stab.dim == 1
    v = dense(stab.basis[0], 3)
    # proportional to (x1, x2, x3)
    assert v[1] * F(1) == v[0] * F(2) and v[2] * F(1) == v[0] * F(2)


def test_stability_constant_dim_along_orbits():
    for pair in (L3, SPHERE, TRANS2, GAL, POI):
        dims = {stability_subalgebra(pair, pt).dim for pt in pair.sample_points}
        assert len(dims) == 1


def test_galilean_stability_is_six_dimensional():
    stab = stability_subalgebra(GAL, GAL.sample_points[0])
    assert stab.dim == 6


# -- cocycle restriction -----------------------------------------------------------------

def test_restrict_l3_cocycle_gives_b():
    a, b = F(2), F(5)
    alpha = FunctionCochain(L3, (P("0"), P("2*z + 5"), P("2")))
    values = restricted_at(L3, alpha, L3.sample_points[0])
    assert list(values.values()) == [b]
    assert (F(0), F(1), -L3.sample_points[0]["z"]) in values


def test_restrict_coboundary_is_zero():
    f = P("z^2*cos(phi)")
    cob = scalar_coboundary(L3, f)
    values = restricted_at(L3, cob, L3.sample_points[1])
    assert all(v == 0 for v in values.values())


def test_restriction_skips_a_pole_of_the_cocycle():
    """delta(sin(phi)/(2z - 1)) has a pole at p1 (z = 1/2): the restriction
    has no entry there and restricts to zero at p2 and p3."""
    cob = scalar_coboundary(L3, P("sin(phi)/(2*z - 1)"))
    entries = restrict_cocycle(L3, cob)
    assert [point for (point, _, _), _ in entries] == list(L3.sample_points[1:])
    assert [values for _, values in entries] == [[0], [0]]


def test_frames_skip_a_pole_of_the_sections():
    """The section of so3_sphere_section_pole has a pole at p1: the pair's
    frames are those at p2 and p3."""
    pair = build_pair(load_problem_file(ROOT / "tests" / "problems" / "so3_sphere_section_pole.toml"))
    assert [point for point, _, _ in pair.frames] == list(pair.sample_points[1:])
    with pytest.raises(EvaluationPole):
        stability_frame(pair, pair.sample_points[0])


def test_restrict_descends_to_cohomology():
    alpha = FunctionCochain(L3, (P("0"), P("2*z + 5"), P("2")))
    cob = scalar_coboundary(L3, P("z*sin(phi)"))
    shifted = FunctionCochain(L3, tuple(a + b for a, b in zip(alpha.components, cob.components)))
    v1 = restricted_at(L3, alpha, L3.sample_points[0])
    v2 = restricted_at(L3, shifted, L3.sample_points[0])
    assert list(v1.values()) == list(v2.values())


def test_restrict_requires_cocycle():
    # delta(bad)_{12} = -c^3_{12} * z = -z != 0
    bad = FunctionCochain(L3, (P("0"), P("0"), P("z")))
    assert not bad.is_cocycle()
    with pytest.raises(NotACocycle):
        restrict_cocycle(L3, bad)


def test_constant_cocycle_values_on_stability():
    # Z^1(l3) restricted to the stability line: t(e2 - z e3) = t2, all of R
    _, vals = stability_frame(L3, L3.sample_points[0])
    assert vals.dim == 1
    # for so3 there are no constant cocycles: the value space is zero
    _, vals = stability_frame(SPHERE, SPHERE.sample_points[0])
    assert vals.dim == 0


def test_stability_frame_without_sections_is_the_kernel_basis():
    """so3_r3 with its section dropped: the frame is the reduced-echelon
    kernel basis, the rotation axis, a coboundary restricts to zeros on
    it, and so3 has no constant cocycles to account for any value."""
    bare = GMPair(SO3R3.algebra, SO3R3.chart, SO3R3.fields, SO3R3.transitive, None, SO3R3.sample_points)
    pt = bare.sample_points[0]
    vecs, accounted = stability_frame(bare, pt)
    assert vecs == list(stability_subalgebra(bare, pt).basis) and len(vecs) == 1
    assert accounted.dim == 0
    values = restricted_at(bare, scalar_coboundary(bare, P("x1^2*x2 + x3", bare)), pt)
    assert list(values) == [dense(vecs[0], 3)] and list(values.values()) == [0]


# the stabilizer of Galilean boosts and rotations at the first sample point
GAL_STAB = [dense(v, GAL.algebra.dim) for v in stability_subalgebra(GAL, GAL.sample_points[0]).basis]


@pytest.mark.parametrize("pair, sections, says", [
    # e1 is no multiple of (x1, x2, x3) at p1
    (SO3R3, (("1", "0", "0"),), "section does not vanish at the point"),
    (SO3R3, (("x1", "x2", "x3"), ("2*x1", "2*x2", "2*x3")), "sections must span the stability subalgebra"),
    # six sections for a six-dimensional stabilizer, but two of them equal
    (GAL, [GAL_STAB[0], *GAL_STAB[:-1]], "sections must span the stability subalgebra"),
], ids=["not-vanishing", "too-many", "dependent"])
def test_stability_frame_checks_the_sections(pair, sections, says):
    """Every reader of the frame runs the section checks: the restriction
    and the K3 certificate alike."""
    from lagfloor.hierarchy import _certify_k3

    parsed = tuple(tuple(P(str(c), pair) for c in s) for s in sections)
    bad = GMPair(pair.algebra, pair.chart, pair.fields, pair.transitive, parsed, pair.sample_points)
    pt = bad.sample_points[0]
    cocycle = scalar_coboundary(bad, P("*".join(bad.chart.names[:2]), bad))
    for read in (
        lambda: stability_frame(bad, pt),
        lambda: restrict_cocycle(bad, cocycle),
        lambda: _certify_k3(bad, 1, (cocycle,)),
    ):
        with pytest.raises(InvariantViolation, match=says):
            read()
