"""Multi-angle coverage: translations acting on the 2-torus.

Every angle-related code path (harmonic extraction per angle, K1 as a true
tensor product, Fourier-closed truncations of the invariance complex) gets
exercised with two independent circles at once.
"""

from fractions import Fraction

import pytest

from lagfloor.calculus import (
    OneForm,
    d_el,
    derham_split,
    euler_lagrange,
    gradient,
    total_time_derivative,
)
from lagfloor.expr import TP, Chart, Expr, parse_expr
from lagfloor.hierarchy import (
    ClassifyOptions,
    build_invariance_double_complex,
    classify,
    k_spaces,
    noether_charges,
)
from lagfloor.liealg import catalog
from lagfloor.pairs import GMPair, validate_pair
from lagfloor.spectral import abutment_check, page

import calculus_oracle

F = Fraction

T2 = Chart((("a", "angle"), ("b", "angle")))


def torus_pair():
    fields = ((TP.const(1), TP()), (TP(), TP.const(1)))
    points = (
        {"a": (F(3, 5), F(4, 5)), "b": (F(0), F(1))},
        {"a": (F(0), F(-1)), "b": (F(-4, 5), F(3, 5))},
        {"a": (F(1), F(0)), "b": (F(5, 13), F(12, 13))},
    )
    return GMPair(catalog("abelian", n=2), T2, fields, True, (), points)


PAIR = torus_pair()


def P(text):
    return parse_expr(T2, text)


def test_pair_validates():
    assert validate_pair(PAIR).ok


def test_derham_split_two_angles():
    w = gradient(P("sin(a)*cos(b)"))
    comps = list(w.components)
    comps[0] = comps[0] + 2
    comps[1] = comps[1] - 3
    harmonic, pot = derham_split(OneForm(T2, tuple(comps)))
    assert harmonic == {"a": F(2), "b": F(-3)}
    assert gradient(pot).components == gradient(P("sin(a)*cos(b)")).components


def test_k_spaces_torus():
    rep = k_spaces(PAIR, ClassifyOptions(degree=0, fourier=2))
    # K1 = H^1(T^2) (x) H^1(R^2) is honestly 2 x 2
    assert rep.dims == (2, 4, 1, 0, 0)


def test_classify_fourier_lagrangian_floor4():
    L = P("da^2 + db^2") + d_el(P("sin(a)*cos(b)"))
    rep = classify(PAIR, L, ClassifyOptions(degree=0, fourier=2))
    assert (rep.floor, rep.sign) == (4, "+")


def test_classify_constant_form_is_invariant_floor4():
    # constant-coefficient forms are translation-invariant on the nose
    L = P("da + 2*db")
    rep = classify(PAIR, L, ClassifyOptions(degree=0, fourier=2))
    assert (rep.floor, rep.sign) == (4, "+")


def test_nonclosed_variation_form_is_caught():
    # delta_{e2}(sin(b) da) = cos(b) da, which is not closed:
    # d(cos(b) da) = sin(b) da^db != 0
    L = P("sin(b)*da")
    rep = classify(PAIR, L, ClassifyOptions(degree=0, fourier=2))
    assert rep.status == "not_weakly_invariant"
    gen, residue = rep.failure
    assert gen == "e2"
    assert isinstance(residue, OneForm)


def test_invariance_complex_on_torus():
    dc = build_invariance_double_complex(PAIR, ClassifyOptions(degree=0, fourier=2))
    p2 = page(dc, 2)
    # E_2^{p,0} = H^p(R^2-translations) = (1, 2, 1)
    assert p2.dim(0, 0) == 1
    assert p2.dim(1, 0) == 2
    assert p2.dim(2, 0) == 1
    assert abutment_check(dc).ok
    # Fourier modes survive the truncation shrink: the function column is
    # the full Fourier space, closed under translations; p = 0 has one
    # cochain tuple, so cell (0, 0) is the function column's dimension
    assert dc.dims[0][0] == 25  # (1 + 2*2)^2 monomials at fourier = 2


@pytest.mark.parametrize("text", [
    "da^2 + db^2 + cos(a)*cos(b)*da - sin(a)*sin(b)*db",  # da^2 + db^2 + d_EL(sin(a)*cos(b))
    "da + 2*db",
    "sin(b)*da",
    "da^2*cos(2*a)/(2 + sin(b))",
    "da^2 + db^2 - cos(a)*da/(2 + sin(a))^2",  # da^2 + db^2 + d_EL(1/(2 + sin(a)))
])
def test_euler_lagrange_and_time_derivative_match_the_oracle(text):
    """The trig Lagrangians above, two over a trig denominator, and the
    Noether charges of those that reach phi_1 = 0, against the term-by-term
    oracle.  The charges are also the term-by-term sums
    X_i^mu dL/d(dq^mu) - alpha_i - t_i tau; on d_EL(1/(2 + sin(a))) the
    trig denominators divide neither way, so the charge sums cross-multiply."""
    L = P(text)
    rep = classify(PAIR, L, ClassifyOptions(degree=0, fourier=2))
    charges = noether_charges(PAIR, L, rep) if rep.witnesses.alpha is not None else ()
    for i, n in enumerate(charges):
        want = -rep.witnesses.alpha[i] - Expr.var(T2, "tau") * rep.psi_class.data[i]
        for x, name in zip(PAIR.fields[i], T2.names):
            want = want + Expr(T2, x) * L.partial(T2.velocity(name))
        assert n == want
    for e in (L, *charges):
        assert tuple(Expr(e.chart, *c) for c in euler_lagrange(e)) == calculus_oracle.euler_lagrange(e)
        for tau in (False, True):
            dt = Expr(e.chart, *total_time_derivative(e, tau=tau))
            assert dt == calculus_oracle.total_time_derivative(e, tau=tau)
