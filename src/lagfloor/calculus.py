"""Vector calculus on charts: Euler-Lagrange covectors, total time
derivatives, closedness, de Rham splitting and linear-ansatz potential
finding.

Forms are tuples of velocity-free expressions indexed by the chart
coordinates; a pair's vector fields are tuples of trig polynomials, which
``pairs`` reads.  Lagrangians are plain expressions in coordinates and
velocities; the Euler-Lagrange covector is the only place accelerations
appear.  The Euler-Lagrange covector and the total time derivative, which
only the Noether charges read, are (numerator, denominator) pairs of trig
polynomials, not expressions, so the charge sums never build one; so are
the two sides of the closedness test and of ``derham_split``'s
reconstruction check, which only test for zero.  Every derivative here is
``expr``'s one rule, ``TP.derive``, through ``expr.derivation`` (d/dq,
d/d(dq)) or ``expr.time_derivation`` (D_t).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from .expr import TP, TP_ONE, Chart, Expr, derivation, fraction_add, function_monomials, quotient_rule, time_derivation
from .exprspace import equation_rows, tp_lcm
from .linalg import InvariantViolation, solve_rows

F = Fraction


class NotClosed(InvariantViolation):
    pass


class AnsatzExhausted(Exception):
    """The remainder is closed but no potential exists within the ansatz."""


class OneForm:
    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: tuple[Expr, ...]):
        if len(components) != len(chart.names):
            raise ValueError("one component per chart coordinate is needed")
        for c in components:
            if not (c.chart is chart or c.chart == chart):
                raise ValueError("components must live on the form's chart")
            if not c.is_velocity_free():
                raise ValueError("components must be velocity-free")
        self.chart = chart
        self.components = components

    def __add__(self, other):
        return OneForm(self.chart, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return OneForm(self.chart, tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c):
        return OneForm(self.chart, tuple(x * c for x in self.components))

    def as_lagrangian(self) -> Expr:
        """The rank-1 Lagrangian w_mu * dq^mu identified with this form."""
        ch = self.chart
        out = Expr.const(ch, 0)
        for name, comp in zip(ch.names, self.components):
            out = out + comp * Expr.var(ch, ch.velocity(name))
        return out


def twoform_pairs(chart):
    """The coordinate pairs (mu, nu), mu < nu, in lexicographic order: the
    components of a 2-form, one per dq^mu ^ dq^nu."""
    n = len(chart.names)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def euler_lagrange(L: Expr) -> tuple[tuple[TP, TP], ...]:
    """Left-hand side of the motion equations of a rank-1 Lagrangian, one
    (numerator, denominator) pair of trig polynomials per chart coordinate;
    components may carry accelerations.

    Component mu is dL/dq^mu - D_t dL/d(dq^mu), with D_t = dq^nu d/dq^nu +
    ddq^nu d/d(dq^nu).  Each derivative is one quotient rule on numerators
    and denominators (a denominator that a derivative annihilates is kept,
    not squared), and the two are subtracted by ``fraction_add``; no
    expression is built.
    """
    if L.has_accelerations():
        raise ValueError("rank-1 Lagrangians only")
    ch = L.chart
    dt = time_derivation(ch)
    comps = []
    for name in ch.names:
        a, b = quotient_rule(L.num, L.den, derivation(ch, name))
        c, e = quotient_rule(*quotient_rule(L.num, L.den, derivation(ch, ch.velocity(name))), dt)
        comps.append(fraction_add(a, b, -c, e))
    return tuple(comps)


def d_el(f: Expr) -> Expr:
    """d_EL on functions: the full-derivative Lagrangian dq^mu df/dq^mu."""
    return gradient(f).as_lagrangian()


def total_time_derivative(e: Expr, tau=False) -> tuple[TP, TP]:
    """Chain-rule total derivative: q -> dq -> ddq (and tau -> 1 if enabled).

    One quotient rule on e's numerator and denominator, with D_t applied to
    each as a trig polynomial in one pass: the (numerator, denominator)
    pair of the result, no expression built."""
    return quotient_rule(e.num, e.den, time_derivation(e.chart, tau))


def gradient(f: Expr) -> OneForm:
    if not f.is_velocity_free():
        raise ValueError("the gradient needs a velocity-free function")
    ch = f.chart
    return OneForm(ch, tuple(f.partial(name) for name in ch.names))


def is_closed(w: OneForm) -> bool:
    """dw = 0: d w_j/dq^i = d w_i/dq^j for every i < j, each side one
    quotient rule on a component's numerator and denominator, compared by
    ``fraction_add``; no expression is built."""
    ch = w.chart
    diffs = [derivation(ch, name) for name in ch.names]
    for i, wi in enumerate(w.components):
        for j in range(i + 1, len(diffs)):
            wj = w.components[j]
            a, b = quotient_rule(wj.num, wj.den, diffs[i])
            c, e = quotient_rule(wi.num, wi.den, diffs[j])
            if not fraction_add(a, b, -c, e)[0].is_zero():
                return False
    return True


def default_ansatz(w: OneForm):
    """(degree, Fourier order, denominator) of the potential search.

    Degree = max line-degree of w (numerator and denominator) + 1, plus the
    denominator's degree.  d respects total degree in this algebra, so
    exact polynomial-trig forms have potentials within the bound; rational
    forms fix the denominator to a common multiple of the components'.
    """
    ch = w.chart
    deg = 0
    four = 0
    for c in w.components:
        deg = max(deg, c.num.degree_in(ch.line_names) + c.den.degree_in(ch.line_names))
        four = max(four, c.fourier_order())
    lcd = reduce(tp_lcm, (c.den for c in w.components if not c.den.is_one()), TP_ONE)
    return deg + lcd.degree_in(ch.line_names) + 1, four, lcd


# A process meets only a few distinct ansaetze: the default ansatz follows
# the degree, Fourier order and denominator of the form, and a stream over
# one family repeats them.  So a small bound keeps every one that recurs.
@lru_cache(maxsize=32)
def _potential_columns(ch: Chart, degree, fourier, den: TP):
    """The ansatz monomials m and, per m, the components of d(m/den) times
    den^2, (dm * den - m * d den) as trig polynomials: the columns of every
    potential search on this ansatz."""
    monos = tuple(function_monomials(ch, degree, fourier))
    ds = [derivation(ch, name) for name in ch.names]
    dden = [d(den) for d in ds]
    columns = []
    for m in monos:
        tp = TP({m: 1})
        columns.append(tuple(d(tp) * den - tp * dd for d, dd in zip(ds, dden)))
    return monos, tuple(columns)


def find_potential(w: OneForm) -> Expr | None:
    """Velocity-free f with df = w, searched over the default ansatz; exact.

    Absence only means "not found within the ansatz".  Requires w closed.
    """
    if not is_closed(w):
        raise NotClosed("potential search requires a closed form")
    ch = w.chart
    degree, fourier, den = default_ansatz(w)
    monos, columns = _potential_columns(ch, degree, fourier, den)
    nunk = len(monos)
    den2 = Expr(ch, den * den)
    rows = []
    for i, c in enumerate(w.components):
        terms = [(k, 1, col[i]) for k, col in enumerate(columns)]
        rows.extend(equation_rows(terms, (nunk, c * den2)))
    sol = solve_rows(rows, nunk)
    if sol is None:
        return None
    return Expr(ch, TP.from_vector({monos[k]: x for k, x in sorted(sol.items())})) / Expr(ch, den)


def harmonic_coefficient(comp: Expr) -> Fraction:
    """Fourier-constant, line-coordinate-free part of an angle component."""
    if comp.den.is_one():
        return comp.num.coeff(((), ()))
    return F(0)


def derham_split(w: OneForm):
    """Split a closed form into harmonic angle part plus an exact potential.

    Returns ({angle: coefficient}, potential).  Raises NotClosed or
    AnsatzExhausted (never guesses).  Closedness is checked once, by
    ``find_potential`` on the remainder: it differs from w by constant
    c * dphi terms, so it is closed exactly when w is.  The reconstruction
    df + c * dphi = w is checked exactly, component by component, on
    numerator and denominator pairs.
    """
    ch = w.chart
    harmonic = {}
    rem = w
    for a in ch.angle_names:
        idx = ch.names.index(a)
        c = harmonic_coefficient(w.components[idx])
        harmonic[a] = c
        if c:
            delta = [Expr.const(ch, 0)] * len(ch.names)
            delta[idx] = Expr.const(ch, c)
            rem = rem - OneForm(ch, tuple(delta))
    f = find_potential(rem)
    if f is None:
        raise AnsatzExhausted("closed remainder admits no potential within the ansatz")
    # exact reconstruction check: df/dq^mu + c_mu - w_mu = 0
    for name, comp in zip(ch.names, w.components):
        a, b = quotient_rule(f.num, f.den, derivation(ch, name))
        if harmonic.get(name):
            a = a + b.scale(harmonic[name])
        if not fraction_add(a, b, -comp.num, comp.den)[0].is_zero():
            raise InvariantViolation("derham_split reconstruction failed")
    return harmonic, f
