"""Symbolic calculus on expressions, the plain references that the package
is checked against.

The term-by-term Euler-Lagrange covector and total time derivative are the
references of ``calculus.euler_lagrange`` and
``calculus.total_time_derivative``: every partial derivative, product and
sum is its own reduced ``Expr``.  The Lie derivatives of functions, 1-forms,
2-forms and rank-1 Lagrangians along a vector field, and the exterior
derivative of a 1-form, are the references of the pair's action table
(``pairs.ActionTable``), which the commands read instead.  The commutator
of two vector fields written as expressions, ``VectorFieldExpr.bracket``,
is the reference of ``pairs.validate_pair``, which reads each component of
the brackets as the table's ``pairs.coboundary`` of the fields' components.
"""

from dataclasses import dataclass

from lagfloor.calculus import OneForm, twoform_pairs
from lagfloor.expr import Chart, Expr
from lagfloor.linalg import InvariantViolation


def euler_lagrange(L):
    """Components dL/dq^mu - (d2L/dq^nu d(dq^mu)) dq^nu
    - (d2L/d(dq^nu) d(dq^mu)) ddq^nu."""
    ch = L.chart
    comps = []
    for name in ch.names:
        dLdv = L.partial(ch.velocity(name))
        acc = L.partial(name)
        for nname in ch.names:
            acc = acc - dLdv.partial(nname) * Expr.var(ch, ch.velocity(nname))
            acc = acc - dLdv.partial(ch.velocity(nname)) * Expr.var(ch, ch.acceleration(nname))
        comps.append(acc)
    return tuple(comps)


def total_time_derivative(e, tau=False):
    """Chain rule q -> dq -> ddq, and tau -> 1 when ``tau``."""
    ch = e.chart
    out = Expr.const(ch, 0)
    for name in ch.names:
        out = out + Expr.var(ch, ch.velocity(name)) * e.partial(name)
        out = out + Expr.var(ch, ch.acceleration(name)) * e.partial(ch.velocity(name))
    if tau:
        out = out + e.partial("tau")
    return out


@dataclass(frozen=True)
class VectorFieldExpr:
    """A vector field, one velocity-free expression per chart coordinate."""

    chart: Chart
    components: tuple[Expr, ...]

    def bracket(self, other) -> "VectorFieldExpr":
        """Commutator [X, Y], componentwise X(Y^mu) - Y(X^mu)."""
        ch = self.chart
        comps = []
        for mu in range(len(ch.names)):
            acc = Expr.const(ch, 0)
            for nu, name in enumerate(ch.names):
                acc = acc + self.components[nu] * other.components[mu].partial(name)
                acc = acc - other.components[nu] * self.components[mu].partial(name)
            comps.append(acc)
        return VectorFieldExpr(ch, tuple(comps))


def field_exprs(pair):
    """The pair's vector fields, their trig polynomials read as expressions."""
    ch = pair.chart
    return tuple(VectorFieldExpr(ch, tuple(Expr(ch, x) for x in field)) for field in pair.fields)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric 2-form, one component per pair of
    ``calculus.twoform_pairs``."""

    chart: Chart
    components: tuple[Expr, ...]


def lie_derivative_scalar(x: VectorFieldExpr, f: Expr) -> Expr:
    """L_X f = X^mu d f / d q^mu for a velocity-free function f."""
    if not f.is_velocity_free():
        raise InvariantViolation("lie_derivative_scalar needs a velocity-free function")
    ch = x.chart
    out = Expr.const(ch, 0)
    for comp, name in zip(x.components, ch.names):
        out = out + comp * f.partial(name)
    return out


def lie_derivative_lagrangian(x: VectorFieldExpr, L: Expr) -> Expr:
    """Lie derivative of a rank-1 Lagrangian along a point transformation.

    X^mu dL/dq^mu + (D_t X^mu) dL/d(dq^mu), with D_t X^mu = dq^nu dX^mu/dq^nu.
    """
    if L.has_accelerations():
        raise ValueError("rank-1 Lagrangians only")
    ch = x.chart
    out = Expr.const(ch, 0)
    for mu, name in enumerate(ch.names):
        out = out + x.components[mu] * L.partial(name)
        dtx = Expr.const(ch, 0)
        for nu, nname in enumerate(ch.names):
            dtx = dtx + Expr.var(ch, ch.velocity(nname)) * x.components[mu].partial(nname)
        out = out + dtx * L.partial(ch.velocity(name))
    if out.has_accelerations():
        raise InvariantViolation("the Lie derivative of a rank-1 Lagrangian has no accelerations")
    return out


def lie_derivative_oneform(x: VectorFieldExpr, w: OneForm) -> OneForm:
    """Cartan formula expanded in components: X^nu d_nu w_mu + w_nu d_mu X^nu."""
    ch = x.chart
    comps = []
    for mu, mname in enumerate(ch.names):
        acc = Expr.const(ch, 0)
        for nu, nname in enumerate(ch.names):
            acc = acc + x.components[nu] * w.components[mu].partial(nname)
            acc = acc + w.components[nu] * x.components[nu].partial(mname)
        comps.append(acc)
    return OneForm(ch, tuple(comps))


def exterior_derivative(w: OneForm) -> TwoForm:
    ch = w.chart
    comps = []
    for i, j in twoform_pairs(ch):
        comps.append(w.components[j].partial(ch.names[i]) - w.components[i].partial(ch.names[j]))
    return TwoForm(ch, tuple(comps))


def lie_derivative_twoform(x: VectorFieldExpr, w2: TwoForm) -> TwoForm:
    ch = x.chart
    names = ch.names
    pairs = twoform_pairs(ch)
    index = {p: k for k, p in enumerate(pairs)}

    def comp(i, j):
        if i == j:
            return Expr.const(ch, 0)
        if i < j:
            return w2.components[index[(i, j)]]
        return -w2.components[index[(j, i)]]

    out = []
    for i, j in pairs:
        acc = Expr.const(ch, 0)
        for r, rname in enumerate(names):
            acc = acc + x.components[r] * comp(i, j).partial(rname)
            acc = acc + comp(r, j) * x.components[r].partial(names[i])
            acc = acc + comp(i, r) * x.components[r].partial(names[j])
        out.append(acc)
    return TwoForm(ch, tuple(out))
