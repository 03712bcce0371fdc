"""Term-by-term Euler-Lagrange covector and total time derivative, the plain
reference that ``calculus.euler_lagrange`` and
``calculus.total_time_derivative`` are checked against: every partial
derivative, product and sum is its own reduced ``Expr``."""

from lagfloor.expr import Expr


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
