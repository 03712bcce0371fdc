"""Coordinate views of finite families of trig polynomials.

Every solver (potential finding, cocycle spaces, the K-spaces and the
phi_3 witness) reduces "these expressions vanish identically" to exact
linear algebra the same way: ``equation_rows`` reads the integer monomial
coordinates of unknown-weighted trig polynomials, such as the pair's
action-table images, and the rows go to ``linalg``.  One identity may have
a right-hand side that is a rational expression; its denominator is
cleared by multiplying every term by it, so nothing is divided.
"""

from __future__ import annotations

from math import gcd, lcm

from .expr import TP


def tp_lcm(a: TP, b: TP) -> TP:
    """A common multiple of two trig polynomials.

    Exact lcm is not computable without gcd in this ring; divisibility-aware
    products (a, b, or a*b) cover every denominator family in scope.
    """
    if a.is_one():
        return b
    if b.is_one() or a == b:
        return a
    if a.divide_by(b) is not None:
        return a
    if b.divide_by(a) is not None:
        return b
    return a * b


def equation_rows(terms, rhs=None):
    """Integer rows ``{unknown: int}`` of one identity sum == rhs.

    ``terms`` are (unknown, scale, tp) triples standing for
    unknown * scale * tp, with a rational scale and a trig polynomial tp;
    an unknown may repeat, and its contributions add.  ``rhs``, when given,
    is (unknown, e) for one expression e and stands for unknown * e; when e
    is rational, every term is first multiplied by e's denominator.  One
    row per monomial, over the integer lcm of the terms' denominators and
    divided by its content; zero rows dropped.
    """
    terms = [t for t in terms if not t[2].is_zero()]
    if rhs is not None and not rhs[1].is_zero():
        k, e = rhs
        if not e.den.is_one():
            terms = [(u, scale, tp * e.den) for u, scale, tp in terms]
        terms.append((k, -1, e.num))
    den = lcm(*[scale.denominator * tp.den for _, scale, tp in terms])
    rows = {}
    for k, scale, tp in terms:
        c = scale.numerator * (den // (scale.denominator * tp.den))
        for m, x in tp.terms.items():
            row = rows.setdefault(m, {})
            v = row.get(k, 0) + c * x
            if v:
                row[k] = v
            else:
                row.pop(k, None)
    out = []
    for r in rows.values():
        if r:
            g = gcd(*r.values())
            out.append({k: x // g for k, x in r.items()} if g != 1 else r)
    return out
