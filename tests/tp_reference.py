"""Plain reference versions of the trig-polynomial kernel: every product of
two monomials through the Fourier product ``_mono_mul``, and exact division
as a dense long division with no early exit.  ``TP.__mul__`` and
``TP.divide_by`` are checked against them, terms and their order included."""

from fractions import Fraction

from lagfloor.expr import TP, _mono_mul

F = Fraction


def mul(a, b):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            for m, extra in _mono_mul(m1, m2):
                out[m] = out.get(m, F(0)) + c1 * c2 * extra
    return TP(out)


def divide_by(a, d):
    """Exact quotient a/d for trig-free d, or None if not divisible."""
    if d.is_zero():
        raise ZeroDivisionError
    if not d.is_trig_free():
        return None
    dc = d.const_value()
    if dc is not None:
        return a.scale(F(1) / dc)
    groups = {}
    for (vars_, trig), c in a.terms.items():
        groups.setdefault(trig, {})[vars_] = c
    dpoly = {vars_: c for (vars_, _), c in d.terms.items()}
    names = sorted(set(n for v in dpoly for n, _ in v) | {n for g in groups.values() for v in g for n, _ in v})
    idx = {n: i for i, n in enumerate(names)}

    def dense(v):
        e = [0] * len(names)
        for n, k in v:
            e[idx[n]] = k
        return tuple(e)

    def sparse(e):
        return tuple((names[i], k) for i, k in enumerate(e) if k)

    dd = {dense(v): c for v, c in dpoly.items()}
    dlead = max(dd)
    out = {}
    for trig, g in groups.items():
        rem = {dense(v): c for v, c in g.items()}
        quo = {}
        while rem:
            m = max(rem)
            if any(x < y for x, y in zip(m, dlead)):
                return None
            qm = tuple(x - y for x, y in zip(m, dlead))
            qc = rem[m] / dd[dlead]
            quo[qm] = qc
            for dm, dc2 in dd.items():
                t = tuple(x + y for x, y in zip(qm, dm))
                nv = rem.get(t, F(0)) - qc * dc2
                if nv:
                    rem[t] = nv
                else:
                    rem.pop(t, None)
        for qm, qc in quo.items():
            mono = (sparse(qm), trig)
            out[mono] = out.get(mono, F(0)) + qc
    return TP(out)
