"""A plain Fraction reference for trig polynomials, the oracle of ``expr.TP``.

A polynomial here is a ``{monomial: Fraction}`` dict of nonzero
coefficients, with ``expr``'s monomials: (vars, trig), vars a sorted tuple
of (name, exponent > 0), trig a sorted tuple of (angle, 's'|'c', k >= 1),
at most one factor per angle.  Every operation keeps a Fraction per term
and follows the order of operations that ``TP`` keeps, so the terms come in
the same order: a coefficient that cancels stays in its place until the end
of the operation and is then dropped.  Nothing here reads ``TP``."""

from fractions import Fraction
from itertools import product

F = Fraction
HALF = F(1, 2)


def _nonzero(d):
    return {m: c for m, c in d.items() if c}


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return _nonzero(out)


def neg(a):
    return {m: -c for m, c in a.items()}


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    return {m: v * c for m, v in a.items()} if c else {}


def _merge_vars(a, b):
    d = dict(a)
    for n, e in b:
        d[n] = d.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def _factor_product(f1, f2):
    """sin/cos(k1 x) * sin/cos(k2 x) by the product-to-sum rule:
    [(factor or None, coefficient)], None for the constant 1."""
    (s1, k1), (s2, k2) = f1, f2
    if s1 == "s" and s2 == "s":  # sin a sin b = (cos(a - b) - cos(a + b)) / 2
        raw = [("c", k1 - k2, HALF), ("c", k1 + k2, -HALF)]
    elif s1 == "c" and s2 == "c":  # cos a cos b = (cos(a - b) + cos(a + b)) / 2
        raw = [("c", k1 - k2, HALF), ("c", k1 + k2, HALF)]
    elif s1 == "s":  # sin a cos b = (sin(a + b) + sin(a - b)) / 2
        raw = [("s", k1 + k2, HALF), ("s", k1 - k2, HALF)]
    else:  # cos a sin b = (sin(a + b) + sin(b - a)) / 2
        raw = [("s", k1 + k2, HALF), ("s", k2 - k1, HALF)]
    out = []
    for kind, k, c in raw:
        if k < 0:  # cos is even, sin is odd
            k, c = -k, (-c if kind == "s" else c)
        if k:
            out.append(((kind, k), c))
        elif kind == "c":
            out.append((None, c))
    return out


def _mono_mul(m1, m2):
    """[(monomial, coefficient)] of the product of two monomials."""
    t1 = {a: (kind, k) for a, kind, k in m1[1]}
    t2 = {a: (kind, k) for a, kind, k in m2[1]}
    per_angle = []
    for a in sorted(set(t1) | set(t2)):
        if a in t1 and a in t2:
            per_angle.append([(a, f, c) for f, c in _factor_product(t1[a], t2[a])])
        else:
            per_angle.append([(a, t1.get(a) or t2.get(a), F(1))])
    out = []
    for combo in product(*per_angle):
        coeff = F(1)
        trig = []
        for a, f, c in combo:
            coeff *= c
            if f is not None:
                trig.append((a, *f))
        out.append(((_merge_vars(m1[0], m2[0]), tuple(sorted(trig))), coeff))
    return out


def mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for m, c in _mono_mul(m1, m2):
                out[m] = out.get(m, F(0)) + c1 * c2 * c
    return _nonzero(out)


def partial_var(a, name):
    out = {}
    for (vars_, trig), c in a.items():
        d = dict(vars_)
        e = d.pop(name, 0)
        if e:
            if e > 1:
                d[name] = e - 1
            m = (tuple(sorted(d.items())), trig)
            out[m] = out.get(m, F(0)) + c * e
    return _nonzero(out)


def partial_angle(a, angle):
    """d/d(angle): sin(kx) -> k cos(kx), cos(kx) -> -k sin(kx)."""
    out = {}
    for (vars_, trig), c in a.items():
        for i, (x, kind, k) in enumerate(trig):
            if x == angle:
                m = (vars_, trig[:i] + ((x, "c" if kind == "s" else "s", k),) + trig[i + 1 :])
                out[m] = out.get(m, F(0)) + (c * k if kind == "s" else -c * k)
    return _nonzero(out)


def divide_by(a, d):
    """Exact quotient a/d for a trig-free d, or None if not divisible: dense
    long division per Fourier factor, with no early exit."""
    if not d:
        raise ZeroDivisionError
    if any(trig for _, trig in d):
        return None
    if list(d) == [((), ())]:
        return scale(a, 1 / d[((), ())])
    groups = {}
    for (vars_, trig), c in a.items():
        groups.setdefault(trig, {})[vars_] = c
    names = sorted({n for v, _ in d for n, _ in v} | {n for g in groups.values() for v in g for n, _ in v})

    def dense(v):
        e = dict(v)
        return tuple(e.get(n, 0) for n in names)

    dd = {dense(v): c for (v, _), c in d.items()}
    lead = max(dd)
    out = {}
    for trig, g in groups.items():
        rem = {dense(v): c for v, c in g.items()}
        while rem:
            m = max(rem)
            if any(x < y for x, y in zip(m, lead)):
                return None
            qm = tuple(x - y for x, y in zip(m, lead))
            qc = rem[m] / dd[lead]
            out[(tuple((n, e) for n, e in zip(names, qm) if e), trig)] = qc
            for dm, c in dd.items():
                t = tuple(x + y for x, y in zip(qm, dm))
                rem[t] = rem.get(t, F(0)) - qc * c
                if not rem[t]:
                    del rem[t]
    return out


def evaluate(a, var_values, angle_values):
    """The value at rational variables and angles given as rational
    (sin, cos) pairs, sin/cos of k*x by the angle-addition recurrence."""
    total = F(0)
    for (vars_, trig), c in a.items():
        val = c
        for n, e in vars_:
            val *= var_values[n] ** e
        for x, kind, k in trig:
            s1, c1 = angle_values[x]
            s, co = s1, c1
            for _ in range(k - 1):
                s, co = s * c1 + co * s1, co * c1 - s * s1
            val *= s if kind == "s" else co
        total += val
    return total


def to_string(a):
    """The printed form: terms by descending monomial, a coefficient of 1
    left out, signs between the terms."""
    if not a:
        return "0"
    out = []
    for i, ((vars_, trig), c) in enumerate(sorted(a.items(), reverse=True)):
        parts = [n if e == 1 else f"{n}^{e}" for n, e in vars_]
        parts += [f"{'sin' if kind == 's' else 'cos'}({x if k == 1 else f'{k}*{x}'})" for x, kind, k in trig]
        body, mag = "*".join(parts), abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        piece = num if not body else body if mag == 1 else f"{num}*{body}"
        out.append((piece if c > 0 else f"-{piece}") if i == 0 else (f" + {piece}" if c > 0 else f" - {piece}"))
    return "".join(out)
