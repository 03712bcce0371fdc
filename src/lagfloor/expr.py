"""Exact expression algebra on charts R^a x T^b.

Expressions are fractions of *trig polynomials*: rational-coefficient
polynomials in the line coordinates, velocities ``d<coord>``, accelerations
``dd<coord>`` (and the time symbol ``tau`` in Noether outputs), times at most
one Fourier factor ``sin(k*phi)`` / ``cos(k*phi)`` per angle coordinate.
Products of trig factors are normalized to Fourier form on the fly
(product-to-sum identities, their halves kept in the denominator).  A trig
polynomial holds integer coefficients over one positive denominator, in
lowest terms (content and primitive part), so it has one canonical
representation, its arithmetic is on ints, and equality of expressions is
decided exactly: identical numerator/denominator pairs, or cross
multiplication.  ``Fraction`` appears only where values enter or leave:
the parser, the coefficient readers, printing and ``TP.from_vector``.

Angle coordinates never appear bare: ``phi`` is not a function on the
circle, only ``sin(k*phi)``, ``cos(k*phi)`` and the velocity ``dphi`` are.
This is precisely what makes ``dphi`` closed but not exact.

``TP.derive`` is the package's one derivative rule: a derivation is fixed
by its images of the generators, so one pass over the terms serves every
derivative.  ``derivation`` (d/dq, d/dphi, d/d(dq), d/d tau) and
``time_derivation`` (D_t, which the Euler-Lagrange covector, the Noether
charges and the prolonged generator action read) are its entry points.
``quotient_rule``, ``fraction_add``, ``fraction_const_value`` and
``fraction_subs_zero`` act on (numerator, denominator) pairs of trig
polynomials, which need not be in lowest terms, so a value that a caller
only tests for zero or for a constant never becomes an expression.

Denominators are reduced by content/sign normalization, common monomial
factors and exact trial division (full, and divisor-vs-divisor when adding),
which keeps every fraction arising from the supported Lagrangian families in
lowest terms; equality never relies on reduction.

Most products and trial divisions involve no trig factor at all, so the
kernel keeps them cheap without changing any result.  A product of two
trig-free monomials merges their variables and multiplies the coefficients
once; only pairs with a trig factor go through the Fourier product
``_mono_mul``.  A trial division returns zero at once for a zero dividend,
and refuses a dividend whose largest exponent of some variable is below the
divisor's before setting up the long division: deg_n(q*d) = deg_n(q) +
deg_n(d), so such a dividend is no multiple of the divisor.

The monomial rules are computed once per process: the variable merge
``_merge_vars``, the Fourier product ``_mono_mul`` and ``TP.derive``'s
exponent move ``_move_exponent`` are ``lru_cache``d, each bounded by
``MONO_CACHE_SIZE`` entries, and return tuples, since every caller shares a
cached value.  A polynomial with no terms is zero over 1 without a gcd, and
a negation, of a trig polynomial or an expression, is built directly: the
negation of a pair in lowest terms is in lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, gcd, lcm

F = Fraction

LINE = "line"
ANGLE = "angle"


class ParseError(Exception):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class UnknownSymbol(ParseError):
    pass


class EvaluationPole(Exception):
    """Denominator vanishes at the evaluation point."""


class Chart:
    """Ordered chart coordinates; kind is 'line' or 'angle'.

    Equal and hashed by ``coords`` alone; immutable by convention."""

    # coords, then what is derived from it: read on every partial derivative
    # and membership test, so computed once
    __slots__ = ("coords", "names", "line_names", "angle_names", "velocity_names", "acceleration_names",
                 "jet_names", "symbols", "_kinds")

    def __init__(self, coords: tuple[tuple[str, str], ...]):
        names = tuple(n for n, _ in coords)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {list(names)}")
        for n, k in coords:
            if not (isinstance(n, str) and n):
                raise ValueError(f"a coordinate name must be a non-empty string, got {n!r}")
            if k not in (LINE, ANGLE):
                raise ValueError(f"coordinate {n!r} has kind {k!r}; kinds are {LINE!r} and {ANGLE!r}")
        self.coords = coords
        self.names = names
        self.line_names = tuple(n for n, k in coords if k == LINE)
        self.angle_names = tuple(n for n, k in coords if k == ANGLE)
        self.velocity_names = tuple("d" + n for n in names)
        self.acceleration_names = tuple("dd" + n for n in names)
        self._kinds = dict(coords)
        # the velocities and accelerations, which a function on the chart omits
        self.jet_names = frozenset(self.velocity_names + self.acceleration_names)
        for n in names:
            if n in self.jet_names or n == "tau":
                raise ValueError(f"coordinate name {n!r} clashes with a velocity or acceleration name, or with tau")
        # every name the chart gives a meaning: coordinates, jet names and the
        # Noether time symbol tau
        self.symbols = self.jet_names | {*names, "tau"}

    # a chart keys the potential search's column cache, and charts built
    # from one coords are one chart
    def __eq__(self, other):
        if type(other) is not Chart:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"Chart(coords={self.coords!r})"

    def kind(self, name):
        return self._kinds[name]

    def velocity(self, name):
        return "d" + name

    def acceleration(self, name):
        return "dd" + name


# ---------------------------------------------------------------------------
# monomials: (vars, trig)
#   vars: sorted tuple of (name, exponent>0)
#   trig: sorted tuple of (angle, 's'|'c', k>=1), at most one entry per angle
# ---------------------------------------------------------------------------

UNIT = ((), ())

# The monomial rules below are pure functions of immutable monomials, and a
# process meets few distinct ones: a pass of the benchmark's classify stream
# over four pairs makes about 28,000 variable merges of 811 distinct pairs,
# and fills about 1,100 entries over the three rules, none after its first
# pass.  All of the test suite in one process would fill about 36,000, so this
# bound never evicts on a stream and caps each table's memory on a long run.
MONO_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=MONO_CACHE_SIZE)
def _merge_vars(a, b):
    d = dict(a)
    for n, e in b:
        d[n] = d.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


@lru_cache(maxsize=MONO_CACHE_SIZE)
def _move_exponent(vars_, down, up):
    """The variables of a monomial with one power of ``down`` taken away and
    one of ``up`` put on; None for either leaves it out."""
    if down is None and up is None:
        return vars_
    d = dict(vars_)
    if down is not None:
        if d[down] == 1:
            del d[down]
        else:
            d[down] -= 1
    if up is not None:
        d[up] = d.get(up, 0) + 1
    return tuple(sorted(d.items()))


def _max_exponents(tp):
    """{variable: largest exponent} over the terms of a trig polynomial."""
    out = {}
    for vars_, _ in tp.terms:
        for n, e in vars_:
            if e > out.get(n, 0):
                out[n] = e
    return out


def _trig_pair_product(f1, f2):
    """Twice the product of two Fourier factors of the same angle ->
    [(factor|None, sign)]: the product-to-sum rule, its 1/2 left out."""
    k1, k2 = f1[1], f2[1]
    if f1[0] == "s" and f2[0] == "s":
        raw = [("c", k1 - k2, 1), ("c", k1 + k2, -1)]
    elif f1[0] == "c" and f2[0] == "c":
        raw = [("c", k1 - k2, 1), ("c", k1 + k2, 1)]
    elif f1[0] == "s" and f2[0] == "c":
        raw = [("s", k1 + k2, 1), ("s", k1 - k2, 1)]
    else:  # c * s
        raw = [("s", k1 + k2, 1), ("s", k2 - k1, 1)]
    out = []
    for kind, k, sign in raw:
        if k < 0:  # cos is even, sin is odd
            k, sign = -k, -sign if kind == "s" else sign
        if k:
            out.append(((kind, k), sign))
        elif kind == "c":
            out.append((None, sign))
    return out


@lru_cache(maxsize=MONO_CACHE_SIZE)
def _mono_mul(m1, m2):
    """Product of two monomials -> (((monomial, sign), ...), halves): each
    term of the product is sign / 2**halves, one 1/2 per angle in both.  A
    tuple, since every caller shares the cached value."""
    vars_ = _merge_vars(m1[0], m2[0])
    t1, t2 = dict(), dict()
    for a, kind, k in m1[1]:
        t1[a] = (kind, k)
    for a, kind, k in m2[1]:
        t2[a] = (kind, k)
    angles = sorted(set(t1) | set(t2))
    per_angle = []
    halves = 0
    for a in angles:
        if a in t1 and a in t2:
            opts = [(a, fac, sign) for fac, sign in _trig_pair_product(t1[a], t2[a])]
            halves += 1
        else:
            kind, k = t1.get(a) or t2.get(a)
            opts = [(a, (kind, k), 1)]
        per_angle.append(opts)
    results = []
    for combo in iproduct(*per_angle):
        sign = 1
        trig = []
        for a, fac, s in combo:
            sign *= s
            if fac is not None:
                trig.append((a, fac[0], fac[1]))
        results.append(((vars_, tuple(sorted(trig))), sign))
    return tuple(results), halves


class TP:
    """Trig polynomial in canonical Fourier normal form.

    ``terms`` maps each monomial to a nonzero int and ``den`` is a positive
    int, in lowest terms: gcd(den, *terms.values()) == 1, and the zero
    polynomial is {} over 1.  The coefficient of m is terms[m] / den, so
    arithmetic is on ints and ``==`` compares values.  A coefficient that
    is not an int, or a denominator that is not a positive int, raises
    TypeError.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den=1):
        if type(den) is not int or den < 1:
            raise TypeError(f"a trig polynomial's denominator is a positive int, got {den!r}")
        if not terms:
            self.terms = {}
            self.den = 1
            return
        terms = {m: c for m, c in terms.items() if c}
        try:  # gcd reads every coefficient as an int, so it is the type check too
            g = gcd(den, *terms.values())
        except TypeError:
            bad = next(c for c in terms.values() if not isinstance(c, int))
            raise TypeError(f"a trig polynomial's coefficients are ints, got {bad!r}") from None
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
        self.terms = terms
        self.den = den

    # constructors -----------------------------------------------------
    @staticmethod
    def const(c):
        c = F(c)
        return TP({UNIT: c.numerator}, c.denominator) if c else TP()

    @staticmethod
    def var(name, exp=1):
        return TP({(((name, exp),), ()): 1})

    @staticmethod
    def trig(angle, kind, k=1):
        if kind not in ("s", "c") or k < 1:
            raise ValueError(f"a Fourier factor is 's' or 'c' with harmonic >= 1, got {kind!r}, {k}")
        return TP({((), ((angle, kind, k),)): 1})

    @staticmethod
    def from_vector(v):
        """The trig polynomial of a sparse ``{monomial: rational}`` vector,
        terms in the vector's order: over the lcm of its denominators."""
        den = lcm(*[c.denominator for c in v.values()])
        return TP({m: c.numerator * (den // c.denominator) for m, c in v.items()}, den)

    @staticmethod
    def combination(pairs, den=1):
        """sum(c * p for c, p in pairs) / den for rational c, summed in
        order; a coefficient that cancels is dropped at once, as
        ``linalg.add_scaled`` drops it, so the terms come in its order."""
        acc = {}
        scale = 1  # acc holds the sum times scale
        for c, p in pairs:
            q = c.denominator * p.den
            if scale % q:
                up = q // gcd(scale, q)
                acc = {m: x * up for m, x in acc.items()}
                scale *= up
            c = c.numerator * (scale // q)
            for m, x in p.terms.items():
                v = acc.get(m, 0) + c * x
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return TP(acc, scale * den)

    # predicates ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.den == 1 and len(self.terms) == 1 and self.terms.get(UNIT) == 1

    def const_value(self):
        if not self.terms:
            return F(0)
        if len(self.terms) == 1 and UNIT in self.terms:
            return F(self.terms[UNIT], self.den)
        return None

    def __eq__(self, other):
        return isinstance(other, TP) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        d1, d2 = self.den, other.den
        if d1 == d2:
            out = dict(self.terms)
            for m, c in other.terms.items():
                out[m] = out.get(m, 0) + c
            return TP(out, d1)
        g = gcd(d1, d2)
        a, b = d2 // g, d1 // g  # the lcm is d1 * a = d2 * b
        out = {m: c * a for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c * b
        return TP(out, d1 * a)

    def __neg__(self):
        # the negation of a polynomial in lowest terms is in lowest terms
        out = TP.__new__(TP)
        out.terms = {m: -c for m, c in self.terms.items()}
        out.den = self.den
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self times the rational c."""
        if not c:
            return TP()
        n = c.numerator
        return TP({m: v * n for m, v in self.terms.items()}, self.den * c.denominator)

    def __mul__(self, other):
        out = {}
        shift = 0  # out holds the product times 2**shift
        for m1, c1 in self.terms.items():
            v1, t1 = m1
            for m2, c2 in other.terms.items():
                v2, t2 = m2
                c = c1 * c2
                if t1 or t2:
                    products, halves = _mono_mul(m1, m2)
                    if halves > shift:
                        out = {m: x << (halves - shift) for m, x in out.items()}
                        shift = halves
                    c <<= shift - halves
                    for m, sign in products:
                        out[m] = out.get(m, 0) + (c if sign > 0 else -c)
                    continue
                # two trig-free monomials: one product, no Fourier expansion
                if shift:
                    c <<= shift
                m = (_merge_vars(v1, v2) if v1 and v2 else v1 or v2, ())
                out[m] = out[m] + c if m in out else c
        return TP(out, (self.den * other.den) << shift)

    # structure ----------------------------------------------------------
    def has_any_var(self, names):
        return any(n in names for vars_, _ in self.terms for n, _e in vars_)

    def is_trig_free(self):
        return all(not trig for _, trig in self.terms)

    def degree_in(self, names):
        names = set(names)
        best = 0
        for vars_, _ in self.terms:
            d = sum(e for n, e in vars_ if n in names)
            best = max(best, d)
        return best

    def fourier_order(self):
        best = 0
        for _, trig in self.terms:
            for _a, _kind, k in trig:
                best = max(best, k)
        return best

    def lead_monomial(self):
        """Largest monomial in the canonical order (None for the zero poly)."""
        return max(self.terms) if self.terms else None

    def coeff(self, mono):
        return F(self.terms.get(mono, 0), self.den)

    def vector(self):
        """The sparse ``{monomial: Fraction}`` vector of the coefficients."""
        return {m: F(c, self.den) for m, c in self.terms.items()}

    # calculus -----------------------------------------------------------
    def derive(self, images):
        """The derivation D with D(n) = images[n] for each generator n it
        moves (a variable name, or None for the constant 1), in one pass.

        A term c * m contributes c * e * (m / n) * D(n) per variable n^e of
        m, and +-c * k * m' * D(phi) per Fourier factor sin/cos(k*phi),
        where m' turns that factor into cos/sin(k*phi).  Angle names are
        never a monomial's variables, so one map holds both kinds."""
        out = {}
        for (vars_, trig), c in self.terms.items():
            for n, e in vars_:
                if n in images:
                    m = (_move_exponent(vars_, n, images[n]), trig)
                    out[m] = out.get(m, 0) + c * e
            for i, (a, kind, k) in enumerate(trig):
                if a in images:
                    m = (_move_exponent(vars_, None, images[a]),
                         trig[:i] + ((a, "c" if kind == "s" else "s", k),) + trig[i + 1 :])
                    out[m] = out.get(m, 0) + (c * k if kind == "s" else -c * k)
        return TP(out, self.den)

    # evaluation -----------------------------------------------------------
    def evaluate(self, var_values, angle_values):
        """Exact value; angles are given as rational (sin, cos) pairs."""
        total = F(0)
        cache = {}
        for (vars_, trig), c in self.terms.items():
            val = c
            for n, e in vars_:
                val *= var_values[n] ** e
            for a, kind, k in trig:
                key = (a, k)
                if key not in cache:
                    # sin/cos of k*theta by the angle-addition recurrence
                    s1, c1 = angle_values[a]
                    s, co = s1, c1
                    for _ in range(k - 1):
                        s, co = s * c1 + co * s1, co * c1 - s * s1
                    cache[key] = (s, co)
                s, co = cache[key]
                val *= s if kind == "s" else co
            total += val
        return total / self.den

    # exact division -------------------------------------------------------
    def divide_by(self, d):
        """Exact quotient self/d for trig-free d, or None if not divisible:
        fraction-free long division of the numerators, which multiplies the
        remainder and quotient up when d's leading coefficient needs it."""
        if d.is_zero():
            raise ZeroDivisionError
        if not d.is_trig_free():
            return None
        if not self.terms:
            return TP()
        dc = d.const_value()
        if dc is not None:
            return self.scale(1 / dc)
        # deg_n(q*d) = deg_n(q) + deg_n(d) for every variable n, so a
        # dividend of lower degree than d in some n is not a multiple of d
        dmax = _max_exponents(d)
        smax = _max_exponents(self)
        if any(smax.get(n, 0) < e for n, e in dmax.items()):
            return None
        groups = {}
        for (vars_, trig), c in self.terms.items():
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
        lc = dd[dlead]
        out = {}
        scale = 1  # rem and out hold their values times scale
        for trig, g in groups.items():
            rem = {dense(v): c * scale for v, c in g.items()}
            while rem:
                m = max(rem)
                if any(a < b for a, b in zip(m, dlead)):
                    return None
                qm = tuple(a - b for a, b in zip(m, dlead))
                if rem[m] % lc:
                    up = abs(lc) // gcd(rem[m], lc)
                    rem = {k: x * up for k, x in rem.items()}
                    out = {k: x * up for k, x in out.items()}
                    scale *= up
                qc = rem[m] // lc
                out[(sparse(qm), trig)] = qc
                for dm, dc2 in dd.items():
                    t = tuple(a + b for a, b in zip(qm, dm))
                    nv = rem.get(t, 0) - qc * dc2
                    if nv:
                        rem[t] = nv
                    else:
                        rem.pop(t, None)
        # self / d is (the numerators' quotient) * d.den / self.den
        if d.den != 1:
            out = {mono: x * d.den for mono, x in out.items()}
        return TP(out, self.den * scale)

    def common_var_factor(self):
        """Largest monomial in the plain variables dividing every term."""
        common = None
        for vars_, _ in self.terms:
            d = dict(vars_)
            if common is None:
                common = d
            else:
                common = {n: min(e, d.get(n, 0)) for n, e in common.items() if d.get(n, 0)}
            if not common:
                return {}
        return common or {}

    def divide_var_factor(self, factor):
        out = {}
        for (vars_, trig), c in self.terms.items():
            d = dict(vars_)
            for n, e in factor.items():
                d[n] = d.get(n, 0) - e
                if d[n] < 0:
                    raise ValueError("the factor must divide every term")
            out[(tuple(sorted((n, e) for n, e in d.items() if e)), trig)] = c
        return TP(out, self.den)

    def __repr__(self):
        return f"TP({self.terms!r}, {self.den})"


TP_ONE = TP.const(1)
TP_ZERO = TP()


class Expr:
    """Canonical fraction of two trig polynomials on a fixed chart."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart_, num, den=None):
        den = den if den is not None else TP_ONE
        if den.is_zero():
            raise ZeroDivisionError("expression denominator is identically zero")
        if num.is_zero():
            num, den = TP_ZERO, TP_ONE
        else:
            num, den = _reduce_fraction(num, den)
        self.chart = chart_
        self.num = num
        self.den = den

    # constructors ---------------------------------------------------------
    @staticmethod
    def const(chart_, c):
        return Expr(chart_, TP.const(c))

    @staticmethod
    def var(chart_, name):
        return Expr(chart_, TP.var(name))

    # predicates -------------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return (self.num * other.den - other.num * self.den).is_zero()

    # equality is by cross multiplication, which a reduced-pair hash cannot
    # honor for every rational pair; expressions are not hashable
    __hash__ = None

    # arithmetic -------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return Expr(self.chart, *fraction_add(self.num, self.den, other.num, other.den))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        # -num over den is reduced when num over den is
        out = Expr.__new__(Expr)
        out.chart, out.num, out.den = self.chart, -self.num, self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        return Expr(self.chart, *fraction_add(self.num, self.den, -other.num, other.den))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.is_one() and d2.is_one():
            return Expr(self.chart, n1 * n2)
        q = n1.divide_by(d2) if not d2.is_one() else None
        if q is not None:
            n1, d2 = q, TP_ONE
        q = n2.divide_by(d1) if not d1.is_one() else None
        if q is not None:
            n2, d1 = q, TP_ONE
        return Expr(self.chart, n1 * n2, d1 * d2)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return self * Expr(self.chart, other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError(f"expressions take integer powers, got {k!r}")
        if k < 0:
            return Expr.const(self.chart, 1) / self ** (-k)
        out = Expr.const(self.chart, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Expr):
            return other
        return Expr.const(self.chart, other)

    # calculus -----------------------------------------------------------
    def partial(self, gen):
        """Exact partial derivative by a coordinate, velocity or acceleration.

        For an angle coordinate the derivative acts through the sin/cos
        generators by the chain rule.
        """
        return Expr(self.chart, *quotient_rule(self.num, self.den, derivation(self.chart, gen)))

    # structure ----------------------------------------------------------
    def is_velocity_free(self):
        jet = self.chart.jet_names
        return not (self.num.has_any_var(jet) or self.den.has_any_var(jet))

    def has_accelerations(self):
        acc = self.chart.acceleration_names
        return self.num.has_any_var(acc) or self.den.has_any_var(acc)

    def line_degree(self):
        return max(self.num.degree_in(self.chart.line_names), self.den.degree_in(self.chart.line_names))

    def fourier_order(self):
        return max(self.num.fourier_order(), self.den.fourier_order())

    def subs_zero(self, names):
        """Set the given plain generators to zero (exactly)."""
        return Expr(self.chart, *fraction_subs_zero(self.num, self.den, names))

    def evaluate(self, point):
        """point: {line/velocity/acc name: Fraction, angle name: (sin, cos)}."""
        var_values, angle_values = point_values(point)
        den = self.den.evaluate(var_values, angle_values)
        if den == 0:
            raise EvaluationPole(f"denominator vanishes at {point}")
        return self.num.evaluate(var_values, angle_values) / den

    def __repr__(self):
        return f"Expr({to_string(self)!r})"


def point_values(point):
    """(variable values, angle values) of a point {line/velocity/acc name:
    Fraction, angle name: (sin, cos)}: the arguments of ``TP.evaluate``."""
    var_values, angle_values = {}, {}
    for k, v in point.items():
        if isinstance(v, tuple):
            s, c = F(v[0]), F(v[1])
            if s * s + c * c != 1:
                raise ValueError(f"angle values for {k} not on the unit circle")
            angle_values[k] = (s, c)
        else:
            var_values[k] = F(v)
    return var_values, angle_values


def derivation(chart_, gen):
    """The partial derivative by ``gen`` as a map of trig polynomials,
    ``TP.derive`` with gen -> 1.

    An angle coordinate acts through the sin/cos generators by the chain
    rule; a line coordinate, velocity, acceleration or ``tau`` by the power
    rule."""
    if gen not in chart_.symbols:
        raise UnknownSymbol(f"unknown generator {gen!r}", 0)
    images = {gen: None}
    return lambda tp: tp.derive(images)


def time_derivation(chart_, tau=False):
    """The total time derivative D_t = dq^mu d/dq^mu + ddq^mu d/d(dq^mu),
    plus d/d tau when ``tau``, as a map of trig polynomials: ``TP.derive``
    with q -> dq, dq -> ddq for every coordinate (an angle through its
    sin/cos factors) and tau -> 1."""
    images = {name: chart_.velocity(name) for name in chart_.names}
    images.update({chart_.velocity(name): chart_.acceleration(name) for name in chart_.names})
    if tau:
        images["tau"] = None
    return lambda tp: tp.derive(images)


def quotient_rule(num, den, d):
    """(num', den') with num'/den' = d(num/den) for a derivation ``d`` of trig
    polynomials; a denominator that ``d`` annihilates is kept, not squared."""
    dn, dd = d(num), d(den)
    if dd.is_zero():
        return dn, den
    return dn * den - num * dd, den * den


def fraction_add(n1, d1, n2, d2):
    """(num, den) with num/den = n1/d1 + n2/d2, for trig polynomials: equal
    denominators add the numerators, a denominator that divides the other
    (by exact trial division) scales its numerator up, and any other two
    cross-multiply.  Nothing is reduced."""
    if d1 == d2:
        return n1 + n2, d1
    q = d1.divide_by(d2)
    if q is not None:
        return n1 + n2 * q, d1
    q = d2.divide_by(d1)
    if q is not None:
        return n1 * q + n2, d2
    return n1 * d2 + n2 * d1, d1 * d2


def fraction_const_value(num, den):
    """The Fraction that num/den equals identically, or None, for trig
    polynomials num and den, den nonzero: the ratio of the coefficients at
    den's leading monomial, checked on every term.  The pair need not be in
    lowest terms."""
    if den.is_one():
        return num.const_value()
    lead = den.lead_monomial()
    c = num.coeff(lead) / den.coeff(lead)
    return c if (num - den.scale(c)).is_zero() else None


def fraction_subs_zero(num, den, names):
    """(num', den'), num/den with the given plain generators set to zero:
    the terms free of them.  Raises EvaluationPole when den' vanishes."""
    names = set(names)

    def kill(tp):
        return TP({m: c for m, c in tp.terms.items() if not any(n in names for n, _ in m[0])}, tp.den)

    den = kill(den)
    if den.is_zero():
        raise EvaluationPole("denominator vanishes after substitution")
    return kill(num), den


def _reduce_fraction(num, den):
    if den.is_one():
        return num, den
    # common monomial factor in the plain variables
    fn = num.common_var_factor()
    fd = den.common_var_factor()
    common = {n: min(e, fd.get(n, 0)) for n, e in fn.items() if fd.get(n, 0)}
    common = {n: e for n, e in common.items() if e}
    if common:
        num = num.divide_var_factor(common)
        den = den.divide_var_factor(common)
    if den.is_one():
        return num, den
    if num == den:
        return TP_ONE, TP_ONE
    q = num.divide_by(den)
    if q is not None:
        return q, TP_ONE
    # monic denominator (leading coefficient 1) for a canonical pair
    lead = den.terms[den.lead_monomial()]
    if lead != den.den:
        inv = F(den.den, lead)
        num, den = num.scale(inv), den.scale(inv)
    return num, den


# ---------------------------------------------------------------------------
# ansatz enumeration
# ---------------------------------------------------------------------------

class AnsatzSpec:
    """The bounds of an ansatz: line-degree and Fourier order."""

    __slots__ = ("degree", "fourier")

    def __init__(self, degree: int, fourier: int):
        self.degree = degree
        self.fourier = fourier

    def __str__(self):
        return f"degree {self.degree}, fourier {self.fourier}"


MAX_ANSATZ_MONOMIALS = 1000


class AnsatzTooLarge(Exception):
    """The ansatz has more than MAX_ANSATZ_MONOMIALS monomials."""


def function_monomials(chart_, degree, fourier):
    """All velocity-free basis monomials with line-degree<=degree, order<=fourier.

    Their count is computed first, and above MAX_ANSATZ_MONOMIALS none is
    listed: AnsatzTooLarge."""
    line = chart_.line_names
    angles = chart_.angle_names
    count = comb(degree + len(line), len(line)) * (2 * fourier + 1) ** len(angles)
    if count > MAX_ANSATZ_MONOMIALS:
        raise AnsatzTooLarge(f"the ansatz at {AnsatzSpec(degree, fourier)} has {count} monomials, "
                             f"above the limit of {MAX_ANSATZ_MONOMIALS}")
    line_parts = []

    def rec(i, remaining, current):
        if i == len(line):
            line_parts.append(tuple((n, e) for n, e in current if e))
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, current + [(line[i], e)])

    rec(0, degree, [])
    trig_opts = []
    for a in angles:
        opts = [None]
        for k in range(1, fourier + 1):
            opts.append((a, "s", k))
            opts.append((a, "c", k))
        trig_opts.append(opts)
    out = []
    for lp in line_parts:
        for combo in iproduct(*trig_opts):
            trig = tuple(sorted(x for x in combo if x is not None))
            out.append((tuple(sorted(lp)), trig))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")
MAX_NESTING = 100  # parenthesis depth parse_expr accepts
# a power base^k whose numerator or denominator has t > 1 terms expands to
# up to C(|k| + t - 1, t - 1) products; above this many, parse_expr refuses
# it before expanding (a monomial base takes any exponent).  A product a*b or
# quotient a/b is refused the same way when the term counts of the two
# numerators (or the two denominators) it multiplies have a product above it.
MAX_POWER_TERMS = MAX_ANSATZ_MONOMIALS


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(("int", int(text[i:j]), i))
            except ValueError:  # a non-decimal digit such as '²', or too many digits
                raise ParseError("bad integer literal", i) from None
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, chart_, text, params):
        self.chart = chart_
        self.params = params
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected trailing input {t[1]!r}", t[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero", self.peek()[2])
            # e / rhs multiplies by rhs.den over rhs.num
            num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
            bound = max(len(e.num.terms) * len(num.terms), len(e.den.terms) * len(den.terms))
            if bound > MAX_POWER_TERMS:
                raise ParseError(f"a product expands to up to {bound} terms, above the limit of {MAX_POWER_TERMS}", pos)
            e = e * rhs if op == "*" else e / rhs
        return e

    def factor(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            neg = False
            if self.peek()[0] == "-":
                self.next()
                neg = True
            t = self.expect("int")
            k = -t[1] if neg else t[1]
            terms = max(len(base.num.terms), len(base.den.terms))
            if terms > 1 and (bound := comb(t[1] + terms - 1, terms - 1)) > MAX_POWER_TERMS:
                raise ParseError(f"a {terms}-term base to the power {k} expands to up to {bound} terms, "
                                 f"above the limit of {MAX_POWER_TERMS}", t[2])
            return base**k
        return base

    def atom(self):
        t = self.next()
        kind, val, pos = t
        if kind == "int":
            return Expr.const(self.chart, val)
        if kind == "(":
            # each level costs several Python frames; refuse before the interpreter does
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if kind == "name":
            if val in self.params:
                return Expr.const(self.chart, self.params[val])
            if val in ("sin", "cos"):
                return self.trig_call(val, pos)
            return self.symbol(val, pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def trig_call(self, fn, pos):
        self.expect("(")
        t = self.next()
        k = 1
        if t[0] == "int":
            k = t[1]
            self.expect("*")
            t = self.next()
        if t[0] != "name" or t[1] in self.params:
            raise ParseError(f"{fn} argument must be an angle coordinate", t[2])
        name = t[1]
        if name not in self.chart.angle_names:
            raise UnknownSymbol(f"{fn} argument {name!r} is not an angle coordinate", t[2])
        self.expect(")")
        if k < 1:
            raise ParseError(f"{fn} harmonic must be a positive integer", pos)
        return Expr(self.chart, TP.trig(name, "s" if fn == "sin" else "c", k))

    def symbol(self, name, pos):
        ch = self.chart
        if name in ch.names:
            if ch.kind(name) == ANGLE:
                raise ParseError(
                    f"angle coordinate {name!r} cannot appear bare; use sin({name})/cos({name}) or d{name}",
                    pos,
                )
            return Expr.var(ch, name)
        if name in ch.velocity_names or name in ch.acceleration_names:
            return Expr.var(ch, name)
        raise UnknownSymbol(f"unknown symbol {name!r}", pos)


def parse_expr(chart_, text, params=None):
    """Parse ``text`` against a chart.

    ``params`` maps parameter names to exact rationals; the parser reads each
    such name as its value, before any other meaning of the name (the
    expression algebra itself is parameter-free).
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}", 0)
    params = {name: F(value) for name, value in (params or {}).items()}
    return _Parser(chart_, text, params).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr)
# ---------------------------------------------------------------------------

def _mono_to_string(mono, coeff):
    vars_, trig = mono
    parts = []
    for n, e in vars_:
        parts.append(n if e == 1 else f"{n}^{e}")
    for a, kind, k in trig:
        fn = "sin" if kind == "s" else "cos"
        parts.append(f"{fn}({a})" if k == 1 else f"{fn}({k}*{a})")
    body = "*".join(parts)
    c = abs(coeff)
    if not body:
        return _frac_str(c)
    if c == 1:
        return body
    return f"{_frac_str(c)}*{body}"


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _tp_to_string(tp):
    if tp.is_zero():
        return "0"
    items = sorted(tp.terms.items(), reverse=True)
    out = []
    for i, (m, c) in enumerate(items):
        piece = _mono_to_string(m, F(c, tp.den))
        if i == 0:
            out.append(piece if c > 0 else f"-{piece}")
        else:
            out.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(out)


def to_string(e):
    num = _tp_to_string(e.num)
    if e.den.is_one():
        return num
    den = _tp_to_string(e.den)
    return f"({num})/({den})"
