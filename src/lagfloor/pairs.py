"""Lie algebra actions on charts: fundamental vector fields and everything
built directly on them.

A pair couples an algebra given by structure constants with one vector field
per basis element; validity means the fields realize the brackets exactly,
as expression identities.  The pair's action table holds the generator
action on monomials and elementary forms as sparse monomial vectors, each
filled once by the derivative rule on monomial keys; expressions meet it
only at its edges (the field components it reads, ``lie`` and the readers'
results).  On it live the contraction ``pi_images``, ``action_module`` (the
g-module on an action-closed family of sparse vectors, the one way a
g-module is built), the invariant closed 1-forms, and stability subalgebras
with cocycle restriction, which is the certificate machinery for nontrivial
classes that no finite truncation can exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import OneForm, TwoForm, VectorFieldExpr
from .cecohom import GModule, NotACocycle, validate_module
from .expr import TP, AnsatzSpec, Chart, Expr, derivation, function_monomials
from .exprspace import equation_rows, poly_terms
from .liealg import StructureConstants, zero_one_cocycles
from .linalg import (
    InvariantViolation,
    Mat,
    Subspace,
    add_scaled,
    coordinate_map,
    dense,
    kernel_basis,
    kernel_of_rows,
)

F = Fraction


class ActionTable:
    """The generator action on monomials and elementary 1- and 2-forms.

    Every image is a sparse monomial vector ``{monomial: Fraction}``, or a
    tuple of them for a form, computed on first use and kept:
    ``scalar(i, m)`` is X_i(m); ``oneform(i, mu, m)`` is L_{X_i}(m dq^mu),
    one vector per dq^nu; ``twoform(i, (a, b), m)`` is L_{X_i}(m dq^a ^
    dq^b), one vector per pair of ``TwoForm.pairs``; ``contraction(i, mu,
    m)`` is (pi(m dq^mu))_i = m X_i^mu and ``partial(mu, m)`` is d m/dq^mu.
    They follow from the derivative rule on monomial keys and the field
    components, read once per generator as trig polynomials; a rational
    component raises NotPolynomial.  Images are shared between callers, so
    treat them as read-only.  ``lie(i, f)`` is X_i(f) as an expression, for
    any velocity-free f.
    """

    def __init__(self, chart_: Chart, fields):
        self.chart = chart_
        self.fields = fields
        self._pair_index = {ab: k for k, ab in enumerate(TwoForm.pairs(chart_))}
        self._diffs = [derivation(chart_, name) for name in chart_.names]
        self._components_of = {}
        self._scalar = {}
        self._oneform = {}
        self._twoform = {}
        self._contraction = {}
        self._partial = {}

    def _components(self, i):
        """X_i^mu and the Jacobian d X_i^mu / dq^nu, indexed [mu][nu], as
        trig polynomials."""
        comps = self._components_of.get(i)
        if comps is None:
            xs = tuple(TP(poly_terms(c)) for c in self.fields[i].components)
            jac = tuple(tuple(diff(x) for diff in self._diffs) for x in xs)
            comps = self._components_of[i] = (xs, jac)
        return comps

    def partial(self, mu, mono) -> dict:
        img = self._partial.get((mu, mono))
        if img is None:
            img = self._partial[(mu, mono)] = self._diffs[mu](TP({mono: F(1)})).terms
        return img

    def scalar(self, i, mono) -> dict:
        img = self._scalar.get((i, mono))
        if img is None:
            acc = TP()
            for mu, x in enumerate(self._components(i)[0]):
                dm = self.partial(mu, mono)
                if dm and x.terms:
                    acc = acc + TP(dm) * x
            img = self._scalar[(i, mono)] = acc.terms
        return img

    def lie(self, i, f: Expr) -> Expr:
        """X_i(f): the sum of the monomial images of f's terms, and for a
        rational f the quotient rule on the images of numerator and
        denominator."""
        if not f.is_velocity_free():
            raise InvariantViolation("a Lie derivative of a function needs a velocity-free function")
        ch = self.chart
        if f.den.is_one():
            return Expr(ch, self._image(i, f.num))
        return Expr(ch, self._image(i, f.num), f.den) - Expr(ch, f.num * self._image(i, f.den), f.den * f.den)

    def _image(self, i, tp) -> TP:
        acc = {}
        for m, c in tp.terms.items():
            add_scaled(acc, c, self.scalar(i, m))
        return TP(acc)

    def contraction(self, i, mu, mono) -> dict:
        img = self._contraction.get((i, mu, mono))
        if img is None:
            img = (TP({mono: F(1)}) * self._components(i)[0][mu]).terms
            self._contraction[(i, mu, mono)] = img
        return img

    def oneform(self, i, mu, mono) -> tuple:
        """L_X(m dq^mu) = X(m) dq^mu + m d(X^mu), the Cartan formula's two
        nonzero terms for an elementary form."""
        img = self._oneform.get((i, mu, mono))
        if img is None:
            m = TP({mono: F(1)})
            comps = [m * d for d in self._components(i)[1][mu]]
            comps[mu] = comps[mu] + TP(self.scalar(i, mono))
            img = self._oneform[(i, mu, mono)] = tuple(c.terms for c in comps)
        return img

    def twoform(self, i, ab, mono) -> tuple:
        """L_X(m dq^a ^ dq^b) = X(m) dq^a ^ dq^b + m d(X^a) ^ dq^b
        + m dq^a ^ d(X^b), for a coordinate pair a < b."""
        img = self._twoform.get((i, ab, mono))
        if img is None:
            a, b = ab
            jac = self._components(i)[1]
            m = TP({mono: F(1)})
            comps = [TP() for _ in self._pair_index]
            comps[self._pair_index[ab]] = TP(self.scalar(i, mono))
            for r in range(len(jac)):
                # the dq^r terms of m d(X^a) ^ dq^b and of m dq^a ^ d(X^b)
                for p, q, d in ((r, b, jac[a][r]), (a, r, jac[b][r])):
                    if p < q:
                        comps[self._pair_index[(p, q)]] += m * d
                    elif p > q:
                        comps[self._pair_index[(q, p)]] -= m * d
            img = self._twoform[(i, ab, mono)] = tuple(c.terms for c in comps)
        return img


@dataclass(frozen=True)
class GMPair:
    algebra: StructureConstants
    chart: Chart
    fields: tuple[VectorFieldExpr, ...]
    transitive: bool = False
    stability_sections: tuple | None = None  # tuples of velocity-free Expr, len = dim
    sample_points: tuple = ()
    action: ActionTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.fields) != self.algebra.dim:
            raise InvariantViolation("a pair needs one vector field per basis element")
        if any(len(s) != self.algebra.dim for s in self.stability_sections or ()):
            raise InvariantViolation("a stability section needs one component per basis element")
        object.__setattr__(self, "action", ActionTable(self.chart, self.fields))


@dataclass(frozen=True)
class PairReport:
    ok: bool
    failures: tuple  # of (i, j)


def validate_pair(p: GMPair) -> PairReport:
    """[X_i, X_j] = c^k_{ij} X_k, componentwise, as expression identities."""
    g = p.algebra
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = p.fields[i].bracket(p.fields[j])
            want = [Expr.const(p.chart, 0)] * len(p.chart.names)
            for k in range(g.dim):
                ck = g.coeff(i, j, k)
                if ck:
                    want = [w + comp * ck for w, comp in zip(want, p.fields[k].components)]
            if any(not (a - b).is_zero() for a, b in zip(lhs.components, want)):
                bad.append((i, j))
    return PairReport(not bad, tuple(bad))


@dataclass(frozen=True)
class FunctionCochain:
    """Degree-1 cochain on the algebra with velocity-free expression values."""

    pair: GMPair
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.pair.algebra.dim:
            raise InvariantViolation("a cochain needs one component per basis element")
        if not all(c.is_velocity_free() for c in self.components):
            raise InvariantViolation("cochain components must be velocity-free")

    def delta_component(self, i, j) -> Expr:
        p = self.pair
        out = p.action.lie(i, self.components[j]) - p.action.lie(j, self.components[i])
        for k in range(p.algebra.dim):
            ck = p.algebra.coeff(i, j, k)
            if ck:
                out = out - self.components[k] * ck
        return out

    def is_cocycle(self) -> bool:
        n = self.pair.algebra.dim
        return all(
            self.delta_component(i, j).is_zero() for i in range(n) for j in range(i + 1, n)
        )

    def __add__(self, other):
        return FunctionCochain(self.pair, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return FunctionCochain(self.pair, tuple(a - b for a, b in zip(self.components, other.components)))

    def add_constants(self, t):
        return FunctionCochain(
            self.pair,
            tuple(c + Expr.const(self.pair.chart, v) for c, v in zip(self.components, t)),
        )

    def is_zero(self):
        return all(c.is_zero() for c in self.components)


def pi_images(p: GMPair, units, basis):
    """pi(w) in monomial coordinates, for each w of a basis of closed forms.

    ``units`` are elementary forms (mu, monomial) and a basis vector holds
    the coefficients of w over them.  Both naturality identities,
    delta(pi w) = 0 and L_{X_i} w = d((pi w)_i), are checked exactly on
    every basis vector, from the pair's action table; linearity carries
    them to the span.  A failure raises InvariantViolation.  Returns one
    list of n {monomial: coefficient} dicts per basis vector.
    """
    g = p.algebra
    n = g.dim
    act = p.action
    brackets = [
        (a, b, [(k, g.coeff(a, b, k)) for k in range(n) if g.coeff(a, b, k)])
        for a in range(n)
        for b in range(a + 1, n)
    ]
    out = []
    for v in basis:
        support = [(*units[k], c) for k, c in sorted(v.items())]
        pw = []
        for i in range(n):
            acc = {}
            for mu, m, c in support:
                add_scaled(acc, c, act.contraction(i, mu, m))
            pw.append(acc)
        for a, b, structure in brackets:
            acc = {}
            for m, c in pw[b].items():
                add_scaled(acc, c, act.scalar(a, m))
            for m, c in pw[a].items():
                add_scaled(acc, -c, act.scalar(b, m))
            for k, ck in structure:
                add_scaled(acc, -ck, pw[k])
            if acc:
                raise InvariantViolation("pi of a closed form must be a cocycle")
        for i in range(n):
            for nu in range(len(p.chart.names)):
                acc = {}
                for mu, m, c in support:
                    add_scaled(acc, c, act.oneform(i, mu, m)[nu])
                for m, c in pw[i].items():
                    add_scaled(acc, -c, act.partial(nu, m))
                if acc:
                    raise InvariantViolation("L_X w = d(pi w) must hold for a closed form")
        out.append(pw)
    return out


# ---------------------------------------------------------------------------
# modules on action-closed families of sparse vectors
# ---------------------------------------------------------------------------

def linear_image(vec, unit_image):
    """A linear map on sparse {unit: coefficient} vectors, given on units."""
    acc = {}
    for u, c in vec.items():
        add_scaled(acc, c, unit_image(u))
    return acc


def action_module(algebra: StructureConstants, family, unit_images) -> GModule:
    """The g-module on span(family), validated.

    ``family`` is an independent list of sparse {unit: coefficient} vectors
    and ``unit_images[i]`` maps a unit to the sparse image of generator i;
    the span must be closed under every generator.  Column j of action
    matrix i holds the coordinates of X_i(family[j]).
    """
    mats = tuple(
        coordinate_map(family, [linear_image(b, unit_image) for b in family], "family not closed under the action")
        for unit_image in unit_images
    )
    gm = GModule(len(family), algebra, mats)
    report = validate_module(gm)
    if not report.ok:
        raise InvariantViolation(f"module failed validation: {report.violations}")
    return gm


# ---------------------------------------------------------------------------
# invariant closed forms
# ---------------------------------------------------------------------------

def closedness_rows(p: GMPair, monos):
    """Rows of dw = 0 for w = sum c_(mu,k) monos[k] dq^mu, unknowns mu-major."""
    act = p.action
    nm = len(monos)
    ncoords = len(p.chart.names)
    rows = []
    for a in range(ncoords):
        for b in range(a + 1, ncoords):
            terms = [(b * nm + k, 1, act.partial(a, m)) for k, m in enumerate(monos)]
            terms += [(a * nm + k, -1, act.partial(b, m)) for k, m in enumerate(monos)]
            rows.extend(equation_rows(terms))
    return rows


def invariant_closed_forms(p: GMPair, ansatz: AnsatzSpec) -> tuple[OneForm, ...]:
    """A basis of the closed invariant 1-forms in the ansatz space."""
    ch = p.chart
    act = p.action
    monos = function_monomials(ch, ansatz.degree, ansatz.fourier)
    ncoords = len(ch.names)
    unknowns = [(mu, k) for mu in range(ncoords) for k in range(len(monos))]
    rows = closedness_rows(p, monos)
    for i in range(p.algebra.dim):
        for nu in range(ncoords):
            rows.extend(
                equation_rows(
                    (col, 1, act.oneform(i, mu, monos[k])[nu])
                    for col, (mu, k) in enumerate(unknowns)
                )
            )
    coeffs = kernel_of_rows(rows, len(unknowns))

    def vec_to_form(v):
        terms = [{} for _ in range(ncoords)]
        for col, c in sorted(v.items()):
            mu, k = unknowns[col]
            terms[mu][monos[k]] = c
        return OneForm(ch, tuple(Expr(ch, TP(t)) for t in terms))

    return tuple(vec_to_form(v) for v in coeffs.basis)


# ---------------------------------------------------------------------------
# stability subalgebras and cocycle restriction
# ---------------------------------------------------------------------------

def evaluation_matrix(p: GMPair, point) -> Mat:
    """Rows = chart coordinates, columns = generators; entries X_i^mu(point)."""
    n = p.algebra.dim
    rows = []
    for mu in range(len(p.chart.names)):
        values = (p.fields[i].components[mu].evaluate(point) for i in range(n))
        rows.append({i: x for i, x in enumerate(values) if x})
    return Mat.from_vectors(rows, n)


def stability_subalgebra(p: GMPair, point) -> Subspace:
    """Kernel of x -> (x^i X_i)(point); raises EvaluationPole at field poles."""
    return kernel_basis(evaluation_matrix(p, point))


def _section_vectors(p: GMPair, point):
    out = []
    for section in p.stability_sections or ():
        values = (comp.evaluate(point) for comp in section)
        out.append({i: x for i, x in enumerate(values) if x})
    return out


def restrict_cocycle(p: GMPair, alpha: FunctionCochain, point, check_constancy=None):
    """Evaluate a cocycle against the stability subalgebra basis at a point.

    Returns {basis_vector: value}.  With pair-provided stability sections the
    basis is the section evaluation (canonical across points) and, for
    transitive pairs, constancy over the pair's sample points is checked.
    Without sections the reduced-echelon kernel basis at the point is used.
    """
    if not alpha.is_cocycle():
        raise NotACocycle("restriction requires delta(alpha) = 0")
    if check_constancy is None:
        check_constancy = p.transitive and p.stability_sections is not None

    def values_at(pt):
        stab = stability_subalgebra(p, pt)
        if p.stability_sections is not None:
            vecs = _section_vectors(p, pt)
            if len(vecs) != stab.dim:
                raise InvariantViolation("sections must span the stability subalgebra")
            for v in vecs:
                if not stab.contains(v):
                    raise InvariantViolation("section does not vanish at the point")
        else:
            vecs = list(stab.basis)
        out = []
        for v in vecs:
            out.append(sum((xi * alpha.components[i].evaluate(pt) for i, xi in sorted(v.items())), F(0)))
        return vecs, out

    vecs, vals = values_at(point)
    if check_constancy:
        extra = [pt for pt in p.sample_points if pt != point][:2]
        for pt in extra:
            _, other = values_at(pt)
            if other != vals:
                raise InvariantViolation("cocycle restriction must be point-independent")
    return {dense(v, p.algebra.dim): val for v, val in zip(vecs, vals)}


def stability_values_of_constant_cocycles(p: GMPair, point):
    """The subspace {(t(xi_a))_a : t in Z^1(G)} of restriction values."""
    stab = stability_subalgebra(p, point)
    if p.stability_sections is not None:
        vecs = _section_vectors(p, point)
    else:
        vecs = list(stab.basis)
    z1 = zero_one_cocycles(p.algebra)
    values = []
    for t in z1.basis:
        pairings = (sum((x * t[i] for i, x in v.items() if i in t), F(0)) for v in vecs)
        values.append({a: s for a, s in enumerate(pairings) if s})
    return Subspace.spanned_by(values, len(vecs)), vecs
