"""Lie algebra actions on charts: fundamental vector fields and everything
built directly on them.

A pair couples an algebra given by structure constants with one vector field
per basis element, a tuple of polynomial trig polynomials.  Its action table
holds the fields with their Jacobians and the generator action on monomials
and elementary 1-forms as sparse monomial vectors, each filled once by the
derivative rule on monomial keys; its Lie derivatives take and return
(numerator, denominator) pairs, so an expression meets it only where a
reader builds one.  On the table lives ``coboundary``, the one coboundary of
function-valued 1-cochains, S_ij = X_i n_j - X_j n_i - c^k_ij n_k summed on
the algebra's integer bracket table, which ``validate_pair`` (on the cochain
k -> X_k^mu, one per chart coordinate mu), ``FunctionCochain.delta`` and the
cocycle check of ``pi_images`` all read; the pair keeps its bracket report,
which the computations certify first.  Also here are ``action_module``, the
one builder of a g-module on an action-closed family of sparse vectors, and
``validated_module``, which it and the invariance complex's module on
2-forms, induced through d, both go through; the invariant closed 1-forms;
and stability subalgebras with cocycle restriction, which is the certificate
machinery for nontrivial classes that no finite truncation can exhibit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import lcm
from operator import mul

from .calculus import OneForm
from .cecohom import GModule, NotACocycle, validate_module, zero_one_cocycles
from .expr import TP, TP_ONE, AnsatzSpec, Chart, EvaluationPole, Expr, derivation, function_monomials, quotient_rule
from .expr import point_values, time_derivation
from .exprspace import equation_rows
from .liealg import StructureConstants
from .linalg import (
    CheckReport,
    InvariantViolation,
    Mat,
    Subspace,
    add_scaled,
    coordinate_map,
    kernel_basis,
    kernel_of_rows,
)

F = Fraction


class ActionTable:
    """The generator action on monomials and elementary 1-forms.

    Every image is a trig polynomial, the sparse monomial vector of integer
    coefficients over one denominator, or a tuple of them for a form,
    computed on first use and kept:
    ``scalar(i, m)`` is X_i(m); ``prolonged(i, m)`` is X_i^(1)(m) for a
    monomial in coordinates and velocities, the prolonged field X_i^mu
    d/dq^mu + (D_t X_i^mu) d/d(dq^mu); ``oneform(i, mu, m)`` is L_{X_i}(m
    dq^mu), one vector per dq^nu; ``contraction(i, mu, m)`` is (pi(m
    dq^mu))_i = m X_i^mu and ``partial(mu, m)`` is d m/dq^mu.  There is no
    2-form image: the invariance complex induces the action on 2-forms
    through d, since L_X d = d L_X.
    They follow from the derivative rule on monomial keys and
    ``components[i]``: the pair's X_i^mu, the Jacobian d X_i^mu / dq^nu,
    indexed [mu][nu], and D_t X_i^mu = dq^nu d X_i^mu / dq^nu, built once.
    Images are shared between callers, so treat them as read-only.
    ``lie(i, num, den)`` is X_i(f) for any velocity-free f = num/den, and
    ``lie_lagrangian(i, num, den)`` is delta_i L = X_i^(1)(L) for a rank-1
    Lagrangian; both sum the images of the terms, with the quotient rule
    for a rational argument, and return a (numerator, denominator) pair of
    trig polynomials, not an expression.
    """

    def __init__(self, chart_: Chart, fields):
        self.chart = chart_
        self._diffs = [derivation(chart_, name) for name in chart_.names]
        self._velocity_diffs = [derivation(chart_, name) for name in chart_.velocity_names]
        dt = time_derivation(chart_)
        self.components = tuple(
            (xs, tuple(tuple(d(x) for d in self._diffs) for x in xs), tuple(dt(x) for x in xs)) for xs in fields
        )
        self._scalar = {}
        self._prolonged = {}
        self._oneform = {}
        self._contraction = {}
        self._partial = {}

    def partial(self, mu, mono) -> TP:
        img = self._partial.get((mu, mono))
        if img is None:
            img = self._partial[(mu, mono)] = self._diffs[mu](TP({mono: 1}))
        return img

    def scalar(self, i, mono) -> TP:
        img = self._scalar.get((i, mono))
        if img is None:
            acc = TP()
            for mu, x in enumerate(self.components[i][0]):
                dm = self.partial(mu, mono)
                if dm.terms and x.terms:
                    acc = acc + dm * x
            img = self._scalar[(i, mono)] = acc
        return img

    def prolonged(self, i, mono) -> TP:
        """X_i^(1)(m) = X_i(m) + (D_t X_i^mu) dm/d(dq^mu), for a monomial in
        coordinates and velocities."""
        img = self._prolonged.get((i, mono))
        if img is None:
            acc = self.scalar(i, mono)
            m = TP({mono: 1})
            for vdiff, dt in zip(self._velocity_diffs, self.components[i][2]):
                dm = vdiff(m)
                if dm.terms and dt.terms:
                    acc = acc + dm * dt
            img = self._prolonged[(i, mono)] = acc
        return img

    def lie(self, i, num: TP, den: TP) -> tuple[TP, TP]:
        """X_i(f) for a velocity-free function f = num/den, as a
        (numerator, denominator) pair."""
        jet = self.chart.jet_names
        if num.has_any_var(jet) or den.has_any_var(jet):
            raise InvariantViolation("a Lie derivative of a function needs a velocity-free function")
        return self._derive(num, den, lambda m: self.scalar(i, m))

    def lie_lagrangian(self, i, num: TP, den: TP) -> tuple[TP, TP]:
        """delta_i L = X_i^(1)(L) for a rank-1 Lagrangian L = num/den, as a
        (numerator, denominator) pair."""
        acc = self.chart.acceleration_names
        if num.has_any_var(acc) or den.has_any_var(acc):
            raise ValueError("rank-1 Lagrangians only")
        out = self._derive(num, den, lambda m: self.prolonged(i, m))
        if any(tp.has_any_var(acc) for tp in out):
            raise InvariantViolation("the Lie derivative of a rank-1 Lagrangian has no accelerations")
        return out

    @staticmethod
    def _derive(num, den, image) -> tuple[TP, TP]:
        """A derivation given on monomials, applied to num/den: the sum of
        the images of the terms, through the quotient rule of ``expr``."""

        def derived(tp):
            return TP.combination(((c, image(m)) for m, c in tp.terms.items()), tp.den)

        return quotient_rule(num, den, derived)

    def contraction(self, i, mu, mono) -> TP:
        img = self._contraction.get((i, mu, mono))
        if img is None:
            img = TP({mono: 1}) * self.components[i][0][mu]
            self._contraction[(i, mu, mono)] = img
        return img

    def oneform(self, i, mu, mono) -> tuple:
        """L_X(m dq^mu) = X(m) dq^mu + m d(X^mu), the Cartan formula's two
        nonzero terms for an elementary form."""
        img = self._oneform.get((i, mu, mono))
        if img is None:
            m = TP({mono: 1})
            comps = [m * d for d in self.components[i][1][mu]]
            comps[mu] = comps[mu] + self.scalar(i, mono)
            img = self._oneform[(i, mu, mono)] = tuple(comps)
        return img


class GMPair:
    """A Lie algebra acting on a chart by vector fields, each a tuple of
    polynomial trig polynomials, one per chart coordinate; immutable by
    convention, and ``brackets`` and ``frames`` are built on first read."""

    def __init__(self, algebra: StructureConstants, chart: Chart, fields: tuple[tuple[TP, ...], ...],
                 transitive: bool = False, stability_sections: tuple | None = None, sample_points: tuple = ()):
        if len(fields) != algebra.dim:
            raise InvariantViolation("a pair needs one vector field per basis element")
        if any(len(x) != len(chart.names) for x in fields):
            raise InvariantViolation("a vector field needs one component per chart coordinate")
        if any(len(s) != algebra.dim for s in stability_sections or ()):
            raise InvariantViolation("a stability section needs one component per basis element")
        self.algebra = algebra
        self.chart = chart
        self.fields = fields
        self.transitive = transitive
        self.stability_sections = stability_sections  # tuples of velocity-free Expr, len = dim
        self.sample_points = sample_points
        self.action = ActionTable(chart, fields)

    @cached_property
    def brackets(self) -> CheckReport:
        """``validate_pair``'s report, built on first read."""
        return validate_pair(self)

    def certify_brackets(self):
        """Raise InvariantViolation naming the first bracket that the fields
        do not realize."""
        if not self.brackets.ok:
            i, j = self.brackets.violations[0]
            names = self.algebra.basis_names
            raise InvariantViolation(f"the fields violate the bracket [{names[i]}, {names[j]}]")

    @cached_property
    def frames(self) -> tuple:
        """(point, vecs, accounted) of ``stability_frame`` at each sample
        point where the sections have no pole, in ``sample_points`` order;
        built on first read."""
        out = []
        for point in self.sample_points:
            try:
                out.append((point, *stability_frame(self, point)))
            except EvaluationPole:
                continue
        return tuple(out)


def validate_pair(p: GMPair) -> CheckReport:
    """[X_i, X_j] = c^k_{ij} X_k, componentwise, as delta^2 q^mu = 0 for
    each chart coordinate q^mu: the ``coboundary`` of delta q^mu, the
    cochain k -> X_k^mu, is X_i X_j^mu - X_j X_i^mu - c^k_ij X_k^mu at (i, j),
    the mu component of [X_i, X_j] - c^k_ij X_k.  The violations are the
    pairs i < j where one is nonzero."""
    bad = {(i, j) for mu in range(len(p.chart.names))
           for i, j, s in coboundary(p, [x[mu] for x in p.fields]) if s.terms}
    return CheckReport(tuple(sorted(bad)))


class FunctionCochain:
    """Degree-1 cochain on the algebra with velocity-free expression values.

    Its coboundary is computed on trig polynomials read from the pair's
    action table, and no expression is built for it.
    """

    __slots__ = ("pair", "components")

    def __init__(self, pair: GMPair, components: tuple[Expr, ...]):
        if len(components) != pair.algebra.dim:
            raise InvariantViolation("a cochain needs one component per basis element")
        if not all(c.is_velocity_free() for c in components):
            raise InvariantViolation("cochain components must be velocity-free")
        self.pair = pair
        self.components = components

    def delta(self):
        """(i, j, num, den) for each i < j, in lexicographic order, where the
        trig polynomials num/den equal (delta alpha)_ij = X_i alpha_j -
        X_j alpha_i - c^k_ij alpha_k.

        The components are read as alpha_k = n_k / D over one denominator D,
        the product of their distinct denominators.  With S the
        ``coboundary`` of the n_k, (delta alpha)_ij is (S D - (n_j X_i(D) -
        n_i X_j(D))) / D^2.  With D = 1 the second term vanishes and the
        pair is S over 1.
        """
        act = self.pair.action
        dens = []
        for a in self.components:
            if not a.den.is_one() and a.den not in dens:
                dens.append(a.den)
        nums = [reduce(mul, (d for d in dens if d != a.den), a.num) for a in self.components]
        D = reduce(mul, dens, TP_ONE)
        if D.is_one():
            for i, j, s in coboundary(self.pair, nums):
                yield i, j, s, TP_ONE
            return
        xd = [act.lie(i, D, TP_ONE)[0] for i in range(len(nums))]
        for i, j, s in coboundary(self.pair, nums):
            yield i, j, s * D - (nums[j] * xd[i] - nums[i] * xd[j]), D * D

    def is_cocycle(self) -> bool:
        return all(num.is_zero() for _, _, num, _ in self.delta())

    def add_constants(self, t):
        return FunctionCochain(
            self.pair,
            tuple(c + Expr.const(self.pair.chart, v) for c, v in zip(self.components, t)),
        )


def coboundary(p: GMPair, nums):
    """(i, j, S_ij) for each i < j, in lexicographic order, where the trig
    polynomial S_ij = X_i n_j - X_j n_i - c^k_ij n_k for the trig
    polynomials n_k, one per basis element.

    S_ij is one combination of the table's scalar images and the n_k, read
    times den, the algebra's denominator, and the integer denominators of
    n_i and n_j, so that every coefficient it sums is an integer.
    """
    g, act = p.algebra, p.action
    for (i, j), structure in g.table.items():
        di, dj = nums[i].den, nums[j].den
        yield i, j, TP.combination(chain(
            ((x * di * g.den, act.scalar(i, m)) for m, x in nums[j].terms.items()),
            ((-x * dj * g.den, act.scalar(j, m)) for m, x in nums[i].terms.items()),
            ((-ck * di * dj, nums[k]) for k, ck in structure),
        ), di * dj * g.den)


def pi_images(p: GMPair, units, basis):
    """pi(w) in monomial coordinates, for each w of a basis of closed forms.

    ``units`` are elementary forms (mu, monomial) and a basis vector holds
    the coefficients of w over them.  Both naturality identities,
    delta(pi w) = 0 and L_{X_i} w = d((pi w)_i), are checked exactly on
    every basis vector, from the pair's action table; linearity carries
    them to the span.  A failure raises InvariantViolation.  Returns one
    list of n trig polynomials per basis vector.
    """
    n = p.algebra.dim
    act = p.action
    out = []
    for v in basis:
        support = [(*units[k], c) for k, c in sorted(v.items())]
        pw = [TP.combination((c, act.contraction(i, mu, m)) for mu, m, c in support) for i in range(n)]
        if any(s.terms for _, _, s in coboundary(p, pw)):
            raise InvariantViolation("pi of a closed form must be a cocycle")
        # the second identity times the denominators of what it reads,
        # summed once over integer coefficients
        dv = lcm(*[c.denominator for _, _, c in support])
        int_support = [(mu, m, c.numerator * (dv // c.denominator)) for mu, m, c in support]
        for i in range(n):
            scaled = [(mu, m, c * pw[i].den) for mu, m, c in int_support]
            for nu in range(len(p.chart.names)):
                residual = chain(
                    ((c, act.oneform(i, mu, m)[nu]) for mu, m, c in scaled),
                    ((-x * dv, act.partial(nu, m)) for m, x in pw[i].terms.items()),
                )
                if TP.combination(residual).terms:
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
    return validated_module(len(family), algebra, mats)


def validated_module(dim, algebra: StructureConstants, action) -> GModule:
    """The g-module of these action matrices, validated: raises
    InvariantViolation naming the brackets they violate."""
    gm = GModule(dim, algebra, action)
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
        return OneForm(ch, tuple(Expr(ch, TP.from_vector(t)) for t in terms))

    return tuple(vec_to_form(v) for v in coeffs.basis)


# ---------------------------------------------------------------------------
# stability subalgebras and cocycle restriction
# ---------------------------------------------------------------------------

def stability_subalgebra(p: GMPair, point) -> Subspace:
    """Kernel of x -> (x^i X_i)(point): the matrix of the values X_i^mu(point),
    one row per chart coordinate and one column per generator."""
    at = point_values(point)
    rows = [{i: v for i, x in enumerate(p.fields) if (v := x[mu].evaluate(*at))} for mu in range(len(p.chart.names))]
    return kernel_basis(Mat.from_vectors(rows, p.algebra.dim))


def stability_frame(p: GMPair, point):
    """(vecs, accounted): the stability subalgebra at a point and the
    restriction values that constant cocycles take on it.

    ``vecs`` are the pair's stability sections evaluated at the point,
    checked to be a basis of the kernel of x -> (x^i X_i)(point): as many
    as its dimension, independent, and each vanishing there.  A pair
    without sections gets the reduced-echelon kernel basis.
    ``accounted`` is the subspace {(t(v))_v : t in Z^1(G)} of R^len(vecs).
    Raises EvaluationPole at a pole of the sections.
    """
    stab = stability_subalgebra(p, point)
    if p.stability_sections is None:
        vecs = list(stab.basis)
    else:
        vecs = []
        for section in p.stability_sections:
            at_point = (comp.evaluate(point) for comp in section)
            vecs.append({i: x for i, x in enumerate(at_point) if x})
        if len(vecs) != stab.dim or Subspace.spanned_by(vecs, p.algebra.dim).dim != stab.dim:
            raise InvariantViolation("sections must span the stability subalgebra")
        for v in vecs:
            if not stab.contains(v):
                raise InvariantViolation("section does not vanish at the point")
    values = []
    for t in zero_one_cocycles(p.algebra).basis:
        pairings = (sum((x * t[i] for i, x in v.items() if i in t), F(0)) for v in vecs)
        values.append({a: s for a, s in enumerate(pairings) if s})
    return vecs, Subspace.spanned_by(values, len(vecs))


def restrict_cocycle(p: GMPair, alpha: FunctionCochain):
    """Evaluate a cocycle against the pair's stability frames.

    Returns one (frame, values) per frame of ``p.frames`` at which alpha has
    no pole, values[k] being alpha paired with the frame's k-th vector.
    With pair-provided stability sections the vectors are canonical across
    points and, for transitive pairs, the values are checked to be the same
    at every frame.
    """
    if not alpha.is_cocycle():
        raise NotACocycle("restriction requires delta(alpha) = 0")
    out = []
    for frame in p.frames:
        point, vecs, _ = frame
        try:
            values = [sum((xi * alpha.components[i].evaluate(point) for i, xi in sorted(v.items())), F(0)) for v in vecs]
        except EvaluationPole:
            continue
        out.append((frame, values))
    if p.transitive and p.stability_sections is not None and any(vals != out[0][1] for _, vals in out):
        raise InvariantViolation("cocycle restriction must be point-independent")
    return out
