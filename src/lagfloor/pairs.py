"""Lie algebra actions on charts: fundamental vector fields and everything
built directly on them.

A pair couples an algebra given by structure constants with one vector field
per basis element; validity means the fields realize the brackets exactly,
as expression identities.  On top of that live the contraction homomorphism
``pi_map`` (1-forms to function-valued 1-cochains), finite function modules
generated by closing seed functions under the action, invariant functions
and forms, and stability subalgebras with cocycle restriction, which is the
certificate machinery for nontrivial classes that no finite truncation can
exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import (
    OneForm,
    VectorFieldExpr,
    gradient,
    is_closed,
    lie_derivative_oneform,
    lie_derivative_scalar,
)
from .cecohom import GModule, NotACocycle, validate_module
from .expr import AnsatzSpec, Chart, Expr, chart, function_monomials, mono_expr, parse_expr
from .exprspace import ExprSpan, add_scaled, equation_rows, kernel_of_expr_system, poly_terms
from .liealg import StructureConstants, catalog, poincare_fields, R4
from .linalg import InvariantViolation, Mat, QuotientSpace, Subspace, kernel_basis, kernel_of_rows, quotient

F = Fraction


class CapExceeded(Exception):
    def __init__(self, dim_reached, witness):
        super().__init__(f"action does not close within {dim_reached} dimensions")
        self.dim_reached = dim_reached
        self.witness = witness


class ActionTable:
    """The generator action on monomials and elementary 1-forms.

    Each image is computed on first use and kept: ``scalar(i, m)`` is
    X_i(m), ``oneform(i, mu, m)`` is L_{X_i}(m dq^mu), ``contraction(i, mu,
    m)`` is (pi(m dq^mu))_i = m X_i^mu and ``partial(mu, m)`` is d m/dq^mu.
    Images are expressions; ``poly_terms`` reads monomial coordinates off a
    polynomial one.
    """

    def __init__(self, chart_: Chart, fields):
        self.chart = chart_
        self.fields = fields
        self._scalar = {}
        self._oneform = {}
        self._contraction = {}
        self._partial = {}

    def scalar(self, i, mono) -> Expr:
        img = self._scalar.get((i, mono))
        if img is None:
            img = lie_derivative_scalar(self.fields[i], mono_expr(self.chart, mono))
            self._scalar[(i, mono)] = img
        return img

    def partial(self, mu, mono) -> Expr:
        img = self._partial.get((mu, mono))
        if img is None:
            img = mono_expr(self.chart, mono).partial(self.chart.names[mu])
            self._partial[(mu, mono)] = img
        return img

    def contraction(self, i, mu, mono) -> Expr:
        img = self._contraction.get((i, mu, mono))
        if img is None:
            img = mono_expr(self.chart, mono) * self.fields[i].components[mu]
            self._contraction[(i, mu, mono)] = img
        return img

    def oneform(self, i, mu, mono) -> OneForm:
        """L_X(m dq^mu) = X(m) dq^mu + m d(X^mu), the Cartan formula's two
        nonzero terms for an elementary form."""
        img = self._oneform.get((i, mu, mono))
        if img is None:
            ch = self.chart
            me = mono_expr(ch, mono)
            x_mu = self.fields[i].components[mu]
            comps = [me * x_mu.partial(name) for name in ch.names]
            comps[mu] = comps[mu] + self.scalar(i, mono)
            img = OneForm(ch, tuple(comps))
            self._oneform[(i, mu, mono)] = img
        return img


@dataclass(frozen=True)
class GMPair:
    algebra: StructureConstants
    chart: Chart
    fields: tuple[VectorFieldExpr, ...]
    transitive: bool = False
    stability_sections: tuple | None = None  # tuples of velocity-free Expr, len = dim
    sample_points: tuple = ()
    name: str = ""
    action: ActionTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        assert len(self.fields) == self.algebra.dim
        if self.stability_sections is not None:
            for s in self.stability_sections:
                assert len(s) == self.algebra.dim
        object.__setattr__(self, "action", ActionTable(self.chart, self.fields))

    def lie_scalar(self, i, f):
        return lie_derivative_scalar(self.fields[i], f)


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
        assert len(self.components) == self.pair.algebra.dim
        for c in self.components:
            assert c.is_velocity_free()

    def delta_component(self, i, j) -> Expr:
        p = self.pair
        out = p.lie_scalar(i, self.components[j]) - p.lie_scalar(j, self.components[i])
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


def scalar_coboundary(p: GMPair, f: Expr) -> FunctionCochain:
    """(delta f)_i = X_i f."""
    return FunctionCochain(p, tuple(p.lie_scalar(i, f) for i in range(p.algebra.dim)))


def pi_map(p: GMPair, w: OneForm) -> FunctionCochain:
    """(pi w)(e_i) = w contracted with the i-th fundamental field.

    For closed w the naturality identities delta(pi w) = 0 and
    L_{X_i} w = d((pi w)_i) hold and are asserted.
    """
    comps = []
    for i in range(p.algebra.dim):
        acc = Expr.const(p.chart, 0)
        for mu in range(len(p.chart.names)):
            acc = acc + w.components[mu] * p.fields[i].components[mu]
        comps.append(acc)
    out = FunctionCochain(p, tuple(comps))
    if is_closed(w):
        if not out.is_cocycle():
            raise InvariantViolation("pi of a closed form must be a cocycle")
        for i in range(p.algebra.dim):
            if lie_derivative_oneform(p.fields[i], w) != gradient(comps[i]):
                raise InvariantViolation("L_X w = d(pi w) must hold for a closed form")
    return out


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
        support = [(mu, m, c) for (mu, m), c in zip(units, v) if c]
        pw = []
        for i in range(n):
            acc = {}
            for mu, m, c in support:
                add_scaled(acc, c, poly_terms(act.contraction(i, mu, m)))
            pw.append(acc)
        for a, b, structure in brackets:
            acc = {}
            for m, c in pw[b].items():
                add_scaled(acc, c, poly_terms(act.scalar(a, m)))
            for m, c in pw[a].items():
                add_scaled(acc, -c, poly_terms(act.scalar(b, m)))
            for k, ck in structure:
                add_scaled(acc, -ck, pw[k])
            if acc:
                raise InvariantViolation("pi of a closed form must be a cocycle")
        for i in range(n):
            for nu in range(len(p.chart.names)):
                acc = {}
                for mu, m, c in support:
                    add_scaled(acc, c, poly_terms(act.oneform(i, mu, m).components[nu]))
                for m, c in pw[i].items():
                    add_scaled(acc, -c, poly_terms(act.partial(nu, m)))
                if acc:
                    raise InvariantViolation("L_X w = d(pi w) must hold for a closed form")
        out.append(pw)
    return out


# ---------------------------------------------------------------------------
# function modules by closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionModule:
    module: GModule
    basis_exprs: tuple[Expr, ...]
    pair: GMPair

    @property
    def dim(self):
        return self.module.dim

    def coordinates(self, f: Expr):
        span = ExprSpan(self.pair.chart)
        for b in self.basis_exprs:
            span.insert(b)
        return span.coordinates_in_members(f)


def closure_module(p: GMPair, seeds, cap: int = 64) -> FunctionModule:
    """Smallest action-closed span containing the seeds, or CapExceeded.

    Deterministic: seeds in the given order, then breadth-first images under
    the generators in basis order, filtered by exact linear independence.
    """
    span = ExprSpan(p.chart)
    queue = []
    for s in seeds:
        assert s.is_velocity_free(), "closure seeds must be velocity-free"
        if span.insert(s):
            queue.append(s)
    idx = 0
    while idx < len(queue):
        f = queue[idx]
        idx += 1
        for i in range(p.algebra.dim):
            g = p.lie_scalar(i, f)
            if g.is_zero():
                continue
            if span.insert(g):
                if span.dim > cap:
                    raise CapExceeded(span.dim, g)
                queue.append(g)
    basis = tuple(span.members)
    m = len(basis)
    mats = []
    for i in range(p.algebra.dim):
        cols = []
        for b in basis:
            coords = span.coordinates_in_members(p.lie_scalar(i, b))
            if coords is None:
                raise InvariantViolation("closure is not closed: internal error")
            cols.append(coords)
        ent = []
        for t in range(m):
            for j in range(m):
                ent.append(cols[j][t])
        mats.append(Mat(m, m, tuple(ent)))
    gm = GModule(m, p.algebra, tuple(mats), basis_labels=basis)
    report = validate_module(gm)
    if not report.ok:
        raise InvariantViolation(f"closure produced an invalid module: {report.violations}")
    return FunctionModule(gm, basis, p)


def function_cochain_to_module_cochain(fm: FunctionModule, alpha: FunctionCochain):
    """Express a function-valued 1-cochain in a module's coordinates."""
    from .cecohom import Cochain

    comps = {}
    for i, c in enumerate(alpha.components):
        coords = fm.coordinates(c)
        assert coords is not None, "cochain component outside the module"
        if any(coords):
            comps[(i,)] = tuple(coords)
    return Cochain(1, fm.module, comps)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantFunctions:
    basis: tuple[Expr, ...]
    coefficients: Subspace  # over the ansatz monomial coordinates


def invariant_functions(p: GMPair, ansatz: AnsatzSpec) -> InvariantFunctions:
    """All ansatz-space solutions of X_i f = 0 for every generator."""
    monos = function_monomials(p.chart, ansatz.degree, ansatz.fourier)
    columns = [[p.action.scalar(i, m) for i in range(p.algebra.dim)] for m in monos]
    coeffs = kernel_of_expr_system(columns)
    basis = []
    for v in coeffs.basis:
        f = Expr.const(p.chart, 0)
        for c, m in zip(v, monos):
            if c:
                f = f + mono_expr(p.chart, m) * c
        basis.append(f)
    return InvariantFunctions(tuple(basis), coeffs)


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


@dataclass(frozen=True)
class InvariantForms:
    closed_invariant_basis: tuple[OneForm, ...]
    h1_inv: QuotientSpace
    representatives: tuple[OneForm, ...]
    coordinate_monos: tuple


def invariant_closed_forms(p: GMPair, ansatz: AnsatzSpec) -> InvariantForms:
    """Closed invariant 1-forms modulo differentials of invariant functions."""
    ch = p.chart
    act = p.action
    monos = function_monomials(ch, ansatz.degree, ansatz.fourier)
    ncoords = len(ch.names)
    unknowns = [(mu, k) for mu in range(ncoords) for k in range(len(monos))]
    zero = Expr.const(ch, 0)
    rows = closedness_rows(p, monos)
    for i in range(p.algebra.dim):
        for nu in range(ncoords):
            rows.extend(
                equation_rows(
                    (col, 1, act.oneform(i, mu, monos[k]).components[nu])
                    for col, (mu, k) in enumerate(unknowns)
                )
            )
    coeffs = kernel_of_rows(rows, len(unknowns))

    def vec_to_form(v):
        comps = [zero] * ncoords
        for (mu, k), c in zip(unknowns, v):
            if c:
                comps[mu] = comps[mu] + mono_expr(ch, monos[k]) * c
        return OneForm(ch, tuple(comps))

    closed_inv = tuple(vec_to_form(v) for v in coeffs.basis)
    # differentials of invariant functions, one degree up
    inv = invariant_functions(p, AnsatzSpec(ansatz.degree + 1, ansatz.fourier))
    mono_index = {m: k for k, m in enumerate(monos)}
    d_vectors = []
    for f in inv.basis:
        df = gradient(f)
        v = [F(0)] * len(unknowns)
        usable = True
        for mu in range(ncoords):
            comp = df.components[mu]
            if comp.is_zero():
                continue
            if not comp.den.is_one():
                usable = False
                break
            for m, c in comp.num.terms.items():
                if m not in mono_index:
                    usable = False
                    break
                v[mu * len(monos) + mono_index[m]] = c
            if not usable:
                break
        if usable and any(v):
            d_vectors.append(tuple(v))
    dsub = Subspace.spanned_by(d_vectors, len(unknowns))
    zsub = Subspace(len(unknowns), coeffs.basis)
    qt = quotient(zsub, dsub)
    reps = tuple(vec_to_form(v) for v in qt.representatives)
    return InvariantForms(closed_inv, qt, reps, tuple(monos))


# ---------------------------------------------------------------------------
# stability subalgebras and cocycle restriction
# ---------------------------------------------------------------------------

def evaluation_matrix(p: GMPair, point) -> Mat:
    """Rows = chart coordinates, columns = generators; entries X_i^mu(point)."""
    rows = []
    for mu in range(len(p.chart.names)):
        row = []
        for i in range(p.algebra.dim):
            row.append(p.fields[i].components[mu].evaluate(point))
        rows.append(row)
    return Mat.from_rows(rows, p.algebra.dim)


def stability_subalgebra(p: GMPair, point) -> Subspace:
    """Kernel of x -> (x^i X_i)(point); raises EvaluationPole at field poles."""
    return kernel_basis(evaluation_matrix(p, point))


def _section_vectors(p: GMPair, point):
    out = []
    for section in p.stability_sections or ():
        out.append(tuple(comp.evaluate(point) for comp in section))
    return out


def restrict_cocycle(p: GMPair, alpha: FunctionCochain, point, check_constancy=None):
    """Evaluate a cocycle against the stability subalgebra basis at a point.

    Returns {basis_vector: value}.  With pair-provided stability sections the
    basis is the section evaluation (canonical across points) and, for
    transitive pairs, constancy over the pair's sample points is asserted.
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
            assert len(vecs) == stab.dim, "sections must span the stability subalgebra"
            for v in vecs:
                assert stab.contains(v), "section does not vanish at the point"
        else:
            vecs = list(stab.basis)
        out = []
        for v in vecs:
            s = F(0)
            for xi, comp in zip(v, alpha.components):
                if xi:
                    s += xi * comp.evaluate(pt)
            out.append(s)
        return vecs, out

    vecs, vals = values_at(point)
    if check_constancy:
        extra = [pt for pt in p.sample_points if pt != point][:2]
        for pt in extra:
            _, other = values_at(pt)
            assert other == vals, "cocycle restriction must be point-independent"
    return {tuple(v): val for v, val in zip(vecs, vals)}


def stability_values_of_constant_cocycles(p: GMPair, point):
    """The subspace {(t(xi_a))_a : t in Z^1(G)} of restriction values."""
    from .liealg import zero_one_cocycles

    stab = stability_subalgebra(p, point)
    if p.stability_sections is not None:
        vecs = _section_vectors(p, point)
    else:
        vecs = list(stab.basis)
    z1 = zero_one_cocycles(p.algebra)
    values = []
    for t in z1.basis:
        values.append(tuple(sum(a * b for a, b in zip(t, v)) for v in vecs))
    return Subspace.spanned_by(values, len(vecs)), vecs


# ---------------------------------------------------------------------------
# standard pairs
# ---------------------------------------------------------------------------

def _vf(ch, *comps):
    return VectorFieldExpr(ch, tuple(parse_expr(ch, c) for c in comps))


def standard_pair(name: str, **params) -> GMPair:
    """The worked pairs: l3_cylinder, translations(n), so3_r3, so3_sphere,
    galilean_r4, poincare_r4(c)."""
    if name == "l3_cylinder":
        ch = chart(("z", "line"), ("phi", "angle"))
        fields = (_vf(ch, "1", "0"), _vf(ch, "0", "z"), _vf(ch, "0", "1"))
        sections = ((parse_expr(ch, "0"), parse_expr(ch, "1"), parse_expr(ch, "-z")),)
        points = (
            {"z": F(1, 2), "phi": (F(3, 5), F(4, 5))},
            {"z": F(-2, 3), "phi": (F(0), F(1))},
            {"z": F(3), "phi": (F(-4, 5), F(3, 5))},
        )
        return GMPair(catalog("l3"), ch, fields, True, sections, points, name)
    if name == "translations":
        n = int(params.get("n", 2))
        ch = chart(*((f"q{i + 1}", "line") for i in range(n)))
        fields = []
        for i in range(n):
            comps = ["0"] * n
            comps[i] = "1"
            fields.append(_vf(ch, *comps))
        points = tuple(
            {f"q{i + 1}": F(base + i, 3) for i in range(n)} for base in (1, -2, 4)
        )
        return GMPair(catalog("abelian", n=n), ch, tuple(fields), True, (), points, name)
    if name == "so3_r3":
        ch = chart(("x1", "line"), ("x2", "line"), ("x3", "line"))
        fields = (
            _vf(ch, "0", "x3", "-x2"),
            _vf(ch, "-x3", "0", "x1"),
            _vf(ch, "x2", "-x1", "0"),
        )
        sections = ((parse_expr(ch, "x1"), parse_expr(ch, "x2"), parse_expr(ch, "x3")),)
        points = (
            {"x1": F(1), "x2": F(2), "x3": F(2)},
            {"x1": F(0), "x2": F(1), "x3": F(0)},
            {"x1": F(-1), "x2": F(1, 2), "x3": F(3)},
        )
        return GMPair(catalog("so3"), ch, fields, False, sections, points, name)
    if name == "so3_sphere":
        # stereographic chart of the sphere minus its projection pole
        ch = chart(("u", "line"), ("v", "line"))
        fields = (
            _vf(ch, "-u*v", "(u^2 - v^2 - 1)/2"),
            _vf(ch, "(u^2 - v^2 + 1)/2", "u*v"),
            _vf(ch, "v", "-u"),
        )
        rho = "(u^2 + v^2)"
        sections = (
            (
                parse_expr(ch, f"2*u/(1 + {rho})"),
                parse_expr(ch, f"2*v/(1 + {rho})"),
                parse_expr(ch, f"({rho} - 1)/(1 + {rho})"),
            ),
        )
        points = (
            {"u": F(1), "v": F(0)},
            {"u": F(1, 2), "v": F(1, 3)},
            {"u": F(-2), "v": F(1, 5)},
        )
        return GMPair(catalog("so3"), ch, fields, True, sections, points, name)
    if name == "galilean_r4":
        fields = poincare_fields(None)
        points = (
            {"t": F(1, 2), "x1": F(1), "x2": F(-1, 3), "x3": F(2)},
            {"t": F(-1), "x1": F(0), "x2": F(2, 5), "x3": F(1)},
            {"t": F(3), "x1": F(1, 7), "x2": F(-2), "x3": F(0)},
        )
        return GMPair(catalog("galilean"), R4, fields, True, None, points, name)
    if name == "poincare_r4":
        c = F(params.get("c", 1))
        fields = poincare_fields(c)
        points = (
            {"t": F(1, 2), "x1": F(1), "x2": F(-1, 3), "x3": F(2)},
            {"t": F(-1), "x1": F(0), "x2": F(2, 5), "x3": F(1)},
        )
        return GMPair(catalog("poincare", c=c), R4, fields, True, None, points, name)
    raise KeyError(f"no standard pair named {name!r}")
