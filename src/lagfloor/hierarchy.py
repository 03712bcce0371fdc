"""The floor classification of weakly invariant Lagrangians.

For a pair (algebra action on a chart) and a rank-1 Lagrangian L, the Lie
derivatives along the fundamental fields split, when L is weakly invariant,
as  delta_i L = w_i(q) . qdot + t_i  with every w_i closed and t constant.
The classifier then walks an obstruction chain:

  psi   : the constant vector t as a class in K0 = H^1(G)
  phi_1 : harmonic parts of the w_i in K1 = H^1(M) (x) H^1(G)
  phi_2 : the constant 2-cocycle f = delta(alpha) in K2 = H^2(G),
          where d alpha_i = w_i
  phi_3 : the class of the adjusted alpha among function-valued 1-cocycles
          modulo contractions of closed forms and constants (K3); nonzero
          classes are certified by restriction to a stability subalgebra
  phi_4 : the witness form's class in K4 = H^1(M) / image of invariant forms

The floor is the last stage with all classes zero (4 when the chain
completes); the sign records whether t vanished (time-independent Noether
charges).  Witness searches are linear solves over a declared ansatz, so
"Undetermined" is a first-class outcome: nonzero phi_3 is only ever claimed
with a restriction certificate in hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import (
    AnsatzExhausted,
    OneForm,
    TwoForm,
    d_el,
    derham_split,
    euler_lagrange,
    exterior_derivative,
    gradient,
    is_closed,
    lie_derivative_lagrangian,
    lie_derivative_oneform,
    lie_derivative_scalar,
    lie_derivative_twoform,
    total_time_derivative,
)
from .cecohom import Cochain, GModule, ce_differential, cohomology, coboundary_witness, validate_module
from .expr import TP, UNIT, AnsatzSpec, EvaluationPole, Expr, function_monomials, mono_expr
from .exprspace import MonoIndex, add_scaled, equation_rows, poly_terms, solve_linear_expr_system
from .liealg import zero_one_cocycles
from .linalg import Echelon, InvariantViolation, Mat, Subspace, kernel_of_rows, quotient, span_coordinates
from .pairs import (
    CapExceeded as CapExceededError,
    FunctionCochain,
    GMPair,
    closedness_rows,
    invariant_closed_forms,
    pi_images,
    pi_map,
    restrict_cocycle,
    scalar_coboundary,
    stability_values_of_constant_cocycles,
)
from .spectral import DoubleComplex, validate_double_complex

F = Fraction

ZERO = "zero"
NONZERO = "nonzero"
NOT_REACHED = "not_reached"
UNDETERMINED = "undetermined"


class NotWeaklyInvariantError(Exception):
    def __init__(self, generator, residue):
        super().__init__(f"not weakly invariant at generator {generator}: residue {residue!r}")
        self.generator = generator
        self.residue = residue


class PotentialUnavailable(Exception):
    pass


class UndeterminedError(Exception):
    def __init__(self, stage, ansatz):
        super().__init__(f"stage {stage} undetermined within ansatz {ansatz}")
        self.stage = stage
        self.ansatz = ansatz


@dataclass(frozen=True)
class ClassifyOptions:
    degree: int = 3
    fourier: int = 3
    closure_cap: int = 64


@dataclass(frozen=True)
class WeakInvarianceSplit:
    pair: GMPair
    w: tuple[OneForm, ...]
    t: tuple[Fraction, ...]


@dataclass
class ObstructionWitness:
    stage: int = 0
    alpha: tuple | None = None  # potentials, after the phi2 adjustment
    f2: dict | None = None  # constant 2-cocycle (i,j) -> Fraction
    k3_witness: tuple | None = None  # (OneForm w, t'' tuple, Expr f)
    k3_certificate: dict | None = None  # restriction data when nonzero
    k4_form: OneForm | None = None


@dataclass
class ClassValue:
    status: str
    data: object = None

    def is_zero(self):
        return self.status == ZERO


@dataclass
class FloorReport:
    status: str  # "classified" | "not_weakly_invariant" | "undetermined"
    floor: int | None = None
    sign: str | None = None
    psi_class: ClassValue | None = None
    k1_class: ClassValue | None = None
    k2_class: ClassValue | None = None
    k3_class: ClassValue | None = None
    k4_class: ClassValue | None = None
    witnesses: ObstructionWitness = field(default_factory=ObstructionWitness)
    decomposition: dict | None = None  # floor-4 certificate
    failure: tuple | None = None  # (generator, residue) or (stage, ansatz)

    def classes_signature(self):
        """Comparable payloads (quotient coordinates, not representatives)."""

        def sig(cv):
            if cv is None:
                return None
            return (cv.status, cv.data)

        return (
            self.floor,
            self.sign,
            sig(self.psi_class),
            sig(self.k1_class),
            sig(self.k2_class),
            None if self.k3_class is None else self.k3_class.status,
            sig(self.k4_class),
        )


# ---------------------------------------------------------------------------
# stage 0: the split
# ---------------------------------------------------------------------------

def weak_invariance_split(p: GMPair, L: Expr) -> WeakInvarianceSplit:
    """delta_i L = w_i . qdot + t_i with w_i closed; exact and unique.

    Raises NotWeaklyInvariantError with the offending generator and residue
    (quadratic-in-velocity part, non-constant remainder, or non-closed w).
    """
    assert not L.has_accelerations(), "rank-1 Lagrangians only"
    ch = p.chart
    vel_names = [ch.velocity(n) for n in ch.names]
    ws = []
    ts = []
    for i in range(p.algebra.dim):
        d = lie_derivative_lagrangian(p.fields[i], L)
        try:
            coeffs = []
            for vn in vel_names:
                c = d.partial(vn).subs_zero(vel_names)
                coeffs.append(c)
            t_part = d.subs_zero(vel_names)
        except EvaluationPole:
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], d)
        rebuilt = t_part
        for c, vn in zip(coeffs, vel_names):
            rebuilt = rebuilt + c * Expr.var(ch, vn)
        residue = d - rebuilt
        if not residue.is_zero():
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], residue)
        t_val = t_part.const_value()
        if t_val is None:
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], t_part)
        w = OneForm(ch, tuple(coeffs))
        if not is_closed(w):
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], w)
        ws.append(w)
        ts.append(t_val)
    split = WeakInvarianceSplit(p, tuple(ws), tuple(ts))
    # delta^2 L = 0 forces t in Z^1(G); asserted, never assumed
    assert _in_z1(p, split.t), "split t-vector escaped Z^1: invariant violation"
    return split


def _in_z1(p: GMPair, t) -> bool:
    g = p.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            s = sum(g.coeff(i, j, k) * t[k] for k in range(g.dim))
            if s:
                return False
    return True


# ---------------------------------------------------------------------------
# psi and phi_1
# ---------------------------------------------------------------------------

def psi(split: WeakInvarianceSplit) -> ClassValue:
    """t as an element of Z^1(G) = H^1(G) (degree-1 coboundaries vanish)."""
    t = split.t
    if any(t):
        return ClassValue(NONZERO, tuple(t))
    return ClassValue(ZERO, tuple(t))


def phi1(p: GMPair, split: WeakInvarianceSplit):
    """(class in K1 = H^1(M) (x) H^1(G), stage-1 potentials alpha).

    The harmonic coefficient matrix columns are asserted to lie in Z^1(G).
    """
    ch = p.chart
    harmonic_matrix = {}  # (angle, generator) -> Fraction
    alphas = []
    for i, w in enumerate(split.w):
        harmonic, pot = derham_split(w)
        for a, c in harmonic.items():
            if c:
                harmonic_matrix[(a, i)] = c
        alphas.append(pot)
    for a in ch.angle_names:
        col = tuple(harmonic_matrix.get((a, i), F(0)) for i in range(p.algebra.dim))
        assert _in_z1(p, col), "harmonic column escaped Z^1: invariant violation"
    data = tuple(sorted(harmonic_matrix.items()))
    status = NONZERO if harmonic_matrix else ZERO
    return ClassValue(status, data), tuple(alphas)


# ---------------------------------------------------------------------------
# phi_2
# ---------------------------------------------------------------------------

# id-keyed caches hold the keyed objects too, so collected ids never alias
_H2_CACHE: dict = {}


def _h2(p: GMPair):
    key = id(p.algebra)
    if key not in _H2_CACHE:
        _H2_CACHE[key] = (p.algebra, cohomology(p.algebra, GModule.trivial(p.algebra), 2))
    return _H2_CACHE[key][1]


def phi2(p: GMPair, split: WeakInvarianceSplit, alphas):
    """Class of f_ij = (delta alpha)_ij in H^2(G), plus the adjusted alpha.

    f is asserted constant and a cocycle.  When the class vanishes, alpha is
    shifted by constants t' with delta t' = -f, so delta(alpha') = 0.
    """
    g = p.algebra
    alpha = FunctionCochain(p, tuple(alphas))
    f2 = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            val = alpha.delta_component(i, j)
            c = val.const_value()
            assert c is not None, "(delta alpha) must be constant for closed splits"
            if c:
                f2[(i, j)] = c
    triv = GModule.trivial(g)
    z = Cochain(2, triv, {ij: (v,) for ij, v in f2.items()})
    assert not any(ce_differential(g, triv, 2).mul_vec(z.to_vector())), "f must be a 2-cocycle"
    witness = coboundary_witness(g, triv, z)
    if witness is None:
        coords = _h2(p).quotient.reduce(z.to_vector())
        return ClassValue(NONZERO, tuple(coords)), alpha, f2
    # delta t' = -f  =>  use -witness of f
    t_prime = tuple(-witness.value((k,))[0] for k in range(g.dim))
    adjusted = alpha.add_constants(t_prime)
    assert adjusted.is_cocycle(), "adjusted alpha must satisfy delta(alpha') = 0"
    return ClassValue(ZERO, tuple(F(0) for _ in range(_h2(p).dim))), adjusted, f2


# ---------------------------------------------------------------------------
# phi_3
# ---------------------------------------------------------------------------

def _closed_form_unknowns(p: GMPair, degree, fourier):
    """Monomial one-form unknowns plus their closedness equations.

    Returns (basis forms as (mu, mono), closedness equation builder).
    """
    ch = p.chart
    monos = function_monomials(ch, degree, fourier)
    unknowns = [(mu, m) for mu in range(len(ch.names)) for m in monos]
    return unknowns, monos


def phi3(p: GMPair, alpha: FunctionCochain, opts: ClassifyOptions):
    """Witness search for alpha_i = (pi w)_i + t''_i + X_i f, else certificate.

    Zero: returns the witness (closed w, constants t'' in Z^1, potential f).
    Nonzero: only with a stability-restriction certificate in hand.
    Otherwise Undetermined at the declared ansatz.

    When the components generate a finite module within the closure cap,
    alpha is cross-checked as an honest module-valued cocycle; a blown cap
    (e.g. rotations acting on chart polynomials) is not fatal, since the
    witness search and the restriction certificate never need the module.
    """
    ch = p.chart
    g = p.algebra
    try:
        from .pairs import closure_module, function_cochain_to_module_cochain

        fm = closure_module(p, [c for c in alpha.components if not c.is_zero()], cap=opts.closure_cap)
        z = function_cochain_to_module_cochain(fm, alpha)
        d = ce_differential(g, fm.module, 1)
        assert not any(d.mul_vec(z.to_vector())), "alpha must be a module cocycle"
    except CapExceededError:
        pass
    deg = max(opts.degree, max(c.line_degree() for c in alpha.components) + 1)
    four = max(opts.fourier, max(c.fourier_order() for c in alpha.components))
    unknowns, monos = _closed_form_unknowns(p, deg, four)
    z1 = zero_one_cocycles(g)
    columns = []
    n = g.dim
    ncoords = len(ch.names)
    zero = Expr.const(ch, 0)
    closed_pairs = [(a, b) for a in range(ncoords) for b in range(a + 1, ncoords)]
    # equations: n cochain identities, then closedness of w
    act = p.action
    for mu, m in unknowns:
        me = mono_expr(ch, m)
        eqs = [act.contraction(i, mu, m) for i in range(n)]  # (pi w)_i contributions
        for a, b in closed_pairs:
            if mu == b:
                eqs.append(me.partial(ch.names[a]))
            elif mu == a:
                eqs.append(-me.partial(ch.names[b]))
            else:
                eqs.append(zero)
        columns.append(eqs)
    for tvec in z1.basis:
        eqs = [Expr.const(ch, tvec[i]) for i in range(n)]
        eqs.extend([zero] * len(closed_pairs))
        columns.append(eqs)
    fmonos = function_monomials(ch, deg + 1, four)
    for m in fmonos:
        eqs = [act.scalar(i, m) for i in range(n)]
        eqs.extend([zero] * len(closed_pairs))
        columns.append(eqs)
    rhs = list(alpha.components) + [zero] * len(closed_pairs)
    sol = solve_linear_expr_system(columns, rhs)
    if sol is not None:
        nw = len(unknowns)
        nt = z1.dim
        wcomps = [zero] * ncoords
        for (mu, m), c in zip(unknowns, sol[:nw]):
            if c:
                wcomps[mu] = wcomps[mu] + mono_expr(ch, m) * c
        w = OneForm(ch, tuple(wcomps))
        t2 = tuple(
            sum((sol[nw + a] * z1.basis[a][i] for a in range(nt)), F(0)) for i in range(n)
        )
        fexpr = Expr.const(ch, 0)
        for m, c in zip(fmonos, sol[nw + nt :]):
            if c:
                fexpr = fexpr + mono_expr(ch, m) * c
        assert is_closed(w)
        # exact witness check
        rebuilt = pi_map(p, w).add_constants(t2) + scalar_coboundary(p, fexpr)
        assert all((a - b).is_zero() for a, b in zip(rebuilt.components, alpha.components))
        return ClassValue(ZERO, None), (w, t2, fexpr)
    # no witness within the ansatz: try a restriction certificate
    for point in p.sample_points:
        try:
            values = restrict_cocycle(p, alpha, point, check_constancy=False)
        except EvaluationPole:
            continue
        vals = tuple(values.values())
        if not any(vals):
            continue
        accounted, _ = stability_values_of_constant_cocycles(p, point)
        if not accounted.contains(vals):
            cert = {"point": point, "values": values}
            return ClassValue(NONZERO, cert), None
    raise UndeterminedError(3, AnsatzSpec(deg, four))


# ---------------------------------------------------------------------------
# phi_4
# ---------------------------------------------------------------------------

_INV_FORMS_CACHE: dict = {}


def _invariant_forms(p: GMPair, opts: ClassifyOptions):
    key = (id(p), opts.degree, opts.fourier)
    if key not in _INV_FORMS_CACHE:
        _INV_FORMS_CACHE[key] = (p, invariant_closed_forms(p, AnsatzSpec(opts.degree, opts.fourier)))
    return _INV_FORMS_CACHE[key][1]


def harmonic_vector(w: OneForm):
    from .calculus import harmonic_coefficient

    ch = w.chart
    return tuple(harmonic_coefficient(w.components[ch.names.index(a)]) for a in ch.angle_names)


def k4_quotient(p: GMPair, opts: ClassifyOptions):
    """H^1(M) modulo the image of closed invariant forms, as a quotient of
    the harmonic coordinate space R^{angles}."""
    ch = p.chart
    nb = len(ch.angle_names)
    inv = _invariant_forms(p, opts)
    image = Subspace.spanned_by([harmonic_vector(w) for w in inv.closed_invariant_basis], nb)
    full = Subspace(nb, tuple(tuple(F(i == j) for j in range(nb)) for i in range(nb)))
    return quotient(full, image), inv


def phi4(p: GMPair, L: Expr, split, alpha, k3_witness, opts: ClassifyOptions):
    """Class of the witness form in K4; on zero, the certified decomposition
    L = L_inv + w_inv + d_EL f' (L_inv verified by direct Lie derivative)."""
    w, t2, fexpr = k3_witness
    qt, inv = k4_quotient(p, opts)
    h = harmonic_vector(w)
    coords = qt.reduce(h)
    if any(coords):
        return ClassValue(NONZERO, tuple(coords)), None
    # decomposition: write w = w_inv + d f''
    w_inv = OneForm(p.chart, tuple(Expr.const(p.chart, 0) for _ in p.chart.names))
    if any(h):
        combo = span_coordinates([harmonic_vector(x) for x in inv.closed_invariant_basis], h)
        assert combo is not None
        for c, form in zip(combo, inv.closed_invariant_basis):
            if c:
                w_inv = w_inv + form.scale(c)
    residue_form = w - w_inv
    from .calculus import find_potential

    f2 = find_potential(residue_form)
    if f2 is None:
        raise UndeterminedError(4, "potential adjustment exhausted the ansatz")
    l_inv = L - w.as_lagrangian() - d_el(fexpr)
    # verify: delta_i L_inv = t_i exactly (invariant on the + track)
    for i in range(p.algebra.dim):
        d = lie_derivative_lagrangian(p.fields[i], l_inv)
        assert (d - Expr.const(p.chart, split.t[i])).is_zero(), "decomposition failed verification"
    decomposition = {
        "l_inv": l_inv,
        "w_inv": w_inv,
        "full_derivative_potential": fexpr + f2,
        "t": split.t,
    }
    return ClassValue(ZERO, tuple(coords)), decomposition


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def classify(p: GMPair, L: Expr, opts: ClassifyOptions | None = None) -> FloorReport:
    """Run the full obstruction chain and assign the floor and sign.

    The barred chain (time-dependent charges allowed) is primary; the sign
    is + exactly when psi vanishes, in which case the unbarred homomorphisms
    coincide with the barred ones stage by stage.
    """
    opts = opts or ClassifyOptions()
    report = FloorReport(status="classified")
    try:
        split = weak_invariance_split(p, L)
    except NotWeaklyInvariantError as e:
        return FloorReport(status="not_weakly_invariant", failure=(e.generator, e.residue))
    report.psi_class = psi(split)
    sign = "+" if report.psi_class.is_zero() else "-"
    try:
        report.k1_class, alphas = phi1(p, split)
    except AnsatzExhausted as e:
        return FloorReport(
            status="undetermined", psi_class=report.psi_class, failure=(1, str(e))
        )
    if not report.k1_class.is_zero():
        report.floor, report.sign = 0, sign
        report.k2_class = ClassValue(NOT_REACHED)
        report.k3_class = ClassValue(NOT_REACHED)
        report.k4_class = ClassValue(NOT_REACHED)
        return report
    report.k2_class, alpha, f2 = phi2(p, split, alphas)
    report.witnesses.alpha = alpha.components
    report.witnesses.f2 = f2
    report.witnesses.stage = 2
    if not report.k2_class.is_zero():
        report.floor, report.sign = 1, sign
        report.k3_class = ClassValue(NOT_REACHED)
        report.k4_class = ClassValue(NOT_REACHED)
        return report
    try:
        report.k3_class, k3_witness = phi3(p, alpha, opts)
    except UndeterminedError as e:
        report.status = "undetermined"
        report.failure = (e.stage, str(e.ansatz))
        return report
    if not report.k3_class.is_zero():
        report.witnesses.k3_certificate = report.k3_class.data
        report.floor, report.sign = 2, sign
        report.k4_class = ClassValue(NOT_REACHED)
        return report
    report.witnesses.k3_witness = k3_witness
    report.witnesses.k4_form = k3_witness[0]
    report.witnesses.stage = 3
    try:
        report.k4_class, decomposition = phi4(p, L, split, alpha, k3_witness, opts)
    except UndeterminedError as e:
        report.status = "undetermined"
        report.failure = (e.stage, str(e.ansatz))
        return report
    if not report.k4_class.is_zero():
        report.floor, report.sign = 3, sign
        return report
    report.floor, report.sign = 4, sign
    report.witnesses.stage = 4
    report.decomposition = decomposition
    return report


# ---------------------------------------------------------------------------
# Noether charges
# ---------------------------------------------------------------------------

def noether_charges(p: GMPair, L: Expr, report: FloorReport):
    """N_i = X_i^mu dL/d(dq^mu) - alpha_i - t_i tau, conservation asserted:
    D_t N_i + X_i^mu F_mu(L) = 0 identically (D_t includes d/d tau)."""
    if report.witnesses.alpha is None:
        raise PotentialUnavailable("charges need the stage-1 potentials (phi_1 = 0)")
    split = weak_invariance_split(p, L)
    ch = p.chart
    el = euler_lagrange(L)
    charges = []
    for i in range(p.algebra.dim):
        n_i = Expr.const(ch, 0)
        for mu, name in enumerate(ch.names):
            n_i = n_i + p.fields[i].components[mu] * L.partial(ch.velocity(name))
        n_i = n_i - report.witnesses.alpha[i]
        if split.t[i]:
            n_i = n_i - Expr.var(ch, "tau") * split.t[i]
        # conservation identity, asserted symbolically
        residual = total_time_derivative(n_i, tau=True)
        for mu in range(len(ch.names)):
            residual = residual + p.fields[i].components[mu] * el.components[mu]
        assert residual.is_zero(), "Noether conservation identity failed"
        charges.append(n_i)
    return tuple(charges)


# ---------------------------------------------------------------------------
# K-spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSpacesReport:
    truncation: ClassifyOptions
    k0_dim: int
    k1_dim: int
    k2_dim: int
    k3_dim: int
    k4_dim: int
    k0_reps: tuple
    k1_reps: tuple  # (angle name, Z^1 basis vector) pairs
    k2_reps: tuple
    k3_reps: tuple
    k4_reps: tuple
    k3_caveat: bool = True
    # truncated classes that neither reduced nor earned a nonzero
    # restriction certificate; an artifact of the ansatz, not a dimension
    k3_residual_dim: int = 0

    @property
    def dims(self):
        return (self.k0_dim, self.k1_dim, self.k2_dim, self.k3_dim, self.k4_dim)


def k3_space(p: GMPair, opts: ClassifyOptions):
    """Truncated K3: ansatz cocycles modulo {pi(w) + t + delta(f)}.

    Cocycles alpha live in the ansatz monomial space; the denominator is
    intersected with that space.  The f-degree is raised until the dimension
    stabilizes (the denominator grows monotonically).  Every system is read
    off the pair's action table as sparse monomial rows.  The closed forms,
    their pi images (both naturality identities checked once per basis
    form) and the constant cocycles do not depend on the f-degree and are
    computed once.
    """
    ch = p.chart
    g = p.algebra
    n = g.dim
    act = p.action
    monos = function_monomials(ch, opts.degree, opts.fourier)
    nm = len(monos)
    mono_exprs = [mono_expr(ch, m) for m in monos]
    # cocycle system: unknown i * nm + k is the coefficient of monos[k] in alpha_i
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            structure = [(i, g.coeff(a, b, i)) for i in range(n) if g.coeff(a, b, i)]
            terms = []
            for k, m in enumerate(monos):
                terms.append((b * nm + k, 1, act.scalar(a, m)))
                terms.append((a * nm + k, -1, act.scalar(b, m)))
                terms.extend((i * nm + k, -c, mono_exprs[k]) for i, c in structure)
            rows.extend(equation_rows(terms))
    zbasis = kernel_of_rows(rows, n * nm).basis
    # ambient order: generator slot, then each monomial's first appearance
    # in the cocycle basis; canonical echelon forms depend on it
    rank = {}
    for v in zbasis:
        for col, c in enumerate(v):
            if c:
                rank.setdefault(col % nm, len(rank))
    for k in range(nm):
        rank.setdefault(k, len(rank))
    order = sorted(range(nm), key=rank.__getitem__)
    ambient = n * nm

    def permuted(v):
        return tuple(v[slot * nm + k] for slot in range(n) for k in order)

    zsub = Subspace.spanned_by([permuted(v) for v in zbasis], ambient)
    # denominator generators as cochains of {monomial: coefficient} dicts
    units = [(mu, m) for mu in range(len(ch.names)) for m in monos]
    closed = kernel_of_rows(closedness_rows(p, monos), len(units))
    fixed = pi_images(p, units, closed.basis)
    for tvec in zero_one_cocycles(g).basis:
        fixed.append([{UNIT: tv} if tv else {} for tv in tvec])
    position = {m: rank[k] for k, m in enumerate(monos)}

    def inside_span(gens):
        """Vectors spanning span(gens) intersected with the ansatz space."""
        outside = {}
        inside = []
        for j, cochain in enumerate(gens):
            vec = {}
            for slot, terms in enumerate(cochain):
                for m, c in terms.items():
                    if m in position:
                        vec[slot * nm + position[m]] = c
                    else:
                        outside.setdefault((slot, m), {})[j] = c
            inside.append(vec)
        out = []
        # combinations whose outside coordinates cancel
        for combo in kernel_of_rows(list(outside.values()), len(gens)).basis:
            acc = {}
            for c, vec in zip(combo, inside):
                if c:
                    add_scaled(acc, c, vec)
            v = [F(0)] * ambient
            for col, x in acc.items():
                v[col] = x
            out.append(v)
        return out

    prev = None
    for extra in (1, 2, 3):
        coboundaries = [
            [poly_terms(act.scalar(i, m)) for i in range(n)]
            for m in function_monomials(ch, opts.degree + extra, opts.fourier)
        ]
        dsub = Subspace.spanned_by(inside_span(fixed + coboundaries), ambient)
        qt = quotient(zsub, dsub)
        if qt.dim == prev:
            reps = []
            for v in qt.representatives:
                comps = []
                for slot in range(n):
                    block = v[slot * nm : (slot + 1) * nm]
                    comps.append(Expr(ch, TP({monos[k]: c for k, c in zip(order, block) if c})))
                reps.append(FunctionCochain(p, tuple(comps)))
            return _certify_k3(p, qt.dim, tuple(reps))
        prev = qt.dim
    return _certify_k3(p, prev, ())


def _certify_k3(p: GMPair, raw_dim, reps):
    """Split the truncated classes into restriction-certified and residual.

    For transitive group-generated pairs a class restricting to zero on the
    stability subalgebra (modulo values of constant cocycles) cannot be
    exhibited nonzero; it is reported as residual, not as dimension.
    """
    if not p.transitive or raw_dim == 0 or not reps:
        return raw_dim, reps, 0
    point = None
    for candidate in p.sample_points:
        try:
            accounted, vecs = stability_values_of_constant_cocycles(p, candidate)
        except EvaluationPole:
            continue
        point = candidate
        break
    if point is None or not vecs:
        return raw_dim, reps, 0
    value_rows = []
    for alpha in reps:
        vals = restrict_cocycle(p, alpha, point, check_constancy=False)
        value_rows.append(tuple(vals.values()))
    nstab = len(vecs)
    joint = Subspace.spanned_by(list(accounted.basis) + value_rows, nstab)
    certified = joint.dim - accounted.dim
    certified_reps = []
    for alpha, row in zip(reps, value_rows):
        if not accounted.contains(row):
            certified_reps.append(alpha)
    return certified, tuple(certified_reps), raw_dim - certified


def k_spaces(p: GMPair, opts: ClassifyOptions | None = None) -> KSpacesReport:
    opts = opts or ClassifyOptions()
    g = p.algebra
    z1 = zero_one_cocycles(g)
    h2 = _h2(p)
    nb = len(p.chart.angle_names)
    qt4, _inv = k4_quotient(p, opts)
    k3_dim, k3_reps, k3_residual = k3_space(p, opts)
    k1_reps = tuple((a, t) for a in p.chart.angle_names for t in z1.basis)
    return KSpacesReport(
        truncation=opts,
        k0_dim=z1.dim,
        k1_dim=nb * z1.dim,
        k2_dim=h2.dim,
        k3_dim=k3_dim,
        k4_dim=qt4.dim,
        k0_reps=tuple(z1.basis),
        k1_reps=k1_reps,
        k2_reps=h2.representatives,
        k3_reps=k3_reps,
        k4_reps=tuple(qt4.representatives),
        k3_residual_dim=k3_residual,
    )


# ---------------------------------------------------------------------------
# truncated invariance double complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceComplex:
    dc: DoubleComplex
    modules: tuple[GModule, ...]  # (functions, one-forms, two-forms)
    bases: tuple  # object bases per column


def _slot_coords(obj, midx):
    """Sparse coordinates of a tuple of polynomial expressions: one column
    per (slot, monomial), numbered by the shared ``midx``."""
    v = {}
    for slot, comp in enumerate(obj):
        for m, c in poly_terms(comp).items():
            v[midx.key((slot, m))] = c
    return v


def _largest_invariant_subspace(objects, apply_ops, nops):
    """Largest subspace of span(objects) closed under all the operators.

    objects are tuples of expressions; operators act componentwise linearly.
    Deterministic: canonical kernel bases at every shrink step.
    """
    basis = list(objects)
    while basis:
        midx = MonoIndex()
        ech = Echelon()
        for b in basis:
            ech.insert(_slot_coords(b, midx))
        # combinations of the basis whose images all stay in the span
        residual_rows = {}
        for i in range(nops):
            for k, b in enumerate(basis):
                for col, x in ech.reduce(_slot_coords(apply_ops(i, b), midx)).items():
                    residual_rows.setdefault((i, col), {})[k] = x
        if not residual_rows:
            return basis
        combos = kernel_of_rows(list(residual_rows.values()), len(basis))
        if combos.dim == len(basis):
            return basis
        new_basis = []
        for combo in combos.basis:
            obj = None
            for c, b in zip(combo, basis):
                if not c:
                    continue
                scaled = tuple(comp * c for comp in b)
                obj = scaled if obj is None else tuple(x + y for x, y in zip(obj, scaled))
            if obj is not None:
                new_basis.append(obj)
        basis = new_basis
    return []


def _family_coordinates(family, midx, obj, failure):
    """Coordinates of obj in an independent family given by ``_slot_coords``."""
    sol = span_coordinates(family, _slot_coords(obj, midx))
    if sol is None:
        raise InvariantViolation(failure)
    return sol


def _columns_matrix(cols, nrows):
    return Mat(nrows, len(cols), tuple(c[t] for t in range(nrows) for c in cols))


def _module_from_objects(p, objects, apply_ops):
    """GModule of an action-closed family, plus the family's coordinates."""
    midx = MonoIndex()
    family = [_slot_coords(b, midx) for b in objects]
    mats = []
    for i in range(p.algebra.dim):
        cols = [_family_coordinates(family, midx, apply_ops(i, b), "family not closed under the action")
                for b in objects]
        mats.append(_columns_matrix(cols, len(objects)))
    gm = GModule(len(objects), p.algebra, tuple(mats), basis_labels=tuple(objects))
    if not validate_module(gm).ok:
        raise InvariantViolation("invariance module failed validation")
    return gm, family, midx


def build_invariance_double_complex(p: GMPair, opts: ClassifyOptions | None = None) -> InvarianceComplex:
    """C^p(G, Omega^q_trunc) for q in {0, 1, 2}, d1 = exterior derivative,
    d2 = the Chevalley-Eilenberg differential.

    The truncation is shrunk to the largest action-closed subspace of the
    requested ansatz (otherwise d2 would leave the grid), and Omega^2 is the
    image of d on Omega^1, so the top row is exact by construction.
    """
    opts = opts or ClassifyOptions()
    ch = p.chart
    g = p.algebra
    n = g.dim
    monos = function_monomials(ch, opts.degree, opts.fourier)
    funcs = [(mono_expr(ch, m),) for m in monos]

    def f_op(i, obj):
        return (lie_derivative_scalar(p.fields[i], obj[0]),)

    f_basis = _largest_invariant_subspace(funcs, f_op, n)
    ncoords = len(ch.names)
    zero = Expr.const(ch, 0)
    forms = []
    for mu in range(ncoords):
        for m in monos:
            comps = [zero] * ncoords
            comps[mu] = mono_expr(ch, m)
            forms.append(tuple(comps))

    def w_op(i, obj):
        return tuple(lie_derivative_oneform(p.fields[i], OneForm(ch, obj)).components)

    w_basis = _largest_invariant_subspace(forms, w_op, n)
    # Omega^2 = d(Omega^1)
    two_all = []
    for obj in w_basis:
        tw = exterior_derivative(OneForm(ch, obj))
        two_all.append(tuple(tw.components))
    # independent subset, deterministic
    midx2 = MonoIndex()
    ech = Echelon()
    t_basis = [obj for obj in two_all if ech.insert(_slot_coords(obj, midx2))]

    def t_op(i, obj):
        return tuple(lie_derivative_twoform(p.fields[i], TwoForm(ch, obj)).components)

    gm0, _, _ = _module_from_objects(p, f_basis, f_op)
    gm1, family1, midx1 = _module_from_objects(p, w_basis, w_op)
    gm2, family2, midx2 = _module_from_objects(p, t_basis, t_op) if t_basis else (None, None, None)

    def map_matrix(src_objs, family, midx, image_fn):
        cols = [_family_coordinates(family, midx, image_fn(obj), "image escaped the target family")
                for obj in src_objs]
        return _columns_matrix(cols, len(family))

    if f_basis and w_basis:
        d_f_to_w = map_matrix(f_basis, family1, midx1, lambda obj: tuple(gradient(obj[0]).components))
    else:
        d_f_to_w = Mat.zero(len(w_basis), len(f_basis))
    if t_basis:
        d_w_to_t = map_matrix(
            w_basis, family2, midx2, lambda obj: tuple(exterior_derivative(OneForm(ch, obj)).components)
        )
    else:
        d_w_to_t = Mat.zero(0, len(w_basis))
    modules = [gm0, gm1] + ([gm2] if gm2 else [])
    dims = []
    from .cecohom import cochain_tuples

    col_dims = [len(f_basis), len(w_basis), len(t_basis)]
    for pdeg in range(n + 1):
        ntuples = len(cochain_tuples(n, pdeg))
        dims.append([ntuples * col_dims[0], ntuples * col_dims[1], ntuples * col_dims[2]])
    d1 = {}
    d2 = {}
    for pdeg in range(n + 1):
        ntuples = len(cochain_tuples(n, pdeg))
        d1[(pdeg, 0)] = _block_diag(d_f_to_w, ntuples)
        d1[(pdeg, 1)] = _block_diag(d_w_to_t, ntuples)
        if pdeg < n:
            d2[(pdeg, 0)] = ce_differential(g, gm0, pdeg) if col_dims[0] else Mat.zero(0, 0)
            d2[(pdeg, 1)] = ce_differential(g, gm1, pdeg) if col_dims[1] else Mat.zero(0, 0)
            if gm2:
                d2[(pdeg, 2)] = ce_differential(g, gm2, pdeg)
    dc = DoubleComplex([[dims[pdeg][q] for q in range(3)] for pdeg in range(n + 1)], d1, d2)
    report = validate_double_complex(dc)
    assert report.ok, f"invariance complex failed validation: {report.violations[:3]}"
    bases = (tuple(f_basis), tuple(w_basis), tuple(t_basis))
    return InvarianceComplex(dc, tuple(modules), bases)


def _block_diag(m: Mat, count: int) -> Mat:
    rows, cols = m.rows * count, m.cols * count
    ent = [F(0)] * (rows * cols)
    for b in range(count):
        for i in range(m.rows):
            base = (b * m.rows + i) * cols + b * m.cols
            for j in range(m.cols):
                v = m[i, j]
                if v:
                    ent[base + j] = v
    return Mat(rows, cols, tuple(ent))
