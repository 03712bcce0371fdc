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
    find_potential,
    harmonic_coefficient,
    is_closed,
    lie_derivative_lagrangian,
    total_time_derivative,
)
from .cecohom import GModule, ce_differential, coboundary_witness, cochain_tuples, cohomology
from .expr import TP, UNIT, AnsatzSpec, EvaluationPole, Expr, function_monomials
from .exprspace import equation_rows
from .liealg import zero_one_cocycles
from .linalg import (
    Echelon,
    InvariantViolation,
    Mat,
    Subspace,
    add_scaled,
    clear_denominators,
    coordinate_map,
    dense,
    kernel_of_rows,
    quotient,
    solve_rows,
    span_coordinates,
)
from .pairs import (
    FunctionCochain,
    GMPair,
    action_module,
    closedness_rows,
    invariant_closed_forms,
    linear_image,
    pi_images,
    restrict_cocycle,
    stability_values_of_constant_cocycles,
)
from .spectral import MAX_COMPLEX_CELLS, ComplexTooLarge, DoubleComplex, validate_double_complex

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
    closure_cap: int = 64  # validated, read by no computation


@dataclass(frozen=True)
class WeakInvarianceSplit:
    pair: GMPair
    w: tuple[OneForm, ...]
    t: tuple[Fraction, ...]


@dataclass
class ObstructionWitness:
    alpha: tuple | None = None  # potentials, after the phi2 adjustment
    f2: dict | None = None  # constant 2-cocycle (i,j) -> Fraction
    k3_witness: tuple | None = None  # (OneForm w, t'' tuple, Expr f)
    k3_certificate: dict | None = None  # restriction data when nonzero


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
    if L.has_accelerations():
        raise InvariantViolation("rank-1 Lagrangians only")
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
    # delta^2 L = 0 forces t in Z^1(G); checked, never assumed
    if not _in_z1(p, split.t):
        raise InvariantViolation("split t-vector escaped Z^1")
    return split


def _in_z1(p: GMPair, t) -> bool:
    g = p.algebra
    return not ce_differential(g, GModule.trivial(g), 1).mul_vec({k: x for k, x in enumerate(t) if x})


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

    The harmonic coefficient matrix columns are checked to lie in Z^1(G).
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
        if not _in_z1(p, col):
            raise InvariantViolation("harmonic column escaped Z^1")
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

    f is checked to be constant and a cocycle.  When the class vanishes, alpha is
    shifted by constants t' with delta t' = -f, so delta(alpha') = 0.
    """
    g = p.algebra
    alpha = FunctionCochain(p, tuple(alphas))
    f2 = {}
    f = {}  # f2 as a 2-cochain vector
    for idx, (i, j) in enumerate(cochain_tuples(g.dim, 2)):
        c = alpha.delta_component(i, j).const_value()
        if c is None:
            raise InvariantViolation("(delta alpha) must be constant for closed splits")
        if c:
            f2[(i, j)] = f[idx] = c
    witness = coboundary_witness(g, GModule.trivial(g), 2, f)
    if witness is None:
        h2 = _h2(p)
        return ClassValue(NONZERO, dense(h2.reduce(f), h2.dim)), alpha, f2
    # delta t' = -f  =>  use -witness of f
    t_prime = tuple(-witness.get(k, 0) for k in range(g.dim))
    adjusted = alpha.add_constants(t_prime)
    if not adjusted.is_cocycle():
        raise InvariantViolation("adjusted alpha must satisfy delta(alpha') = 0")
    return ClassValue(ZERO, tuple(F(0) for _ in range(_h2(p).dim))), adjusted, f2


# ---------------------------------------------------------------------------
# phi_3
# ---------------------------------------------------------------------------

def phi3(p: GMPair, alpha: FunctionCochain, opts: ClassifyOptions):
    """Witness search for alpha_i = (pi w)_i + t''_i + X_i f, else certificate.

    Zero: returns the witness (closed w, constants t'' in Z^1, potential f).
    Nonzero: only with a stability-restriction certificate in hand.
    Otherwise Undetermined at the declared ansatz.

    No function module is built: delta(alpha) = 0 is certified once, in
    phi2 (restrict_cocycle checks it again only on the certificate path).

    The system is read off the pair's action table as sparse rows.  Its
    unknowns are the coefficients of w over the elementary forms (mu-major),
    then of t'' over the Z^1 basis, then of f over the monomials one degree
    up; the witness is the canonical particular solution in that order.
    """
    ch = p.chart
    deg = max(opts.degree, max(c.line_degree() for c in alpha.components) + 1)
    four = max(opts.fourier, max(c.fourier_order() for c in alpha.components))
    n = p.algebra.dim
    act = p.action
    monos = function_monomials(ch, deg, four)
    units = [(mu, m) for mu in range(len(ch.names)) for m in monos]
    z1 = zero_one_cocycles(p.algebra)
    fmonos = function_monomials(ch, deg + 1, four)
    nw = len(units)
    nt = z1.dim
    nunk = nw + nt + len(fmonos)
    rows = closedness_rows(p, monos)
    for i in range(n):
        terms = [(k, 1, act.contraction(i, mu, m)) for k, (mu, m) in enumerate(units)]
        terms += [(nw + a, 1, {UNIT: tvec[i]}) for a, tvec in enumerate(z1.basis) if i in tvec]
        terms += [(nw + nt + k, 1, act.scalar(i, m)) for k, m in enumerate(fmonos)]
        terms.append((nunk, -1, alpha.components[i]))
        rows.extend(equation_rows(terms))
    sol = solve_rows(rows, nunk)
    if sol is not None:
        wvec = {k: x for k, x in sol.items() if k < nw}
        wterms = [{} for _ in ch.names]
        for k, x in wvec.items():
            mu, m = units[k]
            wterms[mu][m] = x
        w = OneForm(ch, tuple(Expr(ch, TP(terms)) for terms in wterms))
        t2 = {}
        for a, tvec in enumerate(z1.basis):
            add_scaled(t2, sol.get(nw + a, 0), tvec)
        t2 = dense(t2, n)
        fexpr = Expr(ch, TP({m: sol[k] for k, m in enumerate(fmonos, nw + nt) if k in sol}))
        if not is_closed(w):
            raise InvariantViolation("the witness form must be closed")
        # exact witness check; pi_images certifies both naturality identities
        (pw,) = pi_images(p, units, [wvec])
        for i in range(n):
            rebuilt = Expr(ch, TP(pw[i])) + Expr.const(ch, t2[i]) + p.action.lie(i, fexpr)
            if not (rebuilt - alpha.components[i]).is_zero():
                raise InvariantViolation("the rebuilt witness must reproduce alpha")
        return ClassValue(ZERO, None), (w, t2, fexpr)
    # no witness within the ansatz: try a restriction certificate
    for point in p.sample_points:
        try:
            values = restrict_cocycle(p, alpha, point, check_constancy=False)
        except EvaluationPole:
            continue
        vals = {a: x for a, x in enumerate(values.values()) if x}
        if not vals:
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
    ch = w.chart
    coeffs = (harmonic_coefficient(w.components[ch.names.index(a)]) for a in ch.angle_names)
    return {k: c for k, c in enumerate(coeffs) if c}


def k4_quotient(p: GMPair, opts: ClassifyOptions):
    """H^1(M) modulo the image of closed invariant forms, as a quotient of
    the harmonic coordinate space R^{angles}."""
    ch = p.chart
    nb = len(ch.angle_names)
    inv = _invariant_forms(p, opts)
    image = Subspace.spanned_by([harmonic_vector(w) for w in inv], nb)
    full = Subspace(nb, tuple({i: F(1)} for i in range(nb)))
    return quotient(full, image), inv


def phi4(p: GMPair, L: Expr, split, alpha, k3_witness, opts: ClassifyOptions):
    """Class of the witness form in K4; on zero, the certified decomposition
    L = L_inv + w_inv + d_EL f' (L_inv verified by direct Lie derivative)."""
    w, t2, fexpr = k3_witness
    qt, inv = k4_quotient(p, opts)
    h = harmonic_vector(w)
    coords = qt.reduce(h)
    if coords:
        return ClassValue(NONZERO, dense(coords, qt.dim)), None
    # decomposition: write w = w_inv + d f''
    w_inv = OneForm(p.chart, tuple(Expr.const(p.chart, 0) for _ in p.chart.names))
    if h:
        combo = span_coordinates([harmonic_vector(x) for x in inv], h)
        if combo is None:
            raise InvariantViolation("a zero K4 class must lie in the span of the invariant forms")
        for k, c in sorted(combo.items()):
            w_inv = w_inv + inv[k].scale(c)
    residue_form = w - w_inv
    f2 = find_potential(residue_form)
    if f2 is None:
        raise UndeterminedError(4, "potential adjustment exhausted the ansatz")
    l_inv = L - w.as_lagrangian() - d_el(fexpr)
    # verify: delta_i L_inv = t_i exactly (invariant on the + track)
    for i in range(p.algebra.dim):
        d = lie_derivative_lagrangian(p.fields[i], l_inv)
        if not (d - Expr.const(p.chart, split.t[i])).is_zero():
            raise InvariantViolation("decomposition failed verification")
    decomposition = {
        "l_inv": l_inv,
        "w_inv": w_inv,
        "full_derivative_potential": fexpr + f2,
        "t": split.t,
    }
    return ClassValue(ZERO, dense(coords, qt.dim)), decomposition


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
    report.decomposition = decomposition
    return report


# ---------------------------------------------------------------------------
# Noether charges
# ---------------------------------------------------------------------------

def noether_charges(p: GMPair, L: Expr, report: FloorReport):
    """N_i = X_i^mu dL/d(dq^mu) - alpha_i - t_i tau, conservation checked:
    D_t N_i + X_i^mu F_mu(L) = 0 identically (D_t includes d/d tau).

    t is read from the report's psi class; the conservation identity, checked
    for every charge, rejects a report made from another Lagrangian."""
    if report.witnesses.alpha is None:
        raise PotentialUnavailable("charges need the stage-1 potentials (phi_1 = 0)")
    t = report.psi_class.data
    ch = p.chart
    el = euler_lagrange(L)
    charges = []
    for i in range(p.algebra.dim):
        n_i = Expr.const(ch, 0)
        for mu, name in enumerate(ch.names):
            n_i = n_i + p.fields[i].components[mu] * L.partial(ch.velocity(name))
        n_i = n_i - report.witnesses.alpha[i]
        if t[i]:
            n_i = n_i - Expr.var(ch, "tau") * t[i]
        # conservation identity, checked symbolically
        residual = total_time_derivative(n_i, tau=True)
        for mu in range(len(ch.names)):
            residual = residual + p.fields[i].components[mu] * el.components[mu]
        if not residual.is_zero():
            raise InvariantViolation("Noether conservation identity failed")
        charges.append(n_i)
    return tuple(charges)


# ---------------------------------------------------------------------------
# K-spaces
# ---------------------------------------------------------------------------

# f-degree raises over the cocycle degree that k3_space tries in turn; K3 is
# determined once two successive raises give the same dimension
K3_F_RAISES = (1, 2, 3)


@dataclass(frozen=True)
class KSpacesReport:
    k0_dim: int
    k1_dim: int
    k2_dim: int
    k3_dim: int
    k4_dim: int
    k0_reps: tuple
    k1_reps: tuple  # (angle name, Z^1 basis vector) pairs
    k2_reps: tuple  # H^2(G) representatives as 2-cochain vectors
    k3_reps: tuple
    k4_reps: tuple
    # truncated classes that neither reduced nor earned a nonzero
    # restriction certificate; an artifact of the ansatz, not a dimension
    k3_residual_dim: int = 0

    @property
    def dims(self):
        return (self.k0_dim, self.k1_dim, self.k2_dim, self.k3_dim, self.k4_dim)


def k3_space(p: GMPair, opts: ClassifyOptions):
    """Truncated K3: ansatz cocycles modulo {pi(w) + t + delta(f)}.

    Cocycles alpha live in the ansatz monomial space; the denominator is
    intersected with that space.  The f-degree is raised over the cocycle
    degree by each step of K3_F_RAISES until the dimension stabilizes (the
    denominator grows monotonically); a dimension that never stabilizes is
    not reported but raises UndeterminedError(3).  Every system is read
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
    mono_vectors = [{m: F(1)} for m in monos]
    # cocycle system: unknown i * nm + k is the coefficient of monos[k] in alpha_i
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            structure = [(i, g.coeff(a, b, i)) for i in range(n) if g.coeff(a, b, i)]
            terms = []
            for k, m in enumerate(monos):
                terms.append((b * nm + k, 1, act.scalar(a, m)))
                terms.append((a * nm + k, -1, act.scalar(b, m)))
                terms.extend((i * nm + k, -c, mono_vectors[k]) for i, c in structure)
            rows.extend(equation_rows(terms))
    zbasis = kernel_of_rows(rows, n * nm).basis
    # ambient order: generator slot, then each monomial's first appearance
    # in the cocycle basis; canonical echelon forms depend on it
    rank = {}
    for v in zbasis:
        for col in sorted(v):
            rank.setdefault(col % nm, len(rank))
    for k in range(nm):
        rank.setdefault(k, len(rank))
    order = sorted(range(nm), key=rank.__getitem__)
    ambient = n * nm

    def permuted(v):
        return {col - col % nm + rank[col % nm]: x for col, x in v.items()}

    zsub = Subspace.spanned_by([permuted(v) for v in zbasis], ambient)
    # denominator generators as cochains of {monomial: coefficient} dicts
    units = [(mu, m) for mu in range(len(ch.names)) for m in monos]
    closed = kernel_of_rows(closedness_rows(p, monos), len(units))
    fixed = pi_images(p, units, closed.basis)
    for tvec in zero_one_cocycles(g).basis:
        fixed.append([{UNIT: tvec[i]} if i in tvec else {} for i in range(n)])
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
        for combo in kernel_of_rows([clear_denominators(r) for r in outside.values()], len(gens)).basis:
            acc = {}
            for k, c in sorted(combo.items()):
                add_scaled(acc, c, inside[k])
            out.append(acc)
        return out

    prev = None
    for extra in K3_F_RAISES:
        coboundaries = [
            [act.scalar(i, m) for i in range(n)]
            for m in function_monomials(ch, opts.degree + extra, opts.fourier)
        ]
        dsub = Subspace.spanned_by(inside_span(fixed + coboundaries), ambient)
        qt = quotient(zsub, dsub)
        if qt.dim == prev:
            reps = []
            for v in qt.representatives:
                comps = [{} for _ in range(n)]
                for col, c in sorted(v.items()):
                    comps[col // nm][monos[order[col % nm]]] = c
                reps.append(FunctionCochain(p, tuple(Expr(ch, TP(terms)) for terms in comps)))
            return _certify_k3(p, qt.dim, tuple(reps))
        prev = qt.dim
    raise UndeterminedError(3, AnsatzSpec(opts.degree + extra, opts.fourier))


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
        value_rows.append({a: x for a, x in enumerate(vals.values()) if x})
    # as in ``quotient``: the reps whose values raise the rank of the
    # accounted values and of the reps before them are the certified ones
    ech = Echelon()
    for v in accounted.basis:
        ech.insert(v)
    certified = tuple(alpha for alpha, row in zip(reps, value_rows) if ech.insert(row))
    return len(certified), certified, raw_dim - len(certified)


def k_spaces(p: GMPair, opts: ClassifyOptions | None = None) -> KSpacesReport:
    opts = opts or ClassifyOptions()
    g = p.algebra
    z1 = zero_one_cocycles(g)
    h2 = _h2(p)
    nb = len(p.chart.angle_names)
    qt4, _inv = k4_quotient(p, opts)
    k3_dim, k3_reps, k3_residual = k3_space(p, opts)
    k0_reps = tuple(dense(t, g.dim) for t in z1.basis)
    k1_reps = tuple((a, t) for a in p.chart.angle_names for t in k0_reps)
    return KSpacesReport(
        k0_dim=z1.dim,
        k1_dim=nb * z1.dim,
        k2_dim=h2.dim,
        k3_dim=k3_dim,
        k4_dim=qt4.dim,
        k0_reps=k0_reps,
        k1_reps=k1_reps,
        k2_reps=h2.representatives,
        k3_reps=k3_reps,
        k4_reps=tuple(dense(v, nb) for v in qt4.representatives),
        k3_residual_dim=k3_residual,
    )


# ---------------------------------------------------------------------------
# truncated invariance double complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceComplex:
    dc: DoubleComplex
    bases: tuple  # per column, {unit: coefficient} vectors


def _keyed_terms(keys, comps):
    """{(key, monomial): coefficient} of the component vectors, one per key."""
    return {(key, m): c for key, comp in zip(keys, comps) for m, c in comp.items()}


def _largest_invariant_subspace(basis, unit_images):
    """Largest subspace of span(basis) closed under all the operators.

    Vectors are sparse {unit: coefficient} dicts and each operator is given
    by its images of units.  Deterministic: canonical kernel bases at every
    shrink step.
    """
    while basis:
        ech = Echelon()
        for b in basis:
            ech.insert(b)
        # combinations of the basis whose images all stay in the span
        residual_rows = {}
        for i, unit_image in enumerate(unit_images):
            for k, b in enumerate(basis):
                for unit, x in ech.reduce(linear_image(b, unit_image)).items():
                    residual_rows.setdefault((i, unit), {})[k] = x
        if not residual_rows:
            return basis
        combos = kernel_of_rows([clear_denominators(r) for r in residual_rows.values()], len(basis))
        if combos.dim == len(basis):
            return basis
        new_basis = []
        for combo in combos.basis:
            acc = {}
            for k, c in sorted(combo.items()):
                add_scaled(acc, c, basis[k])
            new_basis.append(acc)
        basis = new_basis
    return []


def build_invariance_double_complex(p: GMPair, opts: ClassifyOptions | None = None) -> InvarianceComplex:
    """C^p(G, Omega^q_trunc) for q in {0, 1, 2}, d1 = exterior derivative,
    d2 = the Chevalley-Eilenberg differential.

    The truncation is shrunk to the largest action-closed subspace of the
    requested ansatz (otherwise d2 would leave the grid), and Omega^2 is the
    image of d on Omega^1, so the top row is exact by construction.  Every
    object is a sparse vector over units: a monomial m, an elementary 1-form
    (mu, m) or an elementary 2-form ((a, b), m).  The generator action and d
    are read off the pair's action table.  A complex of more than
    MAX_COMPLEX_CELLS cells raises ComplexTooLarge once the three bases are
    known, before any matrix is built.
    """
    opts = opts or ClassifyOptions()
    ch = p.chart
    g = p.algebra
    n = g.dim
    act = p.action
    ncoords = len(ch.names)
    pairs = TwoForm.pairs(ch)
    monos = function_monomials(ch, opts.degree, opts.fourier)

    def f_unit(i):
        return lambda m: act.scalar(i, m)

    def w_unit(i):
        return lambda unit: _keyed_terms(range(ncoords), act.oneform(i, *unit))

    def t_unit(i):
        return lambda unit: _keyed_terms(pairs, act.twoform(i, *unit))

    def df_unit(m):
        return _keyed_terms(range(ncoords), [act.partial(mu, m) for mu in range(ncoords)])

    def dw_unit(unit):
        """d(m dq^mu): dm/dq^a on the pair (a, mu), -dm/dq^b on (mu, b)."""
        mu, m = unit
        comps = [
            act.partial(a, m) if b == mu else {k: -c for k, c in act.partial(b, m).items()} if a == mu else {}
            for a, b in pairs
        ]
        return _keyed_terms(pairs, comps)

    f_basis = _largest_invariant_subspace([{m: F(1)} for m in monos], [f_unit(i) for i in range(n)])
    forms = [{(mu, m): F(1)} for mu in range(ncoords) for m in monos]
    w_basis = _largest_invariant_subspace(forms, [w_unit(i) for i in range(n)])
    # Omega^2 = d(Omega^1): an independent subset, deterministic
    ech = Echelon()
    t_basis = [tw for tw in (linear_image(w, dw_unit) for w in w_basis) if ech.insert(tw)]
    # the sum over p of C(n, p) * (dim Omega^0 + dim Omega^1 + dim Omega^2)
    cells_needed = 2 ** n * (len(f_basis) + len(w_basis) + len(t_basis))
    if cells_needed > MAX_COMPLEX_CELLS:
        raise ComplexTooLarge("invariance complex", cells_needed)
    families = [(f_basis, f_unit), (w_basis, w_unit)] + ([(t_basis, t_unit)] if t_basis else [])
    modules = [action_module(g, family, [unit(i) for i in range(n)]) for family, unit in families]
    if f_basis and w_basis:
        d_f_to_w = coordinate_map(w_basis, [linear_image(f, df_unit) for f in f_basis], "image escaped the target family")
    else:
        d_f_to_w = Mat.zero(len(w_basis), len(f_basis))
    if t_basis:
        d_w_to_t = coordinate_map(t_basis, [linear_image(w, dw_unit) for w in w_basis], "image escaped the target family")
    else:
        d_w_to_t = Mat.zero(0, len(w_basis))
    gm0, gm1 = modules[:2]
    gm2 = modules[2] if t_basis else None
    dims = []
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
    if not report.ok:
        raise InvariantViolation(f"invariance complex failed validation: {report.violations[:3]}")
    bases = (tuple(f_basis), tuple(w_basis), tuple(t_basis))
    return InvarianceComplex(dc, bases)


def _block_diag(m: Mat, count: int) -> Mat:
    data = tuple({b * m.cols + j: v for j, v in row.items()} for b in range(count) for row in m.data)
    return Mat(m.rows * count, m.cols * count, data, m.dens * count)
