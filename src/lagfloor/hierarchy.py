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
charges).  The charges and their conservation residuals are summed on
numerator/denominator pairs of trig polynomials, and each charge is built
as one expression, on which the identity is then checked.  Witness
searches are linear solves over a declared ansatz, so "Undetermined" is a
first-class outcome: nonzero phi_3 is only ever claimed with a
restriction certificate in hand.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cache
from math import lcm

from .calculus import (
    AnsatzExhausted,
    OneForm,
    d_el,
    derham_split,
    euler_lagrange,
    find_potential,
    harmonic_coefficient,
    is_closed,
    total_time_derivative,
    twoform_pairs,
)
from .cecohom import GModule, ce_differential, coboundary_witness, cochain_tuples, cohomology, is_cocycle
from .cecohom import zero_one_cocycles
from .expr import (
    TP,
    TP_ONE,
    TP_ZERO,
    AnsatzSpec,
    EvaluationPole,
    Expr,
    fraction_add,
    fraction_const_value,
    fraction_subs_zero,
    function_monomials,
)
from .exprspace import equation_rows
from .linalg import (
    Echelon,
    InvariantViolation,
    Mat,
    Subspace,
    add_scaled,
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
    validated_module,
)
from .spectral import MAX_COMPLEX_CELLS, ComplexTooLarge, DoubleComplex, validate_double_complex

F = Fraction

ZERO = "zero"
NONZERO = "nonzero"
NOT_REACHED = "not_reached"


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


class ClassifyOptions:
    __slots__ = ("degree", "fourier", "closure_cap")

    def __init__(self, degree: int = 3, fourier: int = 3, closure_cap: int = 64):
        self.degree = degree
        self.fourier = fourier
        self.closure_cap = closure_cap  # validated, read by no computation


class WeakInvarianceSplit:
    __slots__ = ("w", "t")

    def __init__(self, w: tuple[OneForm, ...], t: tuple[Fraction, ...]):
        self.w = w
        self.t = t


class ObstructionWitness:
    __slots__ = ("alpha", "f2", "k3_witness")

    def __init__(self):
        self.alpha = None  # potentials, after the phi2 adjustment
        self.f2 = None  # constant 2-cocycle (i,j) -> Fraction
        self.k3_witness = None  # (OneForm w, t'' tuple, Expr f)


class ClassValue:
    __slots__ = ("status", "data")

    def __init__(self, status: str, data: object = None):
        self.status = status
        self.data = data

    def is_zero(self):
        return self.status == ZERO


class FloorReport:
    __slots__ = ("status", "floor", "sign", "psi_class", "k1_class", "k2_class", "k3_class", "k4_class",
                 "witnesses", "decomposition", "failure")

    def __init__(self, status: str, floor: int | None = None, sign: str | None = None,
                 psi_class: ClassValue | None = None, k1_class: ClassValue | None = None,
                 k2_class: ClassValue | None = None, k3_class: ClassValue | None = None,
                 k4_class: ClassValue | None = None, decomposition: dict | None = None, failure: tuple | None = None):
        self.status = status  # "classified" | "not_weakly_invariant" | "undetermined"
        self.floor = floor
        self.sign = sign
        self.psi_class = psi_class
        self.k1_class = k1_class
        self.k2_class = k2_class
        self.k3_class = k3_class
        self.k4_class = k4_class
        self.witnesses = ObstructionWitness()  # one per report: the stages fill it in
        self.decomposition = decomposition  # floor-4 certificate
        self.failure = failure  # (generator, residue) or (stage, ansatz)


# ---------------------------------------------------------------------------
# stage 0: the split
# ---------------------------------------------------------------------------

def weak_invariance_split(p: GMPair, L: Expr) -> WeakInvarianceSplit:
    """delta_i L = w_i . qdot + t_i with w_i closed; exact and unique.

    Raises NotWeaklyInvariantError with the offending generator and residue
    (quadratic-in-velocity part, non-constant remainder, or non-closed w).
    The w_i are expressions; the remainder t_i and the residue
    delta_i L - t_i - w_i . qdot are only tested, for a constant and for
    zero, so they are (numerator, denominator) pairs of trig polynomials,
    and an expression is built for one only to report it.
    """
    if L.has_accelerations():
        raise InvariantViolation("rank-1 Lagrangians only")
    ch = p.chart
    vel_names = [ch.velocity(n) for n in ch.names]
    ws = []
    ts = []
    for i in range(p.algebra.dim):
        d = Expr(ch, *p.action.lie_lagrangian(i, L.num, L.den))
        try:
            coeffs = []
            for vn in vel_names:
                c = d.partial(vn).subs_zero(vel_names)
                coeffs.append(c)
            t_num, t_den = fraction_subs_zero(d.num, d.den, vel_names)
        except EvaluationPole:
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], d)
        residue, _ = _fraction_sum([
            (d.num, d.den),
            (-t_num, t_den),
            *((-c.num * TP.var(vn), c.den) for c, vn in zip(coeffs, vel_names)),
        ])
        if not residue.is_zero():
            rebuilt = d.subs_zero(vel_names)
            for c, vn in zip(coeffs, vel_names):
                rebuilt = rebuilt + c * Expr.var(ch, vn)
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], d - rebuilt)
        t_val = fraction_const_value(t_num, t_den)
        if t_val is None:
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], d.subs_zero(vel_names))
        w = OneForm(ch, tuple(coeffs))
        if not is_closed(w):
            raise NotWeaklyInvariantError(p.algebra.basis_names[i], w)
        ws.append(w)
        ts.append(t_val)
    g = p.algebra
    # delta^2 L = 0 forces t in Z^1(G); checked, never assumed
    if not is_cocycle(g, GModule.trivial(g), 1, {i: t for i, t in enumerate(ts) if t}):
        raise InvariantViolation("split t-vector escaped Z^1")
    return WeakInvarianceSplit(tuple(ws), tuple(ts))


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
    A closed remainder with no potential in the ansatz leaves the stage
    undetermined.
    """
    ch = p.chart
    harmonic_matrix = {}  # (angle, generator) -> Fraction
    alphas = []
    for i, w in enumerate(split.w):
        try:
            harmonic, pot = derham_split(w)
        except AnsatzExhausted as e:
            raise UndeterminedError(1, str(e))
        for a, c in harmonic.items():
            if c:
                harmonic_matrix[(a, i)] = c
        alphas.append(pot)
    g = p.algebra
    for a in ch.angle_names:
        col = {i: c for i in range(g.dim) if (c := harmonic_matrix.get((a, i)))}
        if not is_cocycle(g, GModule.trivial(g), 1, col):
            raise InvariantViolation("harmonic column escaped Z^1")
    data = tuple(sorted(harmonic_matrix.items()))
    status = NONZERO if harmonic_matrix else ZERO
    return ClassValue(status, data), tuple(alphas)


# ---------------------------------------------------------------------------
# phi_2
# ---------------------------------------------------------------------------

def _h2(algebra):
    """H^2 of the algebra with trivial coefficients, computed once and kept
    on its trivial module, which the algebra keeps."""
    a = GModule.trivial(algebra)
    if a.h2 is None:
        a.h2 = cohomology(algebra, a, 2)
    return a.h2


def phi2(p: GMPair, alphas):
    """Class of f_ij = (delta alpha)_ij in H^2(G), plus the adjusted alpha.

    f is checked to be constant and a cocycle.  When the class vanishes, alpha is
    shifted by constants t' with delta t' = -f, so delta(alpha') = 0.  The
    coboundaries are ``FunctionCochain.delta``'s numerator and denominator
    pairs, tested for a constant and for zero; no expression is built.
    """
    g = p.algebra
    alpha = FunctionCochain(p, tuple(alphas))
    f2 = {}
    f = {}  # f2 as a 2-cochain vector, indexed in cochain_tuples order
    for idx, (i, j, num, den) in enumerate(alpha.delta()):
        c = fraction_const_value(num, den)
        if c is None:
            raise InvariantViolation("(delta alpha) must be constant for closed splits")
        if c:
            f2[(i, j)] = f[idx] = c
    witness = coboundary_witness(g, GModule.trivial(g), 2, f)
    if witness is None:
        h2 = _h2(g)
        return ClassValue(NONZERO, dense(h2.reduce(f), h2.dim)), alpha, f2
    # delta t' = -f  =>  use -witness of f
    t_prime = tuple(-witness.get(k, 0) for k in range(g.dim))
    adjusted = alpha.add_constants(t_prime)
    if not adjusted.is_cocycle():
        raise InvariantViolation("adjusted alpha must satisfy delta(alpha') = 0")
    return ClassValue(ZERO, tuple(F(0) for _ in range(_h2(g).dim))), adjusted, f2


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
    The rebuilt witness pi(w)_i + t''_i + X_i f is compared with alpha_i on
    numerator and denominator pairs; the returned w and f are expressions.
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
        terms += [(nw + a, 1, TP.const(tvec[i])) for a, tvec in enumerate(z1.basis) if i in tvec]
        terms += [(nw + nt + k, 1, act.scalar(i, m)) for k, m in enumerate(fmonos)]
        rows.extend(equation_rows(terms, (nunk, alpha.components[i])))
    sol = solve_rows(rows, nunk)
    if sol is not None:
        wvec = {k: x for k, x in sol.items() if k < nw}
        wterms = [{} for _ in ch.names]
        for k, x in wvec.items():
            mu, m = units[k]
            wterms[mu][m] = x
        w = OneForm(ch, tuple(Expr(ch, TP.from_vector(terms)) for terms in wterms))
        t2 = {}
        for a, tvec in enumerate(z1.basis):
            add_scaled(t2, sol.get(nw + a, 0), tvec)
        t2 = dense(t2, n)
        fexpr = Expr(ch, TP.from_vector({m: sol[k] for k, m in enumerate(fmonos, nw + nt) if k in sol}))
        if not is_closed(w):
            raise InvariantViolation("the witness form must be closed")
        # exact witness check; pi_images certifies both naturality identities
        (pw,) = pi_images(p, units, [wvec])
        for i, a in enumerate(alpha.components):
            residual, _ = _fraction_sum([
                (pw[i], TP_ONE),
                (TP.const(t2[i]), TP_ONE),
                act.lie(i, fexpr.num, fexpr.den),
                (-a.num, a.den),
            ])
            if not residual.is_zero():
                raise InvariantViolation("the rebuilt witness must reproduce alpha")
        return ClassValue(ZERO, None), (w, t2, fexpr)
    # no witness within the ansatz: try a restriction certificate
    for (point, vecs, accounted), values in restrict_cocycle(p, alpha):
        vals = {a: x for a, x in enumerate(values) if x}
        if vals and not accounted.contains(vals):
            cert = {"point": point, "values": {dense(v, n): x for v, x in zip(vecs, values)}}
            return ClassValue(NONZERO, cert), None
    raise UndeterminedError(3, AnsatzSpec(deg, four))


# ---------------------------------------------------------------------------
# phi_4
# ---------------------------------------------------------------------------

# id-keyed; an entry is dropped when its pair is collected, before that id
# can be reused
_INV_FORMS_CACHE: dict = {}


def _invariant_forms(p: GMPair, opts: ClassifyOptions):
    key = (id(p), opts.degree, opts.fourier)
    if key not in _INV_FORMS_CACHE:
        _INV_FORMS_CACHE[key] = invariant_closed_forms(p, AnsatzSpec(opts.degree, opts.fourier))
        weakref.finalize(p, _INV_FORMS_CACHE.pop, key, None)
    return _INV_FORMS_CACHE[key]


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
    L = L_inv + w_inv + d_EL f' (L_inv verified by direct Lie derivative,
    delta_i L_inv = t_i, on the derivative's numerator and denominator)."""
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
    for i, t in enumerate(split.t):
        num, den = p.action.lie_lagrangian(i, l_inv.num, l_inv.den)
        if not (num - den.scale(t)).is_zero():
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
    coincide with the barred ones stage by stage.  The floor is the number
    of classes that vanished before the first nonzero one, and the classes
    after it are not reached; a stage that cannot decide within its ansatz
    leaves the report undetermined, with the classes found before it.
    """
    p.certify_brackets()
    opts = opts or ClassifyOptions()
    try:
        split = weak_invariance_split(p, L)
    except NotWeaklyInvariantError as e:
        return FloorReport(status="not_weakly_invariant", failure=(e.generator, e.residue))
    report = FloorReport(status="classified", psi_class=psi(split))
    floor = 0
    try:
        for cv in _obstructions(p, L, split, report, opts):
            if not cv.is_zero():
                break
            floor += 1
    except UndeterminedError as e:
        report.status = "undetermined"
        report.failure = (e.stage, str(e.ansatz))
        return report
    report.floor = floor
    report.sign = "+" if report.psi_class.is_zero() else "-"
    for name in ("k2_class", "k3_class", "k4_class")[floor:]:
        setattr(report, name, ClassValue(NOT_REACHED))
    return report


def _obstructions(p: GMPair, L: Expr, split: WeakInvarianceSplit, report: FloorReport, opts: ClassifyOptions):
    """The classes of stages 1 to 4 in turn, each recorded on the report
    with its witnesses before it is yielded; a stage runs only when the
    caller asks for the class after a zero one."""
    report.k1_class, alphas = phi1(p, split)
    yield report.k1_class
    report.k2_class, alpha, report.witnesses.f2 = phi2(p, alphas)
    report.witnesses.alpha = alpha.components
    yield report.k2_class
    report.k3_class, report.witnesses.k3_witness = phi3(p, alpha, opts)
    yield report.k3_class
    report.k4_class, report.decomposition = phi4(p, L, split, alpha, report.witnesses.k3_witness, opts)
    yield report.k4_class


# ---------------------------------------------------------------------------
# Noether charges
# ---------------------------------------------------------------------------

def noether_charges(p: GMPair, L: Expr, report: FloorReport):
    """N_i = X_i^mu dL/d(dq^mu) - alpha_i - t_i tau, conservation checked:
    D_t N_i + X_i^mu F_mu(L) = 0 identically (D_t includes d/d tau).

    Both sums run on (numerator, denominator) pairs of trig polynomials by
    ``fraction_add``, and each charge is built as one expression.  The
    residual starts from that expression's numerator and denominator, so
    the identity is checked on the returned charge, exactly: its numerator
    must vanish.  t is read from the report's psi class; the identity,
    checked for every charge, rejects a report made from another
    Lagrangian."""
    if report.witnesses.alpha is None:
        raise PotentialUnavailable("charges need the stage-1 potentials (phi_1 = 0)")
    t = report.psi_class.data
    ch = p.chart
    el = euler_lagrange(L)
    momenta = [L.partial(ch.velocity(name)) for name in ch.names]
    tau = TP.var("tau")
    charges = []
    for i in range(p.algebra.dim):
        xs = p.fields[i]
        alpha = report.witnesses.alpha[i]
        n_i = Expr(ch, *_fraction_sum([
            *((x * m.num, m.den) for x, m in zip(xs, momenta) if x.terms),
            (-alpha.num, alpha.den),
            (tau.scale(-t[i]), TP_ONE),
        ]))
        # conservation identity on the built charge, checked exactly
        num, _ = _fraction_sum([
            total_time_derivative(n_i, tau=True),
            *((x * en, ed) for x, (en, ed) in zip(xs, el) if x.terms),
        ])
        if not num.is_zero():
            raise InvariantViolation("Noether conservation identity failed")
        charges.append(n_i)
    return tuple(charges)


def _fraction_sum(pairs):
    """(num, den) of the sum of num/den over (num, den) pairs of trig
    polynomials, added in order by ``fraction_add``; zeros are skipped."""
    num, den = TP_ZERO, TP_ONE
    for n, d in pairs:
        if not n.is_zero():
            num, den = (n, d) if num.is_zero() else fraction_add(num, den, n, d)
    return num, den


# ---------------------------------------------------------------------------
# K-spaces
# ---------------------------------------------------------------------------

# f-degree raises over the cocycle degree that k3_space tries in turn; K3 is
# determined once two successive raises give the same dimension
K3_F_RAISES = (1, 2, 3)


class KSpacesReport:
    __slots__ = ("k0_reps", "k1_reps", "k2_reps", "k3_reps", "k4_reps", "k3_residual_dim")

    def __init__(self, k0_reps: tuple, k1_reps: tuple, k2_reps: tuple, k3_reps: tuple, k4_reps: tuple,
                 k3_residual_dim: int = 0):
        self.k0_reps = k0_reps
        self.k1_reps = k1_reps  # (angle name, Z^1 basis vector) pairs
        self.k2_reps = k2_reps  # H^2(G) representatives as 2-cochain vectors
        self.k3_reps = k3_reps
        self.k4_reps = k4_reps
        # truncated classes that neither reduced nor earned a nonzero
        # restriction certificate; an artifact of the ansatz, not a dimension
        self.k3_residual_dim = k3_residual_dim

    @property
    def dims(self):
        return tuple(len(reps) for reps in (self.k0_reps, self.k1_reps, self.k2_reps, self.k3_reps, self.k4_reps))


def k3_space(p: GMPair, opts: ClassifyOptions):
    """Truncated K3: ansatz cocycles modulo {pi(w) + t + delta(f)}, as its
    dimension and representatives.

    Cocycles alpha live in the ansatz monomial space; the denominator is
    intersected with that space.  The f-degree is raised over the cocycle
    degree by each step of K3_F_RAISES until the dimension stabilizes (the
    denominator grows monotonically); a dimension that never stabilizes is
    not reported but raises UndeterminedError(3).  Every system is read
    off the pair's action table as sparse monomial rows.

    The denominator is one Echelon grown across the raises.  It takes the
    generators that do not depend on the f-degree once: the pi images of
    the closed forms (both naturality identities checked once per basis
    form) and the constant cocycles; each raise then inserts only the
    coboundaries of the monomials it adds.  Its columns put every
    coordinate outside the ansatz before the ansatz ones, so its rows with
    a pivot in the ansatz span the intersection, and they go to
    ``quotient`` as they are: its representatives and dimension depend only
    on the denominator's span.
    """
    ch = p.chart
    g = p.algebra
    n = g.dim
    act = p.action
    monos = function_monomials(ch, opts.degree, opts.fourier)
    nm = len(monos)
    mono_vectors = [TP({m: 1}) for m in monos]
    # cocycle system: unknown i * nm + k is the coefficient of monos[k] in alpha_i
    # on the algebra's integer table, so the action terms carry its denominator
    rows = []
    for (a, b), structure in g.table.items():
        terms = []
        for k, m in enumerate(monos):
            terms.append((b * nm + k, g.den, act.scalar(a, m)))
            terms.append((a * nm + k, -g.den, act.scalar(b, m)))
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
    # each generator is read times its denominators' lcm; a coordinate
    # outside the ansatz is keyed by a negative int, below every ansatz one
    position = {m: rank[k] for k, m in enumerate(monos)}
    outside = {}
    ech = Echelon()

    def insert(cochain):
        den = lcm(*[tp.den for tp in cochain])
        row = {}
        for slot, tp in enumerate(cochain):
            up = den // tp.den
            for m, c in tp.terms.items():
                k = position.get(m)
                col = slot * nm + k if k is not None else outside.setdefault((slot, m), -1 - len(outside))
                row[col] = c * up
        ech._insert(row)

    units = [(mu, m) for mu in range(len(ch.names)) for m in monos]
    closed = kernel_of_rows(closedness_rows(p, monos), len(units))
    for cochain in pi_images(p, units, closed.basis):
        insert(cochain)
    for tvec in zero_one_cocycles(g).basis:
        insert([TP.const(tvec.get(i, 0)) for i in range(n)])
    raised = set()
    prev = None
    for extra in K3_F_RAISES:
        for m in function_monomials(ch, opts.degree + extra, opts.fourier):
            if m not in raised:
                raised.add(m)
                insert([act.scalar(i, m) for i in range(n)])
        dsub = Subspace._of_rows(ambient, tuple((1, row) for pivot, row in ech.rows.items() if pivot >= 0))
        qt = quotient(zsub, dsub)
        if qt.dim == prev:
            reps = []
            for v in qt.representatives:
                comps = [{} for _ in range(n)]
                for col, c in sorted(v.items()):
                    comps[col // nm][monos[order[col % nm]]] = c
                reps.append(FunctionCochain(p, tuple(Expr(ch, TP.from_vector(terms)) for terms in comps)))
            return qt.dim, tuple(reps)
        prev = qt.dim
    raise UndeterminedError(3, AnsatzSpec(opts.degree + extra, opts.fourier))


def _certify_k3(p: GMPair, raw_dim, reps):
    """Split the truncated classes into restriction-certified and residual.

    phi3's rule on a family: a combination of the reps that is delta(h) + t,
    t in Z^1(G), takes t's values on every stability frame, and those lie in
    the frame's accounted subspace.  So the reps whose values at all frames
    raise the rank of the accounted values and of the reps before them are
    nonzero, independent classes; the others are residual.  Columns are
    (frame index, slot).  Reps are polynomial, so each has a value at every
    frame, and the frames are read only through a rep's restriction.
    """
    ech = Echelon()
    certified = []
    for alpha in reps:
        row = {}
        for k, ((_, _, accounted), values) in enumerate(restrict_cocycle(p, alpha)):
            # after the first rep these inserts add nothing
            for v in accounted.basis:
                ech.insert({(k, a): x for a, x in v.items()})
            row.update(((k, a), x) for a, x in enumerate(values) if x)
        if ech.insert(row):
            certified.append(alpha)
    return len(certified), tuple(certified), raw_dim - len(certified)


def k_spaces(p: GMPair, opts: ClassifyOptions | None = None) -> KSpacesReport:
    p.certify_brackets()
    opts = opts or ClassifyOptions()
    g = p.algebra
    z1 = zero_one_cocycles(g)
    h2 = _h2(g)
    nb = len(p.chart.angle_names)
    qt4, _inv = k4_quotient(p, opts)
    _, k3_reps, k3_residual = _certify_k3(p, *k3_space(p, opts))
    k0_reps = tuple(dense(t, g.dim) for t in z1.basis)
    k1_reps = tuple((a, t) for a in p.chart.angle_names for t in k0_reps)
    return KSpacesReport(
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

def _keyed_terms(keys, comps):
    """{(key, monomial): coefficient} of the component trig polynomials,
    one per key."""
    return {(key, m): c for key, comp in zip(keys, comps) for m, c in comp.vector().items()}


def _largest_invariant_subspace(basis, unit_images):
    """Largest subspace of span(basis) closed under all the operators.

    Vectors are sparse {unit: coefficient} dicts and each operator is given
    by its images of units.  Each pass is one Echelon over the columns (0,
    i, unit), the image under operator i, before the columns (1, unit).  It
    is seeded with the basis in every image block and then given b + (X_i
    b)_i for each basis vector b; its rows with a pivot in the (1, unit)
    part span the combinations of the basis whose images all stay in the
    span.  The shrink ends at a pass that keeps the dimension.
    Deterministic: the rows follow the order of the basis and the units.
    """
    while basis:
        ech = Echelon()
        for i in range(len(unit_images)):
            for b in basis:
                ech.insert({(0, i, u): x for u, x in b.items()})
        for b in basis:
            v = {(1, u): x for u, x in b.items()}
            for i, unit_image in enumerate(unit_images):
                v.update(((0, i, u), x) for u, x in linear_image(b, unit_image).items())
            ech.insert(v)
        kept = [{u: F(x) for (_, u), x in row.items()} for pivot, row in ech.rows.items() if pivot[0] == 1]
        if len(kept) == len(basis):
            return basis
        basis = kept
    return []


def build_invariance_double_complex(p: GMPair, opts: ClassifyOptions | None = None) -> DoubleComplex:
    """C^p(G, Omega^q_trunc) for q in {0, 1, 2}, d1 = exterior derivative,
    d2 = the Chevalley-Eilenberg differential.

    The truncation is shrunk to the largest action-closed subspace of the
    requested ansatz (otherwise d2 would leave the grid), and Omega^2 is the
    image of d on Omega^1, so the top row is exact by construction.  Every
    object is a sparse vector over units: a monomial m, an elementary 1-form
    (mu, m) or an elementary 2-form ((a, b), m).  d and the action on
    Omega^0 and Omega^1 are read off the pair's action table.  A complex of
    more than MAX_COMPLEX_CELLS cells raises ComplexTooLarge once the three
    bases are known, before any matrix is built.

    The action on Omega^2 is induced through d: rho2_i = D rho1_i S, with D
    the matrix of d, whose k-th basis image is d(w_{j_k}) for the lift j_k,
    and S the 0/1 matrix that picks the lift columns.  It is exact, since
    L_X d = d L_X: X_i d(w_{j_k}) = d(X_i w_{j_k}) = sum_l rho1_i[l, j_k]
    d(w_l), which is column k of D rho1_i S.  The Q^2 check still tests the
    commute block at q = 1, D rho1_i = rho2_i D: on the lift columns it
    holds by construction, and on the others it says that rho1_i maps ker D
    into itself, which is not automatic.
    """
    p.certify_brackets()
    opts = opts or ClassifyOptions()
    ch = p.chart
    g = p.algebra
    n = g.dim
    act = p.action
    ncoords = len(ch.names)
    pairs = twoform_pairs(ch)
    monos = function_monomials(ch, opts.degree, opts.fourier)

    # the unit images as {unit: Fraction} vectors, each built once
    f_units = [cache(lambda m, i=i: act.scalar(i, m).vector()) for i in range(n)]
    w_units = [cache(lambda unit, i=i: _keyed_terms(range(ncoords), act.oneform(i, *unit))) for i in range(n)]

    def df_unit(m):
        return _keyed_terms(range(ncoords), [act.partial(mu, m) for mu in range(ncoords)])

    def dw_unit(unit):
        """d(m dq^mu): dm/dq^a on the pair (a, mu), -dm/dq^b on (mu, b)."""
        mu, m = unit
        comps = [
            act.partial(a, m) if b == mu else -act.partial(b, m) if a == mu else TP_ZERO
            for a, b in pairs
        ]
        return _keyed_terms(pairs, comps)

    f_basis = _largest_invariant_subspace([{m: F(1)} for m in monos], f_units)
    forms = [{(mu, m): F(1)} for mu in range(ncoords) for m in monos]
    w_basis = _largest_invariant_subspace(forms, w_units)
    # Omega^2 = d(Omega^1): the images that raise the rank, in order, at their lifts
    dw = [linear_image(w, dw_unit) for w in w_basis]
    ech = Echelon()
    lifts = [j for j, tw in enumerate(dw) if ech.insert(tw)]
    t_basis = [dw[j] for j in lifts]
    # the sum over p of C(n, p) * (dim Omega^0 + dim Omega^1 + dim Omega^2)
    cells_needed = 2 ** n * (len(f_basis) + len(w_basis) + len(t_basis))
    if cells_needed > MAX_COMPLEX_CELLS:
        raise ComplexTooLarge("invariance complex", cells_needed)
    modules = [action_module(g, f_basis, f_units), action_module(g, w_basis, w_units)]
    d_f_to_w = coordinate_map(w_basis, [linear_image(f, df_unit) for f in f_basis], "image escaped the target family")
    d_w_to_t = coordinate_map(t_basis, dw, "image escaped the target family")
    # the action on Omega^2, induced through d: D rho1_i S, S picking the lift columns
    pick = {j: k for k, j in enumerate(lifts)}
    s = Mat(len(dw), len(lifts), tuple({pick[j]: 1} if j in pick else {} for j in range(len(dw))))
    modules.append(validated_module(len(lifts), g, tuple(d_w_to_t.mul(rho.mul(s)) for rho in modules[1].action)))
    dims = []
    d1 = {}
    d2 = {}
    for pdeg in range(n + 1):
        ntuples = len(cochain_tuples(n, pdeg))
        dims.append([ntuples * gm.dim for gm in modules])
        d1[(pdeg, 0)] = _block_diag(d_f_to_w, ntuples)
        d1[(pdeg, 1)] = _block_diag(d_w_to_t, ntuples)
        if pdeg < n:
            for q, gm in enumerate(modules):
                d2[(pdeg, q)] = ce_differential(g, gm, pdeg)
    dc = DoubleComplex(dims, d1, d2)
    report = validate_double_complex(dc)
    if not report.ok:
        raise InvariantViolation(f"invariance complex failed validation: {report.violations[:3]}")
    return dc


def _block_diag(m: Mat, count: int) -> Mat:
    data = tuple({b * m.cols + j: v for j, v in row.items()} for b in range(count) for row in m.data)
    return Mat(m.rows * count, m.cols * count, data, m.dens * count)
