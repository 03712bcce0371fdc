"""Chevalley-Eilenberg cochain complex and Lie-algebra cohomology.

Cochains of degree q are antisymmetric q-linear maps into a finite module,
stored on strictly increasing index tuples.  The differential is

  (dc)(h_0..h_q) = sum_i (-1)^i  h_i . c(.. h_i ..)
                 + sum_{i<j} (-1)^{i+j} c([h_i,h_j], .. h_i .. h_j ..)

(0-indexed signs).  Coordinates are ordered lexicographically on the tuples
with the module index fastest, so differential matrices are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .liealg import StructureConstants
from .linalg import (
    InvariantViolation,
    Mat,
    QuotientSpace,
    Subspace,
    image_basis,
    kernel_basis,
    quotient,
    solve,
    sparse_product,
)

F = Fraction


class NotACocycle(Exception):
    pass


@dataclass(frozen=True)
class GModule:
    """Finite-dimensional module over a Lie algebra, given by action matrices.

    ``action[i]`` is the m x m matrix of e_i acting on the module; the axiom
    rho_i rho_j - rho_j rho_i = c^k_{ij} rho_k is exactly testable.
    """

    dim: int
    algebra: StructureConstants
    action: tuple[Mat, ...]
    basis_labels: tuple | None = None

    def __post_init__(self):
        assert len(self.action) == self.algebra.dim
        for m in self.action:
            assert m.rows == m.cols == self.dim

    @staticmethod
    def trivial(algebra):
        return GModule(1, algebra, tuple(Mat.zero(1, 1) for _ in range(algebra.dim)))

    def act(self, i, vec):
        return self.action[i].mul_vec(vec)


@dataclass(frozen=True)
class ModuleReport:
    ok: bool
    violations: tuple  # of (i, j)


def validate_module(a: GModule) -> ModuleReport:
    """Check rho_i rho_j - rho_j rho_i = c^k_{ij} rho_k for all i < j."""
    g = a.algebra
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = a.action[i].mul(a.action[j])
            rhs = a.action[j].mul(a.action[i])
            diff = [x - y for x, y in zip(lhs.entries, rhs.entries)]
            for k in range(g.dim):
                ck = g.coeff(i, j, k)
                if ck:
                    diff = [d - ck * e for d, e in zip(diff, a.action[k].entries)]
            if any(diff):
                bad.append((i, j))
    return ModuleReport(not bad, tuple(bad))


def cochain_tuples(n, q):
    return list(combinations(range(n), q))


def cochain_dim(g: StructureConstants, a: GModule, q: int) -> int:
    n = g.dim
    if q < 0 or q > n:
        return 0
    return len(cochain_tuples(n, q)) * a.dim


@dataclass(frozen=True)
class Cochain:
    degree: int
    module: GModule
    components: dict  # increasing tuple -> module vector (tuple of Fraction)

    def __post_init__(self):
        # above the algebra's dimension the cochain space is 0
        assert self.degree >= 0
        for t, v in self.components.items():
            assert len(t) == self.degree and tuple(sorted(t)) == t
            assert len(v) == self.module.dim

    def value(self, t):
        return self.components.get(t, (F(0),) * self.module.dim)

    def to_vector(self):
        tuples = cochain_tuples(self.module.algebra.dim, self.degree)
        out = []
        for t in tuples:
            out.extend(self.value(t))
        return tuple(out)

    @staticmethod
    def from_vector(module, q, vec):
        tuples = cochain_tuples(module.algebra.dim, q)
        assert len(vec) == len(tuples) * module.dim
        comps = {}
        for idx, t in enumerate(tuples):
            v = tuple(F(x) for x in vec[idx * module.dim : (idx + 1) * module.dim])
            if any(v):
                comps[t] = v
        return Cochain(q, module, comps)

    def is_zero(self):
        return all(not any(v) for v in self.components.values())


def _insert_sorted(k, rest):
    """Insert k into the increasing tuple rest; returns (tuple, sign) or None."""
    if k in rest:
        return None
    pos = sum(1 for x in rest if x < k)
    out = rest[:pos] + (k,) + rest[pos:]
    return out, (-1) ** pos


# id-keyed with strong references to the keyed objects: holding them alive
# keeps the ids valid (a collected object's id can be reused)
_DIFF_CACHE: dict = {}


def ce_differential(g: StructureConstants, a: GModule, q: int) -> Mat:
    """Matrix of delta: C^q -> C^{q+1} in the canonical coordinates."""
    key = (id(g), id(a), q)
    if key in _DIFF_CACHE:
        return _DIFF_CACHE[key][-1]
    n = g.dim
    m = a.dim
    src = cochain_tuples(n, q)
    tgt = cochain_tuples(n, q + 1)
    src_index = {t: i for i, t in enumerate(src)}
    rows = len(tgt) * m
    cols = len(src) * m
    ent = [F(0)] * (rows * cols)

    def add(row, col, v):
        ent[row * cols + col] += v

    for u_idx, U in enumerate(tgt):
        for i, ui in enumerate(U):
            rest = U[:i] + U[i + 1 :]
            sign = (-1) ** i
            # action term: sign * rho_{ui} applied to c(rest)
            col_base = src_index[rest] * m
            rho = a.action[ui]
            for t in range(m):
                row = u_idx * m + t
                for s in range(m):
                    v = rho[t, s]
                    if v:
                        add(row, col_base + s, sign * v)
            for j in range(i + 1, len(U)):
                uj = U[j]
                pair_rest = tuple(x for x in U if x != ui and x != uj)
                bsign = (-1) ** (i + j)
                for k in range(n):
                    gamma = g.coeff(ui, uj, k)
                    if not gamma:
                        continue
                    ins = _insert_sorted(k, pair_rest)
                    if ins is None:
                        continue
                    W, psign = ins
                    col_base = src_index[W] * m
                    for t in range(m):
                        add(u_idx * m + t, col_base + t, bsign * gamma * psign)
    out = Mat(rows, cols, tuple(ent))
    _DIFF_CACHE[key] = (g, a, out)
    return out


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    quotient: QuotientSpace
    representatives: tuple[Cochain, ...]

    @property
    def dim(self):
        return self.quotient.dim


def cohomology(g: StructureConstants, a: GModule, q: int) -> CohomologyResult:
    """H^q(G, A) = ker(delta_q) / im(delta_{q-1}) with chosen representatives.

    Any q >= 0 is accepted; above dim G the cochains, and so H^q, are 0.
    """
    assert q >= 0
    d_q = ce_differential(g, a, q)
    z = kernel_basis(d_q)
    if q == 0:
        b = Subspace(z.ambient_dim, ())
    else:
        d_prev = ce_differential(g, a, q - 1)
        if sparse_product(d_q, d_prev):
            raise InvariantViolation("delta^2 != 0: invalid module")
        b = image_basis(d_prev)
    qt = quotient(z, b)
    reps = tuple(Cochain.from_vector(a, q, v) for v in qt.representatives)
    return CohomologyResult(q, qt, reps)


def is_cocycle(g: StructureConstants, a: GModule, z: Cochain) -> bool:
    d = ce_differential(g, a, z.degree)
    return not any(d.mul_vec(z.to_vector()))


def coboundary_witness(g: StructureConstants, a: GModule, z: Cochain) -> Cochain | None:
    """b with delta b = z, or None when [z] != 0.  Raises NotACocycle."""
    if not is_cocycle(g, a, z):
        raise NotACocycle("coboundary_witness requires a cocycle")
    if z.degree == 0:
        return None if not z.is_zero() else Cochain(0, a, {})
    d_prev = ce_differential(g, a, z.degree - 1)
    x = solve(d_prev, z.to_vector())
    if x is None:
        return None
    return Cochain.from_vector(a, z.degree - 1, x)
