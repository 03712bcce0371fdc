"""Chevalley-Eilenberg cochain complex and Lie-algebra cohomology.

A cochain of degree q is an antisymmetric q-linear map into a module of
dimension m, given by its values on the strictly increasing index tuples.
It is stored as the sparse vector ``{index: Fraction}`` of :mod:`.linalg`,
with index = (position of the tuple in ``cochain_tuples(n, q)``) * m +
module slot: the tuples in lexicographic order, the module index fastest.
These are the coordinates :func:`ce_differential` acts on, so its matrices
are reproducible.  The differential is

  (dc)(h_0..h_q) = sum_i (-1)^i  h_i . c(.. h_i ..)
                 + sum_{i<j} (-1)^{i+j} c([h_i,h_j], .. h_i .. h_j ..)

(0-indexed signs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

from .liealg import StructureConstants
from .linalg import InvariantViolation, Mat, QuotientSpace, Vector, homology, solve


class NotACocycle(InvariantViolation):
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

    def __post_init__(self):
        if len(self.action) != self.algebra.dim:
            raise InvariantViolation(f"{len(self.action)} action matrices for an algebra of dimension {self.algebra.dim}")
        for m in self.action:
            if not m.rows == m.cols == self.dim:
                raise InvariantViolation(f"a {m.rows}x{m.cols} action matrix on a module of dimension {self.dim}")

    @staticmethod
    @cache
    def trivial(algebra):
        """The one-dimensional trivial module, one per algebra, so that
        ``ce_differential`` finds its matrices again."""
        return GModule(1, algebra, tuple(Mat.zero(1, 1) for _ in range(algebra.dim)))


@dataclass(frozen=True)
class ModuleReport:
    ok: bool
    violations: tuple  # of (i, j)


def validate_module(a: GModule) -> ModuleReport:
    """Check rho_i rho_j - rho_j rho_i = c^k_{ij} rho_k for all i < j."""
    g = a.algebra
    rho = a.action
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            terms = [(1, rho[i].mul(rho[j])), (-1, rho[j].mul(rho[i]))]
            terms += [(-c, rho[k]) for k in range(g.dim) if (c := g.coeff(i, j, k))]
            diff = [{} for _ in range(a.dim)]
            for c, m in terms:
                for acc, row, den in zip(diff, m.data, m.dens):
                    for col, x in row.items():
                        acc[col] = acc.get(col, 0) + c * Fraction(x, den)
            if any(x for acc in diff for x in acc.values()):
                bad.append((i, j))
    return ModuleReport(not bad, tuple(bad))


def cochain_tuples(n, q):
    if q < 0:
        raise InvariantViolation(f"cochains of negative degree {q}")
    return list(combinations(range(n), q)) if q <= n else []


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
    """Matrix of delta: C^q -> C^{q+1} in the canonical coordinates.

    Its rows are written as integer rows over one denominator, the lcm of
    the action matrices' row denominators and of the structure constants'
    denominators (1 for the catalog algebras on a trivial module)."""
    key = (id(g), id(a), q)
    if key in _DIFF_CACHE:
        return _DIFF_CACHE[key][-1]
    n = g.dim
    m = a.dim
    src_index = {t: i for i, t in enumerate(cochain_tuples(n, q))}
    brackets = {(i, j): [(k, c) for k in range(n) if (c := g.coeff(i, j, k))] for i in range(n) for j in range(i + 1, n)}
    den = lcm(*[d for rho in a.action for d in rho.dens], *[c.denominator for b in brackets.values() for _, c in b])
    brackets = {ij: [(k, c.numerator * (den // c.denominator)) for k, c in b] for ij, b in brackets.items()}
    data = []
    for U in cochain_tuples(n, q + 1):
        rows = [{} for _ in range(m)]

        def add(t, col, v):
            rows[t][col] = rows[t].get(col, 0) + v

        for i, ui in enumerate(U):
            rest = U[:i] + U[i + 1 :]
            sign = (-1) ** i
            # action term: sign * rho_{ui} applied to c(rest)
            col_base = src_index[rest] * m
            rho = a.action[ui]
            for t, (rho_row, rho_den) in enumerate(zip(rho.data, rho.dens)):
                scale = sign * (den // rho_den)
                for s, v in rho_row.items():
                    add(t, col_base + s, scale * v)
            for j in range(i + 1, len(U)):
                uj = U[j]
                pair_rest = tuple(x for x in U if x != ui and x != uj)
                bsign = (-1) ** (i + j)
                for k, gamma in brackets[(ui, uj)]:
                    ins = _insert_sorted(k, pair_rest)
                    if ins is None:
                        continue
                    W, psign = ins
                    col_base = src_index[W] * m
                    for t in range(m):
                        add(t, col_base + t, bsign * gamma * psign)
        data.extend({col: v for col, v in row.items() if v} for row in rows)
    out = Mat.over(den, data, len(src_index) * m)
    _DIFF_CACHE[key] = (g, a, out)
    return out


def cohomology(g: StructureConstants, a: GModule, q: int) -> QuotientSpace:
    """H^q(G, A) = ker(delta_q) / im(delta_{q-1}): its ``dim``, its
    ``representatives`` as cochain vectors, and ``reduce`` to classes.

    Any q >= 0 is accepted; above dim G the cochains, and so H^q, are 0.
    Each delta's reductions are kept on its cached matrix, so a delta is
    eliminated once whether it is ``d_out`` here or ``d_in`` at q + 1; the
    check delta^2 = 0 runs on every call.
    """
    if q < 0:
        raise InvariantViolation(f"cohomology in negative degree {q}")
    d_q = ce_differential(g, a, q)
    d_prev = ce_differential(g, a, q - 1) if q else None
    if d_prev is not None and not d_q.mul(d_prev).is_zero():
        raise InvariantViolation("delta^2 != 0: invalid module")
    return homology(d_q, d_prev)


def is_cocycle(g: StructureConstants, a: GModule, q: int, z: Vector) -> bool:
    return not ce_differential(g, a, q).mul_vec(z)


def coboundary_witness(g: StructureConstants, a: GModule, q: int, z: Vector) -> Vector | None:
    """b with delta b = z for the q-cochain z, or None when [z] != 0.
    Raises NotACocycle."""
    if not is_cocycle(g, a, q, z):
        raise NotACocycle("coboundary_witness requires a cocycle")
    if q == 0:
        return None if z else {}
    return solve(ce_differential(g, a, q - 1), z)
