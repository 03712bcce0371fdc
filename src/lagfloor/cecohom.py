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

(0-indexed signs).  Every check here is the zero test of a squared
differential, read with ``product_nonzeros`` and returned as a
``CheckReport``: a module's axiom is delta_1 delta_0 = 0, and the Jacobi
identity is delta_2 delta_1 = 0 on the trivial module.  Z^1 with trivial
coefficients is ker delta_1, read from that differential's kept row
reduction.
"""

from __future__ import annotations

import weakref
from itertools import combinations
from math import lcm

from .liealg import StructureConstants
from .linalg import CheckReport, InvariantViolation, Mat, QuotientSpace, Subspace, Vector, homology, kernel_basis
from .linalg import product_nonzeros, solve


class NotACocycle(InvariantViolation):
    pass


class GModule:
    """Finite-dimensional module over a Lie algebra, given by action matrices.

    ``action[i]`` is the m x m matrix of e_i acting on the module; the axiom
    rho_i rho_j - rho_j rho_i = c^k_{ij} rho_k is exactly testable.
    ``h2`` is None, or H^2(G, A) once a reader has kept it there.
    """

    __slots__ = ("dim", "algebra", "action", "h2", "__weakref__")

    def __init__(self, dim: int, algebra: StructureConstants, action: tuple[Mat, ...]):
        if len(action) != algebra.dim:
            raise InvariantViolation(f"{len(action)} action matrices for an algebra of dimension {algebra.dim}")
        for m in action:
            if not m.rows == m.cols == dim:
                raise InvariantViolation(f"a {m.rows}x{m.cols} action matrix on a module of dimension {dim}")
        self.dim = dim
        self.algebra = algebra
        self.action = action
        self.h2 = None

    @staticmethod
    def trivial(algebra):
        """The one-dimensional trivial module, one per algebra, kept in the
        algebra's ``trivial_module`` slot, so that ``ce_differential`` finds
        its matrices again and the module goes with the algebra."""
        a = algebra.trivial_module
        if a is None:
            a = algebra.trivial_module = GModule(1, algebra, tuple(Mat.zero(1, 1) for _ in range(algebra.dim)))
        return a


def validate_module(a: GModule) -> CheckReport:
    """Check rho_i rho_j - rho_j rho_i = c^k_{ij} rho_k for all i < j.

    delta_1 delta_0 sends a module vector v to the 2-cochain whose value
    on (i, j) is that identity applied to v, so the violations are the
    tuples of its nonzero rows, in ascending order (no product is built)."""
    g = a.algebra
    tuples = cochain_tuples(g.dim, 2)
    dd = product_nonzeros(ce_differential(g, a, 1), ce_differential(g, a, 0))
    bad = dict.fromkeys(tuples[r // a.dim] for r, _ in dd)
    return CheckReport(tuple(bad))


def jacobi_check(g: StructureConstants) -> CheckReport:
    """The Jacobi identity, read off delta_2 delta_1 = 0 on the trivial module.

    (delta delta t)(e_i, e_j, e_k) is t of the Jacobiator [[e_i, e_j], e_k]
    + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], so the violations are the
    (i, j, k, l) of the nonzero entries, the triple i < j < k of the row and
    the component l of the column, in ascending order."""
    a = GModule.trivial(g)
    tuples = cochain_tuples(g.dim, 3)
    dd = product_nonzeros(ce_differential(g, a, 2), ce_differential(g, a, 1))
    return CheckReport(tuple(sorted((*tuples[r], l) for r, l in dd)))


def zero_one_cocycles(g: StructureConstants) -> Subspace:
    """Z^1(G) = ker delta_1 = {t : c^k_{ij} t_k = 0} on the trivial module,
    which is H^1 with trivial coefficients, read from delta_1's kept row
    reduction."""
    return kernel_basis(ce_differential(g, GModule.trivial(g), 1))


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


# id-keyed; an entry is dropped when its algebra or module is collected,
# before that id can be reused
_DIFF_CACHE: dict = {}


def ce_differential(g: StructureConstants, a: GModule, q: int) -> Mat:
    """Matrix of delta: C^q -> C^{q+1} in the canonical coordinates.

    Its rows are written as integer rows over one denominator, the lcm of
    the action matrices' row denominators and of the structure constants'
    denominators (1 for the catalog algebras on a trivial module)."""
    key = (id(g), id(a), q)
    if key in _DIFF_CACHE:
        return _DIFF_CACHE[key]
    n = g.dim
    m = a.dim
    src_index = {t: i for i, t in enumerate(cochain_tuples(n, q))}
    den = lcm(g.den, *[d for rho in a.action for d in rho.dens])
    up = den // g.den  # from the algebra's integer table to den
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
                bsign = (-1) ** (i + j) * up
                for k, gamma in g.table[(ui, uj)]:
                    ins = _insert_sorted(k, pair_rest)
                    if ins is None:
                        continue
                    W, psign = ins
                    col_base = src_index[W] * m
                    for t in range(m):
                        add(t, col_base + t, bsign * gamma * psign)
        data.extend({col: v for col, v in row.items() if v} for row in rows)
    out = Mat.over(den, data, len(src_index) * m)
    _DIFF_CACHE[key] = out
    for owner in (g, a):
        weakref.finalize(owner, _DIFF_CACHE.pop, key, None)
    return out


def cohomology(g: StructureConstants, a: GModule, q: int) -> QuotientSpace:
    """H^q(G, A) = ker(delta_q) / im(delta_{q-1}): its ``dim``, its
    ``representatives`` as cochain vectors, and ``reduce`` to classes.

    Any q >= 0 is accepted; above dim G the cochains, and so H^q, are 0.
    Each delta's reductions are kept on its cached matrix, so a delta is
    eliminated once whether it is ``d_out`` here or ``d_in`` at q + 1; the
    check delta^2 = 0 runs on every call, with no product matrix built.
    """
    if q < 0:
        raise InvariantViolation(f"cohomology in negative degree {q}")
    d_q = ce_differential(g, a, q)
    d_prev = ce_differential(g, a, q - 1) if q else None
    if d_prev is not None and next(product_nonzeros(d_q, d_prev), None) is not None:
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
