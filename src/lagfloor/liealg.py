"""Finite-dimensional Lie algebras by structure constants, plus a catalog.

The Poincare and Galilean tables are never typed in by hand: they are derived
once per process by commuting the defining vector fields on R^4.  Every one
of them is affine, x -> Ax + b, and the bracket of two affine fields is the
affine field of a matrix commutator, so the derivation is exact linear
algebra and reads the coefficients off with one coordinate solve.  A golden
test pins the derived values, which removes transcription risk without
freezing files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import clear_denominators, coordinate_map, kernel_of_rows

F = Fraction


class UnknownName(Exception):
    pass


class BadParams(Exception):
    pass


@dataclass(frozen=True)
class StructureConstants:
    """Lie algebra given by c^k_{ij} for i<j (antisymmetry implied)."""

    dim: int
    basis_names: tuple[str, ...]
    c: dict = field(default_factory=dict)  # (i, j) i<j -> {k: Fraction}

    def __post_init__(self):
        if len(self.basis_names) != self.dim:
            raise ValueError("an algebra needs one basis name per dimension")
        for (i, j), comps in self.c.items():
            if not 0 <= i < j < self.dim:
                raise ValueError(f"bracket index pair {(i, j)} is not i < j < dim")
            for k, v in comps.items():
                if not (0 <= k < self.dim and isinstance(v, Fraction)):
                    raise ValueError(f"bracket component {k} = {v!r} needs 0 <= k < dim and a Fraction value")

    def coeff(self, i, j, k) -> Fraction:
        """c^k_{ij} for arbitrary i, j."""
        if i == j:
            return F(0)
        if i < j:
            return self.c.get((i, j), {}).get(k, F(0))
        return -self.c.get((j, i), {}).get(k, F(0))

    def bracket_vector(self, i, j):
        """[e_i, e_j] as a coefficient tuple."""
        return tuple(self.coeff(i, j, k) for k in range(self.dim))

    def __hash__(self):
        items = tuple(sorted((ij, tuple(sorted(d.items()))) for ij, d in self.c.items()))
        return hash((self.dim, self.basis_names, items))

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        if (self.dim, self.basis_names) != (other.dim, other.basis_names):
            return False
        keys = set(self.c) | set(other.c)
        for ij in keys:
            a = {k: v for k, v in self.c.get(ij, {}).items() if v}
            b = {k: v for k, v in other.c.get(ij, {}).items() if v}
            if a != b:
                return False
        return True


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: tuple  # of (i, j, k, l)


def jacobi_check(g: StructureConstants) -> JacobiReport:
    """Exact check of sum_m (c^m_ij c^l_mk + c^m_jk c^l_mi + c^m_ki c^l_mj) = 0
    for i < j < k, summed over the nonzero constants only; violations in
    (i, j, k, l) order."""
    n = g.dim
    full = {}  # (a, b) -> {m: c^m_ab} for a != b, both orders
    for (a, b), comps in g.c.items():
        comps = {m: v for m, v in comps.items() if v}
        if comps:
            full[(a, b)] = comps
            full[(b, a)] = {m: -v for m, v in comps.items()}
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in full.get((a, b), {}).items():
                        for l, y in full.get((m, c), {}).items():
                            s[l] = s.get(l, 0) + x * y
                bad.extend((i, j, k, l) for l in sorted(s) if s[l])
    return JacobiReport(not bad, tuple(bad))


def bracket(g: StructureConstants, x, y):
    """([x, y])^k = c^k_{ij} x^i y^j for coefficient vectors x, y."""
    if not len(x) == len(y) == g.dim:
        raise ValueError("bracket arguments need one coefficient per basis element")
    out = [F(0)] * g.dim
    for (i, j), comps in g.c.items():
        coeff = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        if coeff:
            for k, v in comps.items():
                out[k] += v * coeff
    return tuple(out)


def _sc(dim, names, entries):
    c = {}
    for i, j, k, v in entries:
        c.setdefault((i, j), {})[k] = F(v)
    return StructureConstants(dim, tuple(names), c)


_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}


POINCARE_BASIS = ("p0", "p1", "p2", "p3", "B1", "B2", "B3", "L1", "L2", "L3")

_BCOL = 4  # [A | b] has the coordinates (t, x1, x2, x3) in columns 0..3 and b in column 4


def _affine_generators(inv_c2: Fraction | None) -> list[dict]:
    """The fields x -> Ax + b of (p0, p_i, B_i, L_i) on R^4, each as the
    sparse matrix [A | b], a ``{(row, column): Fraction}`` dict.

    p_mu = d/dx^mu; B_i = t d/dx^i + (1/c^2) x^i d/dt, whose second term
    ``inv_c2=None`` drops (the Galilean contraction); L_i = -eps_{ijk} x^j d/dx^k.
    """
    gens = [{(mu, _BCOL): F(1)} for mu in range(4)]
    for i in (1, 2, 3):
        boost = {(i, 0): F(1)}
        if inv_c2 is not None:
            boost[(0, i)] = inv_c2
        gens.append(boost)
    for i in range(3):
        gens.append({(k + 1, j + 1): F(-e) for (ii, j, k), e in _EPS.items() if ii == i})
    return gens


def _commutator(m, n):
    """[X_M, X_N] = X_{NM - MN}, with M = [[A, b], [0, 0]]: the bracket
    X(Y^mu) - Y(X^mu) of two affine fields given as [A | b]."""
    out = {}
    for left, right, sign in ((n, m, 1), (m, n, -1)):
        for (r, k), x in left.items():
            for (kk, col), y in right.items():
                if kk == k:
                    out[r, col] = out.get((r, col), 0) + sign * x * y
    return {rc: v for rc, v in out.items() if v}


def _derive_constants(gens, names) -> StructureConstants:
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [_commutator(gens[i], gens[j]) for i, j in pairs]
    coords = coordinate_map(gens, brackets, "bracket escaped the span of the fields").transpose()
    c = {ij: comps for ij, comps in zip(pairs, map(coords.vector, range(coords.rows))) if comps}
    return StructureConstants(n, tuple(names), c)


_CATALOG_CACHE: dict = {}


def catalog(name: str, **params) -> StructureConstants:
    """Named algebras: abelian(n), l3, so3, galilean, poincare(c)."""
    key = (name, tuple(sorted((k, F(v)) for k, v in params.items())))
    if key in _CATALOG_CACHE:
        return _CATALOG_CACHE[key]
    g = _build_catalog(name, params)
    _CATALOG_CACHE[key] = g
    return g


def _build_catalog(name, params):
    if name == "abelian":
        n = int(params.get("n", 0))
        if n <= 0:
            raise BadParams("abelian requires n >= 1")
        return _sc(n, [f"e{i + 1}" for i in range(n)], [])
    if name == "l3":
        if params:
            raise BadParams("l3 takes no parameters")
        return _sc(3, ["e1", "e2", "e3"], [(0, 1, 2, 1)])
    if name == "so3":
        if params:
            raise BadParams("so3 takes no parameters")
        entries = []
        for (i, j, k), v in _EPS.items():
            if i < j:
                entries.append((i, j, k, v))
        return _sc(3, ["e1", "e2", "e3"], entries)
    if name == "galilean":
        if params:
            raise BadParams("galilean takes no parameters")
        return _derive_constants(_affine_generators(None), POINCARE_BASIS)
    if name == "poincare":
        c = F(params.get("c", 1))
        if c <= 0:
            raise BadParams("poincare requires a positive rational c")
        extra = set(params) - {"c"}
        if extra:
            raise BadParams(f"unknown parameters {sorted(extra)}")
        return _derive_constants(_affine_generators(1 / (c * c)), POINCARE_BASIS)
    raise UnknownName(f"no catalog algebra named {name!r}")


def zero_one_cocycles(g: StructureConstants):
    """Basis of Z^1(G) = {t : c^k_{ij} t_k = 0}, i.e. H^1 with trivial coeffs."""
    return kernel_of_rows([clear_denominators(g.c[ij]) for ij in sorted(g.c)], g.dim)
