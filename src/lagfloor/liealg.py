"""Finite-dimensional Lie algebras by structure constants, plus a catalog.

The Poincare and Galilean tables are never typed in by hand: each catalog
call derives them by commuting the defining vector fields on R^4.  Every one
of them is affine, x -> Ax + b, and the bracket of two affine fields is the
affine field of a matrix commutator, so the derivation is exact linear
algebra and reads the coefficients off with one coordinate solve.  A golden
test pins the derived values, which removes transcription risk without
freezing files.  The checks on a table live in :mod:`.cecohom`: the Jacobi
identity is delta^2 = 0 there, and Z^1 is the kernel of delta_1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import coordinate_map

F = Fraction
# the value of every structure constant that a table leaves out; Fractions
# are immutable, so one shared zero serves every lookup
ZERO = F(0)


class UnknownName(Exception):
    pass


class BadParams(Exception):
    pass


class StructureConstants:
    """Lie algebra given by c^k_{ij} for i<j (antisymmetry implied).

    Every given constant is validated and only the nonzero ones are kept:
    ``c`` is {(i, j): {k: Fraction}}, pairs and k ascending.  ``table`` is
    the same constants as integers over the one denominator ``den``, the
    lcm of their denominators: {(i, j): ((k, int), ...)} for every i < j,
    empty where [e_i, e_j] = 0, so a zero constant given changes nothing.

    ``trivial_module`` is a slot that this module never reads: the
    cohomology layer keeps the algebra's trivial module there, so that the
    module lives exactly as long as the algebra.
    """

    __slots__ = ("dim", "basis_names", "c", "den", "table", "trivial_module", "__weakref__")

    def __init__(self, dim: int, basis_names: tuple[str, ...], c: dict | None = None):
        c = {} if c is None else c  # (i, j) i<j -> {k: Fraction}
        if len(basis_names) != dim:
            raise ValueError("an algebra needs one basis name per dimension")
        for (i, j), comps in c.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket index pair {(i, j)} is not i < j < dim")
            for k, v in comps.items():
                if not (0 <= k < dim and isinstance(v, Fraction)):
                    raise ValueError(f"bracket component {k} = {v!r} needs 0 <= k < dim and a Fraction value")
        nonzero = ((ij, {k: v for k, v in sorted(c[ij].items()) if v}) for ij in sorted(c))
        self.dim = dim
        self.basis_names = basis_names
        self.c = {ij: comps for ij, comps in nonzero if comps}
        self.den = lcm(*[v.denominator for comps in self.c.values() for v in comps.values()])
        self.table = {
            (i, j): tuple((k, v.numerator * (self.den // v.denominator)) for k, v in self.c.get((i, j), {}).items())
            for i in range(dim)
            for j in range(i + 1, dim)
        }
        self.trivial_module = None

    def coeff(self, i, j, k) -> Fraction:
        """c^k_{ij} for arbitrary i, j."""
        if i == j:
            return ZERO
        if i < j:
            return self.c.get((i, j), {}).get(k, ZERO)
        return -self.c.get((j, i), {}).get(k, ZERO)


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


def catalog(name: str, **params) -> StructureConstants:
    """Named algebras: abelian(n), l3, so3, galilean, poincare(c); a new
    table at each call, so that the algebra, and what is kept for it, goes
    with its last reader."""
    params = {k: F(v) for k, v in params.items()}
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

