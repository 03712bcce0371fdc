"""Exact dense linear algebra over the rationals.

Everything downstream (Lie-algebra cohomology, spectral sequences, the
classifier) reduces to the four operations here: :func:`kernel_basis`,
:func:`image_basis`, :func:`quotient` and :func:`solve`.  All arithmetic is
exact (``fractions.Fraction``); there is no floating point anywhere in the
package, because ranks and cohomology dimensions are integers and a single
rounded pivot decision would corrupt them.

Row reduction itself is fraction-free over the integers and is delegated to
a hot kernel: the compiled ``lagfloor._rowreduce`` extension when available,
otherwise the pure-Python twin.  Set ``LAGFLOOR_PURE=1`` to force the
fallback.  Both produce the canonical integer RREF, so every result here is
reproducible bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

if os.environ.get("LAGFLOOR_PURE"):
    from ._rowreduce_py import row_reduce

    KERNEL_IMPL = "python"
else:
    try:
        from ._rowreduce import row_reduce

        KERNEL_IMPL = "c"
    except ImportError:
        from ._rowreduce_py import row_reduce

        KERNEL_IMPL = "python"

Scalar = Fraction
Vector = tuple[Fraction, ...]


class DenominatorNotContained(Exception):
    """Quotient denominator has a basis vector outside the numerator span."""


class InvariantViolation(AssertionError):
    """A certificate failed: an identity that must hold exactly did not.

    It is raised explicitly, so ``python -O`` cannot strip the check the way
    it strips ``assert``; as an AssertionError it keeps the CLI's exit code 3.
    """


def _as_fraction_row(row):
    return tuple(Fraction(x) for x in row)


@dataclass(frozen=True)
class Mat:
    """Dense rows x cols matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.entries) == self.rows * self.cols

    @staticmethod
    def from_rows(rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        ent = []
        for r in rows:
            assert len(r) == cols
            ent.extend(Fraction(x) for x in r)
        return Mat(len(rows), cols, tuple(ent))

    @staticmethod
    def zero(rows, cols):
        return Mat(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n):
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return Mat(n, n, tuple(ent))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        ent = []
        for j in range(self.cols):
            for i in range(self.rows):
                ent.append(self.entries[i * self.cols + j])
        return Mat(self.cols, self.rows, tuple(ent))

    def mul_vec(self, v) -> Vector:
        assert len(v) == self.cols
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = Fraction(0)
            for j, x in enumerate(v):
                if x:
                    e = self.entries[base + j]
                    if e:
                        s += e * x
            out.append(s)
        return tuple(out)

    def mul(self, other: "Mat") -> "Mat":
        assert self.cols == other.rows
        cols = [other.col(j) for j in range(other.cols)]
        ent = []
        for i in range(self.rows):
            row = self.row(i)
            for c in cols:
                s = Fraction(0)
                for a, b in zip(row, c):
                    if a and b:
                        s += a * b
                ent.append(s)
        return Mat(self.rows, other.cols, tuple(ent))

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    def hstack(self, other: "Mat") -> "Mat":
        assert self.rows == other.rows
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Mat(self.rows, self.cols + other.cols, tuple(ent))


def _int_rows(rows, ncols):
    """Clear denominators row by row; row scaling preserves row space.

    A row is a dense sequence of int or Fraction entries (int.denominator is
    1), or a sparse ``{column: entry}`` dict, which comes out dense.
    """
    out = []
    for r in rows:
        if isinstance(r, dict):
            den = 1
            for x in r.values():
                den = lcm(den, x.denominator)
            dense = [0] * ncols
            for j, x in r.items():
                dense[j] = x.numerator * (den // x.denominator)
            out.append(dense)
            continue
        den = 1
        for x in r:
            if x:
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in r])
        else:
            out.append([int(x * den) for x in r])
    return out


def rref(rows, ncols):
    """Canonical rational RREF: (pivots, rows with pivot entries = 1).

    Rows may be dense sequences or sparse ``{column: entry}`` dicts.
    """
    pivots, red = row_reduce(_int_rows(rows, ncols), ncols)
    zero = Fraction(0)
    out = []
    for p, r in zip(pivots, red):
        d = r[p]
        out.append(tuple(Fraction(x, d) if x else zero for x in r))
    return pivots, out


@dataclass(frozen=True)
class Subspace:
    """Span of linearly independent column vectors of a fixed ambient space.

    ``verified=True`` skips the independence assertion; internal constructors
    use it when the basis already comes out of a reduction.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    verified: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for v in self.basis:
            assert len(v) == self.ambient_dim
        if self.basis and not self.verified:
            pivots, _ = rref(self.basis, self.ambient_dim)
            assert len(pivots) == len(self.basis), "basis is linearly dependent"

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coefficients of v in this basis, or None if v is outside the span."""
        if not self.basis:
            return () if all(x == 0 for x in v) else None
        m = Mat.from_rows(list(zip(*self.basis)), len(self.basis))
        return solve(m, _as_fraction_row(v))

    @staticmethod
    def spanned_by(vectors, ambient_dim):
        """Canonical subspace spanned by arbitrary (possibly dependent) vectors."""
        vecs = [v for v in vectors if any(x != 0 for x in v)]
        if not vecs:
            return Subspace(ambient_dim, ())
        _, rows = rref(vecs, ambient_dim)
        return Subspace(ambient_dim, tuple(rows), verified=True)


def kernel_basis(m: Mat) -> Subspace:
    """Basis of the null space {v : m v = 0}.

    Representatives come from the reduced echelon form: one vector per free
    column, free columns ascending, so the output is canonical.
    """
    return kernel_of_rows(m.row_lists(), m.cols)


def kernel_of_rows(rows, ncols) -> Subspace:
    """``kernel_basis`` of the matrix with these rows, without building a Mat.

    Rows are dense sequences or sparse ``{column: entry}`` dicts; with no
    rows the kernel is the whole space.
    """
    pivots, red = rref(rows, ncols)
    pivot_set = set(pivots)
    zero = Fraction(0)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = Fraction(1)
        for p, r in zip(pivots, red):
            if r[f]:
                v[p] = -r[f]
        basis.append(tuple(v))
    return Subspace(ncols, tuple(basis), verified=True)


def image_basis(m: Mat) -> Subspace:
    """Canonical basis of the column space (RREF of the transpose)."""
    _, rows = rref(m.transpose().row_lists(), m.rows)
    sub = Subspace(m.rows, tuple(rows), verified=True)
    # rank-nullity, asserted exactly: row rank equals column rank
    row_pivots, _ = rref(m.row_lists(), m.cols)
    nullity = m.cols - len(row_pivots)
    assert sub.dim + nullity == m.cols
    return sub


def solve(m: Mat, rhs) -> Vector | None:
    """One exact solution of m x = rhs, or None when rhs is not in the image.

    Deterministic: free variables of the underdetermined system are set to 0
    against the canonical RREF.
    """
    rhs = _as_fraction_row(rhs)
    assert len(rhs) == m.rows
    aug = [list(m.row(i)) + [-rhs[i]] for i in range(m.rows)]
    pivots, rows = rref(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * (m.cols + 1)
    x[m.cols] = Fraction(1)
    for i, p in enumerate(pivots):
        x[p] = -rows[i][m.cols]
    return tuple(x[: m.cols])


@dataclass(frozen=True)
class QuotientSpace:
    """Exact quotient Z/B of two subspaces of the same ambient space.

    ``representatives`` are basis vectors of Z projecting to a basis of the
    quotient; ``reduce`` maps any vector of Z to its quotient coordinates.
    The reduction data is the precomputed column matrix [B | representatives].
    """

    ambient_dim: int
    numerator: Subspace
    denominator: Subspace
    dim: int
    representatives: tuple[Vector, ...]
    _reduction_matrix: Mat

    def reduce(self, v) -> Vector:
        """Coordinates of [v] in the representative basis; v must lie in Z+B."""
        coeffs = solve(self._reduction_matrix, v)
        if coeffs is None:
            raise ValueError("vector is not in the numerator subspace")
        k = self.denominator.dim
        return tuple(coeffs[k:])

    def is_zero_class(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))


def quotient(z: Subspace, b: Subspace) -> QuotientSpace:
    """Quotient of span(z) by span(b); raises if b is not contained in z."""
    assert z.ambient_dim == b.ambient_dim
    # columns of [B | Z]; z-columns that stay pivotal are the representatives
    cols = list(b.basis) + list(z.basis)
    pivots = _pivot_columns_of(cols, z.ambient_dim)
    # containment: B inside span(Z) iff rank[B|Z] = dim Z (bases independent)
    if len(pivots) != z.dim:
        raise DenominatorNotContained("a denominator vector lies outside the numerator span")
    reps = [z.basis[i - b.dim] for i in pivots if i >= b.dim]
    red_cols = list(b.basis) + reps
    if red_cols:
        red = Mat.from_rows([[c[i] for c in red_cols] for i in range(z.ambient_dim)], len(red_cols))
    else:
        red = Mat.zero(z.ambient_dim, 0)
    q = QuotientSpace(z.ambient_dim, z, b, len(reps), tuple(reps), red)
    assert q.dim + b.dim == z.dim
    return q


def _pivot_columns_of(cols, ambient_dim):
    """Pivot column indices of the matrix whose columns are ``cols``."""
    if not cols:
        return []
    rows = [[c[i] for c in cols] for i in range(ambient_dim)]
    pivots, _ = rref(rows, len(cols))
    return pivots
