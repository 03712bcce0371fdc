"""Exact linear algebra over the rationals: the package's one elimination layer.

Everything downstream (Lie-algebra cohomology, spectral sequences, the
classifier) reduces to the operations here: :func:`kernel_basis`,
:func:`image_basis`, :func:`quotient`, :func:`solve` and
:func:`span_coordinates`, plus the incremental :class:`Echelon` for spans
that grow one vector at a time.  All arithmetic is exact (``Fraction`` and
``int``); there is no floating point anywhere in the package, because ranks
and cohomology dimensions are integers and a single rounded pivot decision
would corrupt them.

Batch elimination goes through :func:`rref`, which clears denominators and
hands integer rows to the fraction-free :func:`row_reduce`.  Its output is
the canonical RREF of the row space, so every result here is reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

# Row reduction is the pure-Python ``row_reduce`` below and nothing else.
# The benchmark's traced runs read this name and reject any other value,
# because they time row reduction by wrapping that module-level function.
KERNEL_IMPL = "python"

# During elimination a row is divided by its gcd once an entry grows past
# this many bits; the final pass makes every row primitive regardless.
NORMALIZE_BITS = 64

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


def _row_gcd(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def _make_primitive(row, pivot_col):
    g = _row_gcd(row)
    if g == 0:
        return row
    if row[pivot_col] < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row


def row_reduce(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer ``rows`` (a copy).

    Returns ``(pivots, reduced)`` where ``pivots`` is the ascending list of
    pivot columns and ``reduced`` the corresponding primitive integer rows
    (coprime entries, positive pivot) of the reduced echelon form.  A row is
    combined as ``p*row - x*pivot_row``, so entries are Python ints and never
    overflow.  Pivot choice is the first row with a nonzero entry in the
    scanned column, so the result is deterministic.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = -1
        for r in range(rank, nrows):
            if work[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != rank:
            work[rank], work[sel] = work[sel], work[rank]
        prow = _make_primitive(work[rank], col)
        work[rank] = prow
        p = prow[col]
        for r in range(nrows):
            if r == rank:
                continue
            row = work[r]
            x = row[col]
            if not x:
                continue
            new = [p * a - x * b for a, b in zip(row, prow)]
            big = False
            for v in new:
                if v and v.bit_length() > NORMALIZE_BITS:
                    big = True
                    break
            if big:
                g = _row_gcd(new)
                if g > 1:
                    new = [v // g for v in new]
            work[r] = new
        pivots.append(col)
        rank += 1
    reduced = [_make_primitive(work[i], pivots[i]) for i in range(rank)]
    return pivots, reduced


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

    ``verified=True`` skips the independence check; internal constructors
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
            if len(pivots) != len(self.basis):
                raise InvariantViolation("basis is linearly dependent")

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coefficients of v in this basis, or None if v is outside the span."""
        return span_coordinates(self.basis, v)

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
    # rank-nullity, checked exactly: row rank equals column rank
    row_pivots, _ = rref(m.row_lists(), m.cols)
    nullity = m.cols - len(row_pivots)
    if sub.dim + nullity != m.cols:
        raise InvariantViolation("rank-nullity failed: row and column rank differ")
    return sub


def solve(m: Mat, rhs) -> Vector | None:
    """One exact solution of m x = rhs, or None when rhs is not in the image.

    Deterministic: free variables of the underdetermined system are set to 0
    against the canonical RREF.
    """
    rhs = _as_fraction_row(rhs)
    assert len(rhs) == m.rows
    return solve_rows([list(m.row(i)) + [-rhs[i]] for i in range(m.rows)], m.cols)


def span_coordinates(vectors, target) -> Vector | None:
    """Coefficients c with sum_k c[k] * vectors[k] == target, or None when
    target lies outside the span.

    Vectors and target are dense sequences or sparse ``{coordinate: entry}``
    dicts.  This is :func:`solve` on the matrix whose columns are the
    vectors, so coefficients of dependent vectors are set to 0 the same way.
    """
    n = len(vectors)
    rows = {}
    for k, v in enumerate(vectors):
        for i, x in _nonzero_entries(v):
            rows.setdefault(i, {})[k] = x
    for i, x in _nonzero_entries(target):
        rows.setdefault(i, {})[n] = -x
    return solve_rows(list(rows.values()), n)


def _nonzero_entries(v):
    return v.items() if isinstance(v, dict) else ((i, x) for i, x in enumerate(v) if x)


def solve_rows(rows, nvars):
    """``solve`` for augmented rows: x with sum_k row[k] x[k] + row[nvars] = 0
    for every row, or None.

    Rows are dense sequences or sparse ``{column: entry}`` dicts; column
    ``nvars`` holds minus the right-hand side.  Free variables are 0 against
    the canonical RREF.
    """
    pivots, red = rref(rows, nvars + 1)
    if nvars in pivots:
        return None
    x = [Fraction(0)] * nvars
    for p, r in zip(pivots, red):
        x[p] = -r[nvars]
    return tuple(x)


class Echelon:
    """Echelon basis of a span that grows one sparse vector at a time.

    Vectors are ``{column: entry}`` dicts.  ``reduce`` subtracts the rows in
    insertion order; ``insert`` keeps a vector whose residual is nonzero as a
    new row, pivoting on the residual's lowest nonzero column and scaling
    that pivot to 1.  Each row vanishes at the pivots of earlier rows, so a
    residual vanishes at every pivot, and it is empty exactly when the vector
    lies in the span.  ``insert`` therefore accepts exactly the vectors that
    raise the rank of those inserted before them.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: list = []

    def reduce(self, v) -> dict:
        v = {col: x for col, x in v.items() if x}
        for row, p in zip(self.rows, self.pivots):
            c = v.get(p)
            if c:
                for col, x in row.items():
                    y = v.get(col, 0) - c * x
                    if y:
                        v[col] = y
                    else:
                        del v[col]
        return v

    def insert(self, v) -> bool:
        """Add v to the span; False (and nothing stored) when it is already in it."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        inv = Fraction(1) / v[p]
        self.rows.append({col: x * inv for col, x in v.items()})
        self.pivots.append(p)
        return True


@dataclass(frozen=True)
class QuotientSpace:
    """Exact quotient Z/B of two subspaces of the same ambient space.

    ``representatives`` are basis vectors of Z projecting to a basis of the
    quotient; ``reduce`` maps any vector of Z to its quotient coordinates
    through the columns [B | representatives].
    """

    ambient_dim: int
    numerator: Subspace
    denominator: Subspace
    dim: int
    representatives: tuple[Vector, ...]
    _reduction_columns: tuple[Vector, ...]

    def reduce(self, v) -> Vector:
        """Coordinates of [v] in the representative basis; v must lie in Z+B."""
        coeffs = span_coordinates(self._reduction_columns, v)
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
    pivots = pivot_columns(cols, z.ambient_dim)
    # containment: B inside span(Z) iff rank[B|Z] = dim Z (bases independent)
    if len(pivots) != z.dim:
        raise DenominatorNotContained("a denominator vector lies outside the numerator span")
    reps = tuple(z.basis[i - b.dim] for i in pivots if i >= b.dim)
    q = QuotientSpace(z.ambient_dim, z, b, len(reps), reps, tuple(b.basis) + reps)
    assert q.dim + b.dim == z.dim
    return q


def pivot_columns(cols, ambient_dim):
    """Pivot column indices of the matrix whose columns are ``cols``: the
    vectors independent of those before them."""
    if not cols:
        return []
    rows = [[c[i] for c in cols] for i in range(ambient_dim)]
    pivots, _ = rref(rows, len(cols))
    return pivots
