"""Exact linear algebra over the rationals: the package's one elimination layer.

Everything downstream (Lie-algebra cohomology, spectral sequences, the
classifier) reduces to the operations here: :func:`kernel_basis`,
:func:`image_basis`, :func:`quotient`, :func:`homology`, :func:`solve` and
:func:`span_coordinates`, plus the incremental :class:`Echelon` for spans
that grow one vector at a time.  All arithmetic is exact (``Fraction`` and
``int``); there is no floating point anywhere in the package, because ranks
and cohomology dimensions are integers and a single rounded pivot decision
would corrupt them.

There is one sparse matrix type and one sparse vector type.  A vector is a
``{index: Fraction}`` dict of its nonzero entries and nothing else; every
function here takes and returns vectors in that form, and :func:`dense`
writes one out as a tuple for the report-level shapes.  :class:`Mat` keeps
its rows as such vectors; producers build them directly and elimination
reads them as they are.  A :class:`Mat` is eliminated at most twice, once
by rows and once by columns, and keeps both reductions: a kernel reads the
first, an image the second, and the image's rank-nullity certificate
compares the two.

There is one elimination algorithm, the store of :class:`Echelon`: the
reduced echelon form as primitive ``{column: int}`` rows.
:func:`row_reduce` feeds it a batch, and :func:`rref` clears denominators
before and divides by the pivots after.  That form and its primitive rows
are unique, so every result here is reproducible bit for bit, whatever the
order of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

# Row reduction is the pure-Python ``row_reduce`` below and nothing else.
# The benchmark's traced runs read this name and reject any other value,
# because they time row reduction by wrapping that module-level function.
KERNEL_IMPL = "python"

# {index: Fraction}, nonzero entries only; the keys carry no order
Vector = dict[int, Fraction]
ZERO = Fraction(0)
ONE = Fraction(1)


class InvariantViolation(AssertionError):
    """A certificate failed: an identity that must hold exactly did not.

    It is raised explicitly, so ``python -O`` cannot strip the check the way
    it strips ``assert``; as an AssertionError it keeps the CLI's exit code 3.
    The package's named internal failures derive from it.
    """


class DenominatorNotContained(InvariantViolation):
    """Quotient denominator has a basis vector outside the numerator span."""


def _check_vector(v, n, what):
    if v and (min(v) < 0 or max(v) >= n or not all(v.values())):
        raise InvariantViolation(f"{what} stores a zero or an index outside 0..{n - 1}")


def dense(v: Vector, n) -> tuple[Fraction, ...]:
    """The vector v of Q^n written out as a tuple, for report-level shapes."""
    _check_vector(v, n, "a vector")
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def add_scaled(acc: dict, c, terms: dict):
    """acc += c * terms on sparse {key: coefficient} dicts, zeros dropped."""
    for k, x in terms.items():
        v = acc.get(k, 0) + c * x
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


@dataclass(frozen=True)
class Mat:
    """Sparse rows x cols matrix over the rationals.

    ``data[i]`` is row i as a ``{column: Fraction}`` dict of its nonzero
    entries and nothing else, so ``==`` means same shape and same entries.
    The rows go to :func:`rref` as they are; treat them as read-only, and
    the rows of the two reductions it keeps too, since they are shared.
    """

    rows: int
    cols: int
    data: tuple[dict, ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise InvariantViolation(f"{len(self.data)} sparse rows for a matrix of {self.rows} rows")
        for r in self.data:
            _check_vector(r, self.cols, "a sparse row")

    @staticmethod
    def from_rows(rows, cols=None):
        """Mat of dense rows of numbers, each converted to Fraction."""
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != cols:
                raise InvariantViolation(f"a row of {len(r)} entries in a matrix of {cols} columns")
            data.append({j: Fraction(x) for j, x in enumerate(r) if x})
        return Mat(len(data), cols, tuple(data))

    @staticmethod
    def zero(rows, cols):
        return Mat(rows, cols, tuple({} for _ in range(rows)))

    @staticmethod
    def identity(n):
        return Mat(n, n, tuple({i: ONE} for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i].get(j, ZERO)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """Dense row-major view, built once: entry (i, j) is at i * cols + j."""
        ent = [ZERO] * (self.rows * self.cols)
        for i, row in enumerate(self.data):
            base = i * self.cols
            for j, x in row.items():
                ent[base + j] = x
        return tuple(ent)

    @cached_property
    def row_reduction(self):
        """``rref`` of the rows, computed once: (pivots, reduced rows)."""
        return rref(self.data, self.cols)

    @cached_property
    def column_reduction(self):
        """``rref`` of the columns (the rows of the transpose), computed once."""
        return rref(self.transpose().data, self.rows)

    def transpose(self):
        data = tuple({} for _ in range(self.cols))
        for i, row in enumerate(self.data):
            for j, x in row.items():
                data[j][i] = x
        return Mat(self.cols, self.rows, data)

    def mul_vec(self, v: Vector) -> Vector:
        _check_vector(v, self.cols, "a vector times a matrix")
        out = {}
        for i, row in enumerate(self.data):
            s = ZERO
            for j, x in row.items():
                y = v.get(j)
                if y:
                    s += x * y
            if s:
                out[i] = s
        return out

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InvariantViolation(f"product of {self.rows}x{self.cols} and {other.rows}x{other.cols} matrices")
        data = []
        for row in self.data:
            acc = {}
            for k, a in row.items():
                for j, b in other.data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            data.append({j: x for j, x in acc.items() if x})
        return Mat(self.rows, other.cols, tuple(data))

    def is_zero(self):
        return not any(self.data)


def _int_row(v):
    """(den, w) with v = w / den and w a ``{column: int}`` row: one
    denominator per row, since row scaling preserves the row space."""
    den = 1
    for x in v.values():
        den = lcm(den, x.denominator)
    return den, {j: x.numerator * (den // x.denominator) for j, x in v.items() if x}


def _combine(a, w, x, row):
    """a*w - x*row on ``{column: int}`` rows, zeros dropped."""
    out = {j: a * y for j, y in w.items()} if a != 1 else dict(w)
    for j, y in row.items():
        z = out.get(j, 0) - x * y
        if z:
            out[j] = z
        else:
            del out[j]
    return out


def _primitive(w, p):
    """w divided by its content, signed so that its entry at p is positive."""
    g = gcd(*w.values())
    if w[p] < 0:
        g = -g
    return {j: y // g for j, y in w.items()} if g != 1 else w


class Echelon:
    """Reduced echelon basis of a span that grows one vector at a time.

    ``rows`` maps each pivot to a primitive integer ``{column: int}`` row
    with a positive entry there.  A row's pivot is its lowest column, and
    every row vanishes at every other pivot, so the store is the reduced
    echelon form of the span at every step.  A vector is reduced by one
    pass over its pivot entries, as ``a*v - x*row``; a nonzero residual is
    made primitive, stored under its lowest column, and that column is
    cleared from the other rows.  ``insert`` therefore accepts exactly the
    vectors that raise the rank of those inserted before them.  Columns are
    any mutually comparable keys.
    """

    def __init__(self):
        self.rows: dict = {}

    def _eliminate(self, w):
        """(s, r): r = s*w minus an element of the span, s > 0, r vanishing
        at every pivot.  The rows are reduced, so each step leaves the other
        pivot entries of w as they are."""
        s = 1
        for p in [p for p in w if p in self.rows]:
            row = self.rows[p]
            a, x = row[p], w[p]
            g = gcd(a, x)
            a, x = a // g, x // g
            s *= a
            w = _combine(a, w, x, row)
        return s, w

    def reduce(self, v) -> dict:
        """The residual of v: the one vector that differs from v by an
        element of the span and vanishes at every pivot; empty exactly when
        v lies in the span."""
        den, w = _int_row(v)
        s, r = self._eliminate(w)
        return {j: Fraction(x, den * s) for j, x in r.items()}

    def insert(self, v) -> bool:
        """Add v to the span; False (and nothing stored) when it is already in it."""
        return self._insert(_int_row(v)[1]) is not None

    def _insert(self, w):
        """``insert`` for a ``{column: int}`` row of nonzero entries: the
        new pivot, or None (and nothing stored) when w is in the span."""
        r = self._eliminate(w)[1]
        if not r:
            return None
        p = min(r)
        r = _primitive(r, p)
        a = r[p]
        for q, row in self.rows.items():
            x = row.get(p)
            if x:
                g = gcd(a, x)
                self.rows[q] = _primitive(_combine(a // g, row, x // g, r), q)
        self.rows[p] = r
        return p


def row_reduce(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of ``{column: int}`` rows.

    Returns ``(pivots, reduced)``: the ascending pivot columns and the
    primitive integer rows (coprime entries, positive pivot) of the reduced
    echelon form.  The rows go one at a time into an :class:`Echelon`, whose
    store is that form at every step; since it is unique, so is the result,
    whatever the order of ``rows``.
    """
    ech = Echelon()
    for r in rows:
        ech._insert(r)
    pivots = sorted(ech.rows)
    reduced = [ech.rows[p] for p in pivots]
    if pivots and (pivots[0] < 0 or max(max(r) for r in reduced) >= ncols):
        raise InvariantViolation(f"a row has an entry outside columns 0..{ncols - 1}")
    return pivots, reduced


def rref(rows, ncols):
    """Canonical rational RREF of sparse rows: (pivots, rows with pivot entries = 1)."""
    pivots, red = row_reduce([_int_row(r)[1] for r in rows], ncols)
    return pivots, [{j: Fraction(r[j], r[p]) for j in sorted(r)} for p, r in zip(pivots, red)]


@dataclass(frozen=True)
class Subspace:
    """Span of linearly independent vectors of a fixed ambient space.

    ``verified=True`` skips the independence check; internal constructors
    use it when the basis already comes out of a reduction.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    verified: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for v in self.basis:
            _check_vector(v, self.ambient_dim, "a basis vector")
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
        vecs = [v for v in vectors if v]
        if not vecs:
            return Subspace(ambient_dim, ())
        _, rows = rref(vecs, ambient_dim)
        return Subspace(ambient_dim, tuple(rows), verified=True)


def kernel_basis(m: Mat) -> Subspace:
    """Basis of the null space {v : m v = 0}, read from m's row reduction.

    Representatives come from the reduced echelon form: one vector per free
    column, free columns ascending, so the output is canonical.
    """
    return _kernel_from_rref(*m.row_reduction, m.cols)


def kernel_of_rows(rows, ncols) -> Subspace:
    """``kernel_basis`` of the matrix with these sparse rows, without building
    a Mat; with no rows the kernel is the whole space."""
    return _kernel_from_rref(*rref(rows, ncols), ncols)


def _kernel_from_rref(pivots, red, ncols) -> Subspace:
    """The kernel basis of the matrix whose reduced echelon form is
    (pivots, red).

    The reduced rows vanish at every other pivot, so each of their entries
    off the pivot lies in a free column.  One pass over them, in ascending
    pivot order, indexes those entries by free column; the vector of free
    column f is then ``{f: 1, p: -x, ...}`` read from the index."""
    free = {}  # {free column: [(pivot, entry), ...]}, pivots ascending
    for p, r in zip(pivots, red):
        for c, x in r.items():
            if c != p:
                free.setdefault(c, []).append((p, x))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for p, x in free.get(f, ()):
            v[p] = -x
        basis.append(v)
    return Subspace(ncols, tuple(basis), verified=True)


def image_basis(m: Mat) -> Subspace:
    """Canonical basis of the column space, read from m's column reduction.

    Its rank-nullity certificate compares that reduction with m's row
    reduction, two independent eliminations, each kept on m and so run at
    most once per matrix.  The basis vectors are the kept reduced rows."""
    _, rows = m.column_reduction
    sub = Subspace(m.rows, tuple(rows), verified=True)
    # rank-nullity, checked exactly: row rank equals column rank
    nullity = m.cols - len(m.row_reduction[0])
    if sub.dim + nullity != m.cols:
        raise InvariantViolation("rank-nullity failed: row and column rank differ")
    return sub


def solve(m: Mat, rhs: Vector) -> Vector | None:
    """One exact solution of m x = rhs, or None when rhs is not in the image.

    Deterministic: free variables of the underdetermined system are set to 0
    against the canonical RREF.
    """
    _check_vector(rhs, m.rows, "a right-hand side")
    rows = [{**row, m.cols: -rhs[i]} if i in rhs else row for i, row in enumerate(m.data)]
    return solve_rows(rows, m.cols)


def span_coordinates(vectors, target: Vector) -> Vector | None:
    """Coefficients c with sum_k c[k] * vectors[k] == target, or None when
    target lies outside the span.

    This is :func:`solve` on the matrix whose columns are the vectors, so
    coefficients of dependent vectors are set to 0 the same way.
    """
    n = len(vectors)
    rows = _scatter(vectors)
    for i, x in target.items():
        rows.setdefault(i, {})[n] = -x
    return solve_rows(list(rows.values()), n)


def _scatter(columns):
    """{row index: sparse row} of the matrix whose columns are these vectors."""
    rows = {}
    for k, v in enumerate(columns):
        for i, x in v.items():
            rows.setdefault(i, {})[k] = x
    return rows


def coordinate_map(family, targets, failure) -> Mat:
    """Mat whose column j holds the coordinates of targets[j] in the
    independent sparse family; raises InvariantViolation(failure) when a
    target lies outside the family's span.

    One elimination of the columns [family | -targets]: every family column
    is a pivot, row k of the RREF holds minus the k-th coordinate of each
    target, and a pivot in a target column is a target outside the span.
    """
    n = len(family)
    rows = _scatter(family)
    for j, t in enumerate(targets):
        for i, x in t.items():
            rows.setdefault(i, {})[n + j] = -x
    pivots, red = rref(list(rows.values()), n + len(targets))
    if pivots and pivots[-1] >= n:
        raise InvariantViolation(failure)
    data = [{} for _ in range(n)]
    for p, r in zip(pivots, red):
        data[p] = {c - n: -x for c, x in r.items() if c >= n}
    return Mat(n, len(targets), tuple(data))


def solve_rows(rows, nvars) -> Vector | None:
    """``solve`` for augmented sparse rows: x with
    sum_k row[k] x[k] + row[nvars] = 0 for every row, or None.

    Column ``nvars`` holds minus the right-hand side.  Free variables are 0
    against the canonical RREF.
    """
    if any(len(r) == 1 and nvars in r for r in rows):  # 0 = a nonzero constant
        return None
    pivots, red = rref(rows, nvars + 1)
    if nvars in pivots:
        return None
    return {p: -r[nvars] for p, r in zip(pivots, red) if nvars in r}


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
        return {i - k: x for i, x in coeffs.items() if i >= k}

    def is_zero_class(self, v) -> bool:
        return not self.reduce(v)


def quotient(z: Subspace, b: Subspace) -> QuotientSpace:
    """Quotient of span(z) by span(b); raises if b is not contained in z.

    An Echelon seeded with B takes Z's basis in order; the Z vectors that
    raise its rank are the representatives, the vectors of Z independent of
    B and of the Z vectors before them.  By the zero subspace they are all
    of Z's basis, which is independent, and nothing is eliminated."""
    if z.ambient_dim != b.ambient_dim:
        raise InvariantViolation(f"quotient of a subspace of Q^{z.ambient_dim} by one of Q^{b.ambient_dim}")
    if b.basis:
        ech = Echelon()
        for v in b.basis:
            ech.insert(v)
        reps = tuple(v for v in z.basis if ech.insert(v))
        # containment: B inside span(Z) iff rank[B|Z] = dim Z (bases independent)
        if len(ech.rows) != z.dim:
            raise DenominatorNotContained("a denominator vector lies outside the numerator span")
    else:
        reps = z.basis
    q = QuotientSpace(z.ambient_dim, z, b, len(reps), reps, b.basis + reps)
    if q.dim + b.dim != z.dim:
        raise InvariantViolation("dim Z/B + dim B != dim Z")
    return q


def homology(d_out: Mat, d_in: Mat | None) -> QuotientSpace:
    """ker d_out / im d_in, the homology at the space between two maps of a
    complex; by the zero subspace when d_in is None."""
    z = kernel_basis(d_out)
    b = image_basis(d_in) if d_in is not None else Subspace(z.ambient_dim, ())
    return quotient(z, b)

