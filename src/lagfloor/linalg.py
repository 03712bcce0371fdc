"""Exact linear algebra over the rationals: the package's one elimination layer.

Everything downstream (Lie-algebra cohomology, spectral sequences, the
classifier) reduces to the operations here: :func:`kernel_basis`,
:func:`image_basis`, :func:`quotient`, :func:`homology`, :func:`solve` and
:func:`span_coordinates`, plus the incremental :class:`Echelon` for spans
that grow one vector at a time.  All arithmetic is exact (``int``, and
``Fraction`` at the edges); there is no floating point anywhere in the
package, because ranks and cohomology dimensions are integers and a single
rounded pivot decision would corrupt them.

Inside, every row is an integer row: a ``{column: int}`` dict of its
nonzero entries.  A :class:`Mat` keeps one per row, over one positive
denominator per row, in canonical form (the denominator is the lcm of the
entries' denominators), so ``==`` compares values.  An equation is an
integer row with no denominator, since scaling it keeps its solutions:
:func:`kernel_of_rows` and :func:`solve_rows` take such rows, and
:func:`clear_denominators` makes one of a rational row.  Products,
transposes, both reductions of a Mat, kernels, images and quotients all run
on integer rows.

``Fraction`` is left to the edges.  A vector is a ``{index: Fraction}``
dict of its nonzero entries and nothing else (:data:`Vector`): what
:class:`Subspace` and :class:`QuotientSpace` hand to their readers, the
input and output of ``Mat.mul_vec``, ``solve`` and ``span_coordinates``,
and what :func:`dense` writes out as a tuple.  A subspace keeps its basis
as canonical integer rows and builds those vectors only when they are read.

A :class:`Mat` keeps each elimination it gets: its row reduction, which a
kernel reads, and its column reduction, which an image reads and its
rank-nullity certificate compares with the first.  There
is one elimination algorithm, the store of :class:`Echelon`: echelon rows,
primitive integer rows each stored under its lowest column.  An insert
clears only the new vector's lowest entry, while that column is a pivot,
and never back-substitutes, since ranks, pivots and residuals need no more.
:func:`row_reduce` feeds it a batch and back-substitutes once, from the
highest pivot down, and :func:`rref`, which every reduction enters through,
returns that reduced echelon form as it is: row k stands for the rational
row ``reduced[k] / reduced[k][pivots[k]]``.  That form and its primitive
rows are unique, so every result here is reproducible bit for bit,
whatever the order of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

# Row reduction is the pure-Python ``row_reduce`` below and nothing else.
# The benchmark's traced runs read this name and reject any other value,
# because they time row reduction by wrapping that module-level function.
KERNEL_IMPL = "python"

# {index: Fraction}, nonzero entries only; the keys carry no order
Vector = dict[int, Fraction]
ZERO = Fraction(0)


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


def _int_row(v):
    """(den, w): the rational row v as the integer row w over den, the lcm
    of its entries' denominators, which is the canonical form; zeros dropped."""
    den = lcm(*[x.denominator for x in v.values()])
    return den, {j: x.numerator * (den // x.denominator) for j, x in v.items() if x}


def clear_denominators(v) -> dict:
    """The equation row v (rational entries) times the lcm of its entries'
    denominators: a ``{column: int}`` row with the same solutions."""
    return _int_row(v)[1]


def _canonical(den, w):
    """The canonical form of the row w / den, den > 0: both divided by the
    gcd of den and w's entries."""
    if den != 1:
        g = gcd(den, *w.values())
        if g != 1:
            return den // g, {j: x // g for j, x in w.items()}
    return den, w


def _vector(den, w) -> Vector:
    """The {index: Fraction} vector w / den, in w's key order."""
    if den == 1:
        return {j: Fraction(x) for j, x in w.items()}
    return {j: Fraction(x, den) for j, x in w.items()}


class Mat:
    """Sparse rows x cols matrix over the rationals, kept as integer rows.

    Row i is ``data[i] / dens[i]``: a ``{column: int}`` dict of its nonzero
    entries and nothing else, over a positive denominator.  The form is
    canonical: each denominator is the lcm of its row's entry denominators,
    so it shares no factor with all of the row's entries, and ``==`` means
    same shape and same values.  ``dens`` defaults to all ones, an integer
    matrix.  The integer rows go to :func:`rref` as they are, since scaling
    a row keeps its row space; treat them as read-only, and the rows of the
    two reductions it keeps too, since they are shared.
    """

    def __init__(self, rows: int, cols: int, data: tuple[dict, ...], dens: tuple[int, ...] | None = None):
        if len(data) != rows:
            raise InvariantViolation(f"{len(data)} sparse rows for a matrix of {rows} rows")
        if dens is None:
            dens = (1,) * rows
        elif len(dens) != rows:
            raise InvariantViolation(f"{len(dens)} row denominators for a matrix of {rows} rows")
        for r, den in zip(data, dens):
            _check_vector(r, cols, "a sparse row")
            if type(den) is not int or r and set(map(type, r.values())) != {int}:
                raise InvariantViolation("a row of a Mat holds an entry or a denominator that is not an int")
            if den != 1 and (den < 1 or gcd(den, *r.values()) != 1):
                raise InvariantViolation(f"row denominator {den} is not in lowest terms with its row")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.dens = dens

    def __eq__(self, other):
        if type(other) is not Mat:
            return NotImplemented
        return (self.rows, self.cols, self.data, self.dens) == (other.rows, other.cols, other.data, other.dens)

    # The benchmark's total-cohomology oracle reads a Mat through
    # ``entries``, ``rows`` and ``cols``, and its self-test builds one with
    # ``from_rows``: keep these as they are.
    @staticmethod
    def from_rows(rows, cols=None):
        """Mat of dense rows of numbers, each read as a Fraction."""
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        vectors = []
        for r in rows:
            if len(r) != cols:
                raise InvariantViolation(f"a row of {len(r)} entries in a matrix of {cols} columns")
            vectors.append({j: Fraction(x) for j, x in enumerate(r) if x})
        return Mat.from_vectors(vectors, cols)

    @staticmethod
    def from_vectors(vectors, cols):
        """Mat whose rows are these sparse {column: rational} vectors."""
        for v in vectors:
            _check_vector(v, cols, "a sparse row")
        pairs = [_int_row(v) for v in vectors]
        return Mat(len(pairs), cols, tuple(w for _, w in pairs), tuple(d for d, _ in pairs))

    @staticmethod
    def over(den, rows, cols):
        """Mat of the integer rows ``rows[i] / den``, put in canonical form."""
        pairs = [_canonical(den, w) for w in rows]
        return Mat(len(pairs), cols, tuple(w for _, w in pairs), tuple(d for d, _ in pairs))

    @staticmethod
    def zero(rows, cols):
        return Mat(rows, cols, tuple({} for _ in range(rows)))

    def vector(self, i) -> Vector:
        """Row i as a {column: Fraction} vector."""
        return _vector(self.dens[i], self.data[i])

    # read by the benchmark's oracle (see above from_rows)
    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """Dense row-major view, built once: entry (i, j) is at i * cols + j."""
        ent = [ZERO] * (self.rows * self.cols)
        for i, (row, den) in enumerate(zip(self.data, self.dens)):
            base = i * self.cols
            for j, x in row.items():
                ent[base + j] = Fraction(x, den)
        return tuple(ent)

    @cached_property
    def row_reduction(self):
        """``rref`` of the rows, computed once: (pivots, reduced rows)."""
        return rref(self.data, self.cols)

    @cached_property
    def column_reduction(self):
        """``rref`` of the columns (the rows of the transpose), computed once."""
        return rref(self.int_columns, self.rows)

    def _over_lcm(self):
        """(d, rows): the matrix as integer rows over one denominator d, the
        lcm of the row denominators."""
        d = lcm(*self.dens)
        if d == 1:
            return 1, self.data
        return d, [{j: x * (d // den) for j, x in row.items()} if den != d else row
                   for row, den in zip(self.data, self.dens)]

    @cached_property
    def int_columns(self) -> tuple[dict, ...]:
        """The columns as integer rows, each the column times the lcm of the
        row denominators, built once: what an elimination of the columns reads."""
        cols = tuple({} for _ in range(self.cols))
        for i, row in enumerate(self._over_lcm()[1]):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    def transpose(self):
        return Mat.over(lcm(*self.dens), self.int_columns, self.rows)

    def mul_vec(self, v: Vector) -> Vector:
        _check_vector(v, self.cols, "a vector times a matrix")
        dv, w = _int_row(v)
        out = {}
        for i, (row, den) in enumerate(zip(self.data, self.dens)):
            s = 0
            for j, x in row.items():
                y = w.get(j)
                if y:
                    s += x * y
            if s:
                out[i] = Fraction(s, den * dv)
        return out

    def mul(self, other: "Mat") -> "Mat":
        d = lcm(*other.dens)
        pairs = [_canonical(den * d, {j: x for j, x in acc.items() if x})
                 for den, acc in zip(self.dens, _row_products(self, other))]
        return Mat(self.rows, other.cols, tuple(w for _, w in pairs), tuple(den for den, _ in pairs))


def _row_products(a: Mat, b: Mat):
    """Row i of a·b times a.dens[i] * d, d the lcm of b's row denominators,
    for each i: a's integer rows times b's rows brought over d, zeros kept."""
    if a.cols != b.rows:
        raise InvariantViolation(f"product of {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices")
    _, right = b._over_lcm()
    for row in a.data:
        acc = {}
        for k, x in row.items():
            for j, y in right[k].items():
                acc[j] = acc.get(j, 0) + x * y
        yield acc


def product_nonzeros(a: Mat, b: Mat):
    """The (i, j) of each nonzero entry of a·b, rows ascending, computed as
    ``Mat.mul`` computes it, with no product built: a zero test of a·b."""
    return ((i, j) for i, acc in enumerate(_row_products(a, b)) for j, x in acc.items() if x)


class CheckReport:
    """The outcome of a validity check: the tuple of its violations, each
    named by where a squared differential has a nonzero entry, and ``ok``
    when there is none."""

    __slots__ = ("violations",)

    def __init__(self, violations: tuple):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


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
    """Echelon basis of a span that grows one vector at a time.

    ``rows`` maps each pivot to a primitive integer ``{column: int}`` row
    with a positive entry there, and a row's pivot is its lowest column.
    The store is forward only: a row may still hold entries at later
    pivots, since nothing is back-substituted on insert.  A vector is
    inserted by clearing its lowest entry, as ``a*w - x*row``, while that
    column is a pivot; what is left is empty, or made primitive and stored
    under its lowest column, the pivot a full reduction would find, since
    the rows it would use past that point have larger pivots.  ``insert``
    therefore accepts exactly the vectors that raise the rank of those
    inserted before them.  Columns are any mutually comparable keys.
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, v) -> dict:
        """The residual of the rational vector v: the one vector that differs
        from v by an element of the span and vanishes at every pivot; empty
        exactly when v lies in the span.  Its pivot entries are cleared in
        ascending order, from a heap, since a forward row can bring in
        entries at later pivots."""
        den, w = _int_row(v)
        rows = self.rows
        s = 1
        todo = [p for p in w if p in rows]
        heapify(todo)
        while todo:
            p = heappop(todo)
            if p not in w:  # a column pushed twice, already cleared
                continue
            row = rows[p]
            a, x = row[p], w[p]
            g = gcd(a, x)
            a, x = a // g, x // g
            s *= a
            w = _combine(a, w, x, row)
            for q in row:
                if q in rows and q in w:
                    heappush(todo, q)
        return {j: Fraction(x, den * s) for j, x in w.items()}

    def insert(self, v) -> bool:
        """Add the rational vector v to the span; False (and nothing stored)
        when it is already in it."""
        return self._insert(_int_row(v)[1]) is not None

    def _insert(self, w):
        """``insert`` for a ``{column: int}`` row of nonzero entries: the
        new pivot, or None (and nothing stored) when w is in the span."""
        rows = self.rows
        while w:
            p = min(w)
            row = rows.get(p)
            if row is None:
                rows[p] = _primitive(w, p)
                return p
            a, x = row[p], w[p]
            g = gcd(a, x)
            w = _combine(a // g, w, x // g, row)
        return None


def row_reduce(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of ``{column: int}`` rows.

    Returns ``(pivots, reduced)``: the ascending pivot columns and the
    primitive integer rows (coprime entries, positive pivot) of the reduced
    echelon form.  The rows go one at a time into an :class:`Echelon`,
    sparsest first, since a sparse stored row brings fewer entries into the
    rows reduced by it; then its forward rows are back-substituted once,
    from the highest pivot down: each is cleared at the later pivots by the
    rows already reduced, which vanish at every other pivot, and made
    primitive.  That form is unique, so the result is too, whatever the
    order of ``rows``.
    """
    ech = Echelon()
    for r in sorted(rows, key=len):
        ech._insert(r)
    pivots = sorted(ech.rows)
    if pivots and (pivots[0] < 0 or max(max(r) for r in ech.rows.values()) >= ncols):
        raise InvariantViolation(f"a row has an entry outside columns 0..{ncols - 1}")
    red = {}
    for p in reversed(pivots):
        w = ech.rows[p]
        for q in [q for q in w if q in red]:
            row = red[q]
            a, x = row[q], w[q]
            g = gcd(a, x)
            w = _combine(a // g, w, x // g, row)
        red[p] = _primitive(w, p)
    return pivots, [red[p] for p in pivots]


def rref(rows, ncols):
    """The canonical reduced echelon form of ``{column: int}`` rows.

    Returns ``(pivots, reduced)`` as :func:`row_reduce` does, after its one
    back-substitution: row k stands for the rational row ``reduced[k] /
    reduced[k][pivots[k]]``, whose pivot entry is 1 and which vanishes at
    every other pivot.  Every elimination of a Mat, and of the rows and
    vectors handed to this module, enters here; the benchmark counts these
    calls and their cells."""
    return row_reduce(rows, ncols)


def _echelon_basis(pivots, red):
    """The canonical integer rows of the rational RREF: row r over its pivot
    entry (primitive, so in lowest terms), its columns ascending."""
    return tuple((r[p], {j: r[j] for j in sorted(r)}) for p, r in zip(pivots, red))


class Subspace:
    """Span of linearly independent vectors of a fixed ambient space.

    The basis is kept as ``int_basis``, canonical integer rows ``(den,
    {index: int})`` standing for the vectors ``w / den``, which is what
    quotients eliminate.  ``basis`` gives them as {index: Fraction} vectors,
    built when first read.  Built from vectors, the basis is checked for
    independence; kernels, images and spans build their subspaces from the
    rows of a reduction, with no check.
    """

    def __init__(self, ambient_dim, basis):
        basis = tuple(basis)
        for v in basis:
            _check_vector(v, ambient_dim, "a basis vector")
        self.ambient_dim = ambient_dim
        self.int_basis = tuple(_int_row(v) for v in basis)
        self.__dict__["basis"] = basis
        if basis:
            pivots, _ = rref([w for _, w in self.int_basis], ambient_dim)
            if len(pivots) != len(basis):
                raise InvariantViolation("basis is linearly dependent")

    @classmethod
    def _of_rows(cls, ambient_dim, int_basis):
        """The subspace of these canonical, independent integer rows."""
        sub = cls.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.int_basis = int_basis
        return sub

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(_vector(den, w) for den, w in self.int_basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim, self.int_basis) == (other.ambient_dim, other.int_basis)

    __hash__ = None

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, basis={self.basis!r})"

    @property
    def dim(self):
        return len(self.int_basis)

    def matrix(self) -> Mat:
        """The dim x ambient_dim Mat whose rows are the basis vectors."""
        return Mat(self.dim, self.ambient_dim, tuple(w for _, w in self.int_basis),
                   tuple(den for den, _ in self.int_basis))

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coefficients of v in this basis, or None if v is outside the span."""
        return span_coordinates(self.basis, v)

    @staticmethod
    def spanned_by(vectors, ambient_dim):
        """Canonical subspace spanned by arbitrary (possibly dependent) vectors."""
        rows = [_int_row(v)[1] for v in vectors if v]
        if not rows:
            return Subspace(ambient_dim, ())
        return Subspace._of_rows(ambient_dim, _echelon_basis(*rref(rows, ambient_dim)))


def kernel_basis(m: Mat) -> Subspace:
    """Basis of the null space {v : m v = 0}, read from m's row reduction.

    Representatives come from the reduced echelon form: one vector per free
    column, free columns ascending, so the output is canonical.
    """
    return _kernel_from_rref(*m.row_reduction, m.cols)


def kernel_of_rows(rows, ncols) -> Subspace:
    """``kernel_basis`` of the matrix with these ``{column: int}`` rows,
    without building a Mat; with no rows the kernel is the whole space."""
    return _kernel_from_rref(*rref(rows, ncols), ncols)


def _kernel_from_rref(pivots, red, ncols) -> Subspace:
    """The kernel basis of the matrix whose reduced echelon form is
    (pivots, red).

    The reduced rows vanish at every other pivot, so each of their entries
    off the pivot lies in a free column.  One pass over them, in ascending
    pivot order, indexes those entries by free column; the vector of free
    column f is then ``{f: 1, p: -x / a, ...}`` read from the index, with a
    the entry of row p at its pivot.  As an integer row it is ``{f: L, p:
    -x * L / a, ...}`` over L, the lcm of those pivot entries, in lowest
    terms."""
    free = {}  # {free column: [(pivot, entry, pivot entry), ...]}, pivots ascending
    for p, r in zip(pivots, red):
        a = r[p]
        for c, x in r.items():
            if c != p:
                free.setdefault(c, []).append((p, x, a))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        entries = free.get(f, ())
        den = lcm(*[a for _, _, a in entries])
        w = {f: den}
        for p, x, a in entries:
            w[p] = -x * (den // a)
        basis.append(_canonical(den, w))
    return Subspace._of_rows(ncols, tuple(basis))


def image_basis(m: Mat) -> Subspace:
    """Canonical basis of the column space, read from m's column reduction.

    Its rank-nullity certificate compares that reduction with m's row
    reduction, two independent eliminations, each kept on m and so run at
    most once per matrix.  The basis vectors are the kept reduced rows."""
    sub = Subspace._of_rows(m.rows, _echelon_basis(*m.column_reduction))
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
    rows = []
    for i, (row, den) in enumerate(zip(m.data, m.dens)):
        y = rhs.get(i)
        if y is None:
            rows.append(row)
            continue
        # row / den . x = y, times den * y.denominator
        q = y.denominator
        r = {j: x * q for j, x in row.items()} if q != 1 else dict(row)
        r[m.cols] = -den * y.numerator
        rows.append(r)
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
    return solve_rows([_int_row(r)[1] for r in rows.values()], n)


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
    target over its pivot entry, and a pivot in a target column is a target
    outside the span.
    """
    n = len(family)
    rows = _scatter(family)
    for j, t in enumerate(targets):
        for i, x in t.items():
            rows.setdefault(i, {})[n + j] = -x
    pivots, red = rref([_int_row(r)[1] for r in rows.values()], n + len(targets))
    if pivots and pivots[-1] >= n:
        raise InvariantViolation(failure)
    data = [{} for _ in range(n)]
    dens = [1] * n
    for p, r in zip(pivots, red):
        dens[p], data[p] = _canonical(r[p], {c - n: -x for c, x in r.items() if c >= n})
    return Mat(n, len(targets), tuple(data), tuple(dens))


def solve_rows(rows, nvars) -> Vector | None:
    """``solve`` for augmented ``{column: int}`` rows: x with
    sum_k row[k] x[k] + row[nvars] = 0 for every row, or None.

    Column ``nvars`` holds minus the right-hand side.  Free variables are 0
    against the canonical RREF.
    """
    if any(len(r) == 1 and nvars in r for r in rows):  # 0 = a nonzero constant
        return None
    pivots, red = rref(rows, nvars + 1)
    if nvars in pivots:
        return None
    return {p: Fraction(-r[nvars], r[p]) for p, r in zip(pivots, red) if nvars in r}


class QuotientSpace:
    """Exact quotient Z/B of two subspaces of the same ambient space.

    ``representatives`` are basis vectors of Z projecting to a basis of the
    quotient, kept as Z keeps them, as ``int_representatives``, and built
    as vectors when first read; ``reduce`` maps any vector of Z to its
    quotient coordinates through the columns [B | representatives].
    """

    def __init__(self, ambient_dim: int, numerator: Subspace, denominator: Subspace, dim: int,
                 int_representatives: tuple):
        self.ambient_dim = ambient_dim
        self.numerator = numerator
        self.denominator = denominator
        self.dim = dim
        self.int_representatives = int_representatives

    @cached_property
    def representatives(self) -> tuple[Vector, ...]:
        if self.dim == self.numerator.dim:  # all of Z's basis
            return self.numerator.basis
        return tuple(_vector(den, w) for den, w in self.int_representatives)

    def reduce(self, v) -> Vector:
        """Coordinates of [v] in the representative basis; v must lie in Z+B."""
        coeffs = span_coordinates(self.denominator.basis + self.representatives, v)
        if coeffs is None:
            raise ValueError("vector is not in the numerator subspace")
        k = self.denominator.dim
        return {i - k: x for i, x in coeffs.items() if i >= k}


def quotient(z: Subspace, b: Subspace) -> QuotientSpace:
    """Quotient of span(z) by span(b); raises if b is not contained in z.

    An Echelon seeded with B's integer rows takes Z's in order; the Z
    vectors that raise its rank are the representatives, the vectors of Z
    independent of B and of the Z vectors before them.  By the zero
    subspace they are all of Z's basis, which is independent, and nothing
    is eliminated."""
    if z.ambient_dim != b.ambient_dim:
        raise InvariantViolation(f"quotient of a subspace of Q^{z.ambient_dim} by one of Q^{b.ambient_dim}")
    reps = z.int_basis
    if b.int_basis:
        ech = Echelon()
        for _, w in b.int_basis:
            ech._insert(w)
        reps = tuple(row for row in z.int_basis if ech._insert(row[1]) is not None)
        # containment: B inside span(Z) iff rank[B|Z] = dim Z (bases independent)
        if len(ech.rows) != z.dim:
            raise DenominatorNotContained("a denominator vector lies outside the numerator span")
    if len(reps) + b.dim != z.dim:
        raise InvariantViolation("dim Z/B + dim B != dim Z")
    return QuotientSpace(z.ambient_dim, z, b, len(reps), reps)


def homology(d_out: Mat, d_in: Mat | None) -> QuotientSpace:
    """ker d_out / im d_in, the homology at the space between two maps of a
    complex; by the zero subspace when d_in is None."""
    z = kernel_basis(d_out)
    b = image_basis(d_in) if d_in is not None else Subspace(z.ambient_dim, ())
    return quotient(z, b)
