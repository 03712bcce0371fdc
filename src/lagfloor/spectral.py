"""Double complexes of exact rational vector spaces and their spectral
sequences.

A double complex is a first-quadrant grid E^{p,q} with commuting squared-zero
differentials d1: E^{p,q} -> E^{p,q+1} and d2: E^{p,q} -> E^{p+1,q}.  The
total differential on antidiagonals is Q = (-1)^q d2 + d1, and `_q_columns`
is the one place that writes it: it scatters the d1 and d2 blocks straight
into Q's integer columns over one denominator, the one form of Q that is
kept.  Validity is read off Q^2 = 0 by blocks: the block of Q_m Q_{m-1}
from a cell is d1 d1, d2 d2 or, up to sign, d1 d2 - d2 d1 there, so the
check sees the operator the pages are computed from.

The dimension of every cell on every page comes from one filtered reduction
of Q per complex and filtration, the persistence reduction in filtration
order: a basis element paired across a gap of g filtration steps lives on
E_0 to E_g, and an unpaired one on every page.

Total cohomology read off the ranks of the antidiagonal complex is the
independent oracle for the abutment identity sum_p dim E_inf^{p,m-p} =
dim H^m(Q).

A complex keeps what is derived from it: each Q_m, its validity report,
each filtration's reduction, each page asked for, and each dim H^m(Q).
Q_m is built once, and every reader takes its columns: validity applies
Q_m to each column of Q_{m-1}, the totals take its kept rank, a forward
elimination of its columns sparsest first, and both filtrations eliminate
its columns in their own order.  Nothing is shared between complexes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from math import lcm

from .linalg import CheckReport, Echelon, InvariantViolation, Mat, kernel_basis, kernel_of_rows


# the largest double complex whose pages are computed, in cells (the sum of
# its dims).  A cell without maps runs no elimination, for its pages or its
# totals (every Q_m is zero, of rank 0): abutment_check on dims [[4096]]
# takes about 0.01 s (2-vCPU x86-64).  What grows with the cells is building
# the complex and eliminating its maps
MAX_COMPLEX_CELLS = 4096


class ComplexTooLarge(Exception):
    def __init__(self, what, cells_needed):
        super().__init__(f"the {what} needs {cells_needed} cells, above the limit of {MAX_COMPLEX_CELLS}")
        self.cells_needed = cells_needed


class DoubleComplex:
    """Grid of dimensions plus the two differentials, cells (p, q) with
    0 <= p < width and 0 <= q < height; everything outside is zero.

    The complex is not changed after construction, so it stores what is
    derived from it: Q_m by degree, the validity report, each filtration's
    lives by cell, the pages by r, and total cohomology by degree."""

    def __init__(self, dims, d1, d2):
        self.dims = [list(col) for col in dims]
        self.width = len(self.dims)
        self.height = len(self.dims[0]) if self.dims else 0
        for col in self.dims:
            if len(col) != self.height:
                raise InvariantViolation("dims is not a rectangular grid")
        self._d1 = d1  # {(p,q): Mat}
        self._d2 = d2
        for name, blocks, (dp, dq) in (("d1", d1, (0, 1)), ("d2", d2, (1, 0))):
            for (p, q), m in blocks.items():
                if (m.rows, m.cols) != (self.dim_at(p + dp, q + dq), self.dim_at(p, q)):
                    raise InvariantViolation(f"{name} at ({p},{q}) is {m.rows}x{m.cols}, "
                                             f"expected {self.dim_at(p + dp, q + dq)}x{self.dim_at(p, q)}")
        self._q = {}
        self._report = None
        self._lives = {}
        self._totals = {}

    def dim_at(self, p, q):
        if 0 <= p < self.width and 0 <= q < self.height:
            return self.dims[p][q]
        return 0

    def d1_at(self, p, q) -> Mat:
        m = self._d1.get((p, q))
        if m is None:
            return Mat.zero(self.dim_at(p, q + 1), self.dim_at(p, q))
        return m

    def d2_at(self, p, q) -> Mat:
        m = self._d2.get((p, q))
        if m is None:
            return Mat.zero(self.dim_at(p + 1, q), self.dim_at(p, q))
        return m


# by dp, the rule that a nonzero block of Q_m Q_{m-1} from (p, q) into
# (p + dp, q + 2 - dp) breaks, after the rule's place in a report's order
_RULES = {0: (0, "d1.d1"), 2: (1, "d2.d2"), 1: (2, "commute")}


def validate_double_complex(dc: DoubleComplex) -> CheckReport:
    """d1 d1 = 0, d2 d2 = 0 and d1 d2 = d2 d1, read off Q^2 = 0 by blocks.

    From the cell (p, q), the block of Q_m Q_{m-1} into (p, q + 2) is d1 d1,
    into (p + 2, q) is d2 d2, and into (p + 1, q + 1) is (-1)^q (d1 d2 -
    d2 d1), so each nonzero block is one violation (rule, p, q), and the
    products check the Q that the pages and totals are computed from.  The
    report lists them by (p, q), then d1.d1, d2.d2, commute, and is kept on
    the complex: Q_m is applied once per complex to each integer column of
    Q_{m-1}, and no product matrix is built."""
    if dc._report is None:
        bad = set()
        for m in range(1, dc.width + dc.height - 1):
            src, tgt = _filtration_order(dc, m - 1, GIVEN), _filtration_order(dc, m + 1, GIVEN)
            q_m = total_differential(dc, m)
            for j, col in enumerate(total_differential(dc, m - 1).columns):
                for i, x in q_m.apply(col).items():
                    if x:
                        (p, q), _ = src[j]
                        (tp, _), _ = tgt[i]
                        bad.add((p, q, *_RULES[tp - p]))
        dc._report = CheckReport(tuple((rule, p, q) for p, q, _, rule in sorted(bad)))
    return dc._report


# ---------------------------------------------------------------------------
# total complex
# ---------------------------------------------------------------------------

def _antidiagonal_cells(dc, m):
    return [(p, m - p) for p in range(dc.width) if 0 <= m - p < dc.height]


GIVEN, TRANSPOSED = 0, 1  # the filtrations, by the axis of a cell (p, q) that is its degree


def _filtration_order(dc, m, axis):
    """(cell, place in Q's blocks) of each basis element of D^m, ordered by
    cell[axis], then by index: the reverse of the filtration's order, and by
    p (GIVEN) the order of Q's blocks."""
    cells = _antidiagonal_cells(dc, m)
    places = zip(cells, _offsets([dc.dim_at(*cell) for cell in cells]))
    return [(cell, c0 + k) for cell, c0 in sorted(places, key=lambda cp: cp[0][axis])
            for k in range(dc.dim_at(*cell))]


class TotalDifferential:
    """Q between two lists of cells, kept as its integer columns over one
    positive denominator: column j of Q is ``columns[j] / den``, a ``{row:
    int}`` dict of its nonzero entries over ``rows`` rows.  Its rank is a
    forward elimination of those columns, computed once."""

    def __init__(self, rows: int, den: int, columns: tuple[dict, ...]):
        self.rows = rows
        self.den = den
        self.columns = columns

    @cached_property
    def rank(self) -> int:
        """The columns an Echelon stores when given them sparsest first, with
        no back-substitution."""
        ech = Echelon()
        return sum(ech._insert(col) is not None for col in sorted(self.columns, key=len))

    def apply(self, col) -> dict:
        """Q times the integer column col, times den, zeros kept: each
        entry of col scales one column of Q."""
        out = {}
        for k, x in col.items():
            for i, y in self.columns[k].items():
                out[i] = out.get(i, 0) + x * y
        return out


def _q_columns(dc, src_cells, tgt_cells) -> TotalDifferential:
    """Q = (-1)^q d2 + d1 from the blocks src_cells to the blocks tgt_cells,
    each in the order given; a cell off the grid is an empty block.

    The d1 and d2 blocks are scattered straight into Q's columns over den,
    the lcm of their row denominators, so an entry x of a row over d is
    written as x * (den // d).  Each entry is checked here, explicitly: a
    nonzero int inside its block's columns, since the block's rows are the
    rows of its target cell (``DoubleComplex`` checks every block's shape)."""
    src_dims = [dc.dim_at(*cell) for cell in src_cells]
    tgt_dims = [dc.dim_at(*cell) for cell in tgt_cells]
    row0 = dict(zip(tgt_cells, _offsets(tgt_dims)))
    blocks = []  # (block, its first row in Q, its first column, its sign)
    for (p, q), c0 in zip(src_cells, _offsets(src_dims)):
        for block, tgt, sign in ((dc.d1_at, (p, q + 1), 1), (dc.d2_at, (p + 1, q), (-1) ** q)):
            if tgt in row0:
                blocks.append((block(p, q), row0[tgt], c0, sign))
    den = lcm(*[d for mat, *_ in blocks for d in mat.dens])
    columns = tuple({} for _ in range(sum(src_dims)))
    for mat, r0, c0, sign in blocks:
        n = mat.cols
        for i, (row, d) in enumerate(zip(mat.data, mat.dens), r0):
            s = sign * (den // d)
            for j, x in row.items():
                if type(x) is not int or not x or not 0 <= j < n:
                    raise InvariantViolation(f"a block of Q holds {x!r} at column {j}, "
                                             f"not a nonzero int in columns 0..{n - 1}")
                columns[c0 + j][i] = x * s
    return TotalDifferential(sum(tgt_dims), den, columns)


def total_differential(dc: DoubleComplex, m: int) -> TotalDifferential:
    """Q_m: D^m -> D^{m+1}, blocks in ascending p, built once per degree and
    complex, so its rank is too."""
    q = dc._q.get(m)
    if q is None:
        q = dc._q[m] = _q_columns(dc, _antidiagonal_cells(dc, m), _antidiagonal_cells(dc, m + 1))
    return q


def _offsets(dims):
    return list(accumulate(dims, initial=0))[:-1]


# a record, not a bare int, because the benchmark (perfbench/workloads.py) reads .dim
class TotalCohomology:
    __slots__ = ("dim",)

    def __init__(self, dim: int):
        self.dim = dim


def total_cohomology(dc: DoubleComplex, m: int) -> TotalCohomology:
    """dim H^m(Q) = dim D^m - rank Q_m - rank Q_{m-1} (Q_{-1} maps from 0),
    the brute-force oracle, once per degree and complex: each rank is the
    forward elimination of Q's columns kept on that Q, never the filtered
    reduction.
    Ranks do not see Q^2 != 0, so Q_m Q_{m-1} = 0 is read from the
    complex's report: no violation at a cell of degree m - 1."""
    h = dc._totals.get(m)
    if h is None:
        if any(p + q == m - 1 for _, p, q in validate_double_complex(dc).violations):
            raise InvariantViolation(f"Q^2 != 0 at degree {m}: not a double complex")
        q = total_differential(dc, m)
        h = dc._totals[m] = TotalCohomology(len(q.columns) - q.rank - total_differential(dc, m - 1).rank)
    return h


# ---------------------------------------------------------------------------
# pages: dimensions from one filtered reduction
# ---------------------------------------------------------------------------

def _filtered_reduction(dc, axis):
    """{(p, q): the life of each basis element at (p, q)} in the filtration
    by cell[axis], the element alive on E_r exactly when r <= its life, from
    one persistence reduction of Q in filtration order (Zomorodian and
    Carlsson, "Computing persistent homology", 2005) with the clearing step
    (Chen and Kerber, "Persistent homology computation with a twist", 2011).

    An element's key is its place in `_filtration_order`.  For each degree
    m, ascending, one Echelon takes the integer columns of Q_m, keys
    descending, their rows re-keyed, so a stored row's pivot, its lowest
    key, is its latest element.  An insert clears only the lowest entry,
    while that key is a pivot, and back-substitutes nothing: the pairs read
    only pivots.  A column that raises the rank pairs its element with the
    pivot's; their gap g in filtration degree is the life of both, since
    d_g maps one onto the other.  A column whose element the degree below
    made a pivot is skipped (clearing); an unpaired one lives through the
    stable page.  The transposed complex's Q is this one with the cell
    (p, q) scaled by (-1)^(pq), which moves no pivot (de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011)."""
    lives = {(p, q): [] for p, col in enumerate(dc.dims) for q, d in enumerate(col) if d}
    cleared = set()
    tgt = _filtration_order(dc, 0, axis)
    for m in range(dc.width + dc.height - 1):
        src, tgt = tgt, _filtration_order(dc, m + 1, axis)
        cols = total_differential(dc, m).columns
        key = {i: k for k, (_, i) in enumerate(tgt)} if axis != GIVEN else None
        ech = Echelon()
        pivots = set()
        for k in reversed(range(len(src))):
            if k in cleared:
                continue
            cell, c = src[k]
            col = cols[c] if key is None else {key[i]: x for i, x in cols[c].items()}
            i = ech._insert(col)
            if i is not None:
                pivots.add(i)
                gap = tgt[i][0][axis] - cell[axis]
                lives[cell].append(gap)
                lives[tgt[i][0]].append(gap)
        cleared = pivots
    r0 = max(dc.width, dc.height) + 1
    return {cell: ls + [r0] * (dc.dim_at(*cell) - len(ls)) for cell, ls in lives.items()}


def _page_dims(dc, axis, r):
    """{(p, q): dim E_r^{p,q}} in the filtration by cell[axis], over dc's
    nonzero cells, from that filtration's reduction, run once per complex."""
    if axis not in dc._lives:
        dc._lives[axis] = _filtered_reduction(dc, axis)
    return {cell: sum(life >= r for life in ls) for cell, ls in dc._lives[axis].items()}


class Page:
    """E_r of a complex: its dimensions, read from the complex's filtered
    reduction."""

    def __init__(self, r, dims):
        self.r = r
        self._dims = dims  # {(p, q): dim}, over the nonzero cells of the complex

    def dim(self, p, q) -> int:
        return self._dims.get((p, q), 0)

    def dims_grid(self, width, height):
        return [[self.dim(p, q) for q in range(height)] for p in range(width)]


def _split_blocks(vec, blocks):
    """The sparse vector vec over consecutive blocks of these sizes, cut into
    one sparse vector per block."""
    offs = _offsets(blocks)
    out = tuple({} for _ in blocks)
    for j, x in vec.items():
        # the last block starting at or before j; empty blocks hold nothing
        i = bisect_right(offs, j) - 1
        out[i][j - offs[i]] = x
    return out


def page(dc: DoubleComplex, r: int) -> Page:
    """Page E_r; page(max(width,height)+1) is stable and equals E_infinity,
    and every later r reads that page.

    Every page's dimensions come from one filtered reduction, run once per
    complex and kept on it."""
    if r < 0:
        raise InvariantViolation(f"page {r} does not exist")
    r = min(r, max(dc.width, dc.height) + 1)
    return Page(r, _page_dims(dc, GIVEN, r))


def page_infinity(dc: DoubleComplex) -> Page:
    return page(dc, max(dc.width, dc.height) + 1)


class AbutmentReport:
    __slots__ = ("ok", "rows")

    def __init__(self, ok: bool, rows: tuple):
        self.ok = ok
        self.rows = rows  # of (m, sum_einf, total_dim, filtration)


def abutment_check(dc: DoubleComplex) -> AbutmentReport:
    """sum_p dim E_inf^{p,m-p} = dim H^m(Q), for the given and transposed
    filtrations, with total cohomology as the independent oracle.

    The transposed total complex is dc's with the cell (p, q) scaled by
    (-1)^(pq), so dim H^m(Q) is computed once per m, on dc, or read from dc
    where the caller asked for it already, as is each filtration's E_inf."""
    totals = [total_cohomology(dc, m).dim for m in range(dc.width + dc.height - 1)]
    rows = []
    for label, axis in (("given", GIVEN), ("transposed", TRANSPOSED)):
        einf = _page_dims(dc, axis, max(dc.width, dc.height) + 1)
        for m, total in enumerate(totals):
            sum_e = sum(d for (p, q), d in einf.items() if p + q == m)
            rows.append((m, sum_e, total, label))
    return AbutmentReport(all(sum_e == total for _, sum_e, total, _ in rows), tuple(rows))


# ---------------------------------------------------------------------------
# constructive random complexes (rejection-free sampling of valid complexes)
# ---------------------------------------------------------------------------

def _random_mat(rng, rows, cols, density=0.6, lo=-3, hi=3):
    data = tuple({} for _ in range(rows))
    for k in range(rows * cols):
        if rng.random() < density and (x := rng.randint(lo, hi)):
            data[k // cols][k % cols] = x
    return Mat(rows, cols, data)


def random_double_complex(seed, width=None, height=None, maxdim=4) -> DoubleComplex:
    """Sample a valid double complex.

    d1 is built column by column with d1.d1 = 0 enforced through left-kernel
    factorizations; d2 is then solved for in the commutant, one column map at
    a time (a linear system), so no draw is ever rejected.
    """
    rng = random.Random(seed)
    P = width if width is not None else rng.randint(1, 4)
    Q = height if height is not None else rng.randint(1, 4)
    dims = [[rng.randint(0, maxdim) for _ in range(Q)] for _ in range(P)]
    d1 = {}
    for p in range(P):
        prev = None
        for q in range(Q - 1):
            rows, cols = dims[p][q + 1], dims[p][q]
            if rows == 0 or cols == 0:
                prev = Mat.zero(rows, cols)
                continue
            if prev is None or prev.cols == 0:
                m = _random_mat(rng, rows, cols)
            else:
                left_kernel = kernel_basis(prev.transpose())
                if left_kernel.dim == 0:
                    m = Mat.zero(rows, cols)
                else:
                    mix = _random_mat(rng, rows, left_kernel.dim, density=0.7)
                    m = mix.mul(left_kernel.matrix())
            d1[(p, q)] = m
            prev = m
    dc_dims = dims
    d2 = {}
    prev_col = None  # list of Mats indexed by q, for column p-1 -> p
    for p in range(P - 1):
        sizes = [(dims[p + 1][q], dims[p][q]) for q in range(Q)]
        offs = []
        acc = 0
        for r, c in sizes:
            offs.append(acc)
            acc += r * c
        nunk = acc
        if nunk == 0:
            prev_col = [Mat.zero(r, c) for r, c in sizes]
            continue
        rows = []

        def entry_index(qq, i, j):
            return offs[qq] + i * sizes[qq][1] + j

        # commutation: d1' X_q - X_{q+1} d1 = 0, each equation times the
        # denominators of its two rows; every unknown appears once in a row,
        # so the rows are written, not accumulated
        for q in range(Q - 1):
            a = d1.get((p + 1, q), Mat.zero(dims[p + 1][q + 1], dims[p + 1][q]))
            b = d1.get((p, q), Mat.zero(dims[p][q + 1], dims[p][q])).transpose()
            for i in range(dims[p + 1][q + 1]):
                for j in range(dims[p][q]):
                    da, db = a.dens[i], b.dens[j]
                    row = {entry_index(q, k, j): v * db for k, v in a.data[i].items()}
                    row.update((entry_index(q + 1, i, k), -v * da) for k, v in b.data[j].items())
                    if row:
                        rows.append(row)
        # squared-zero with the previous column: X_q . prev_q = 0
        if prev_col is not None:
            for q in range(Q):
                prev_cols = prev_col[q].int_columns
                for i in range(sizes[q][0]):
                    for col in prev_cols:
                        row = {entry_index(q, i, k): v for k, v in col.items()}
                        if row:
                            rows.append(row)
        sol_space = kernel_of_rows(rows, nunk)
        picks = [(coeff, den, w) for den, w in sol_space.int_basis if (coeff := rng.randint(-2, 2))]
        # the solution sum coeff * w / den, as an integer vector over den_all
        den_all = lcm(*[den for _, den, _ in picks])
        flat = {}
        for coeff, den, w in picks:
            s = coeff * (den_all // den)
            for k, x in w.items():
                flat[k] = flat.get(k, 0) + s * x
        flat = {k: x for k, x in flat.items() if x}
        col = []
        # block q of the solution is the r x c matrix X_q, row-major
        for q, ((r, c), block) in enumerate(zip(sizes, _split_blocks(flat, [r * c for r, c in sizes]))):
            data = tuple({} for _ in range(r))
            for k, x in block.items():
                data[k // c][k % c] = x
            col.append(Mat.over(den_all, data, c))
            if r and c:
                d2[(p, q)] = col[q]
        prev_col = col
    return DoubleComplex(dc_dims, d1, d2)
