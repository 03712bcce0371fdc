"""Double complexes of exact rational vector spaces and their spectral
sequences.

A double complex is a first-quadrant grid E^{p,q} with commuting squared-zero
differentials d1: E^{p,q} -> E^{p,q+1} and d2: E^{p,q} -> E^{p+1,q}.  The
total differential on antidiagonals is Q = (-1)^q d2 + d1, and `_q_rows` is
the one place that writes it.

The dimension of every cell on every page comes from one filtered reduction
of Q per complex, the persistence reduction in filtration order: a basis
element paired across a gap of g filtration steps lives on E_0 to E_g, and an
unpaired one on every page.

Total cohomology read off the ranks of the antidiagonal complex is the
independent oracle for the abutment identity sum_p dim E_inf^{p,m-p} =
dim H^m(Q).

A complex keeps what is derived from it: each Q_m, the reduction, each
page asked for, and each dim H^m(Q).  Q_m is built once, and its row
reduction is kept on that one `Mat`, so H^m and H^{m+1} share it; the
filtered reduction reads the same Q_m's columns through an `Echelon` of
its own, and the totals never read that reduction.  Nothing is shared
between complexes: `transpose` builds a new one with empty stores.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import lcm

from .linalg import Echelon, InvariantViolation, Mat, kernel_basis, kernel_of_rows


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
    derived from it: Q_m by degree, the filtered reduction's lives by cell,
    the pages by r, and total cohomology by degree."""

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
        self._lives = None
        self._pages = {}
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


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    violations: tuple  # of (rule, p, q)


def validate_double_complex(dc: DoubleComplex) -> ComplexReport:
    bad = []
    for p in range(dc.width):
        for q in range(dc.height):
            if not dc.d1_at(p, q + 1).mul(dc.d1_at(p, q)).is_zero():
                bad.append(("d1.d1", p, q))
            if not dc.d2_at(p + 1, q).mul(dc.d2_at(p, q)).is_zero():
                bad.append(("d2.d2", p, q))
            if dc.d1_at(p + 1, q).mul(dc.d2_at(p, q)) != dc.d2_at(p, q + 1).mul(dc.d1_at(p, q)):
                bad.append(("commute", p, q))
    return ComplexReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# total complex
# ---------------------------------------------------------------------------

def _antidiagonal_cells(dc, m):
    cells = []
    for p in range(dc.width):
        q = m - p
        if 0 <= q < dc.height:
            cells.append((p, q))
    return cells


def _q_rows(dc, src_cells, tgt_cells) -> Mat:
    """The rows of Q = (-1)^q d2 + d1 from the blocks src_cells to the blocks
    tgt_cells, each in the order given; a cell off the grid is an empty block."""
    src_dims = [dc.dim_at(*cell) for cell in src_cells]
    data = []
    dens = []
    for tgt in tgt_cells:
        n = dc.dim_at(*tgt)
        block, block_dens = [{} for _ in range(n)], [1] * n
        # each (target, source) block pair holds one matrix, so nothing overlaps
        for (p, q), c0 in zip(src_cells, _offsets(src_dims)):
            if tgt == (p, q + 1):
                _put_block(block, block_dens, c0, dc.d1_at(p, q), 1)
            elif tgt == (p + 1, q):
                _put_block(block, block_dens, c0, dc.d2_at(p, q), (-1) ** q)
        data.extend(block)
        dens.extend(block_dens)
    return Mat(len(data), sum(src_dims), tuple(data), tuple(dens))


def _put_block(rows, dens, c0, mat, sign):
    """Write sign * mat, sign = 1 or -1, into the integer rows over dens
    from column c0.  The blocks of a row hold disjoint columns, each in
    lowest terms, so the lcm of their denominators keeps the row so."""
    for k, (row, den) in enumerate(zip(mat.data, mat.dens)):
        if not row:
            continue
        d = dens[k]
        if den != d:
            m = lcm(d, den)
            if m != d:
                rows[k] = {j: x * (m // d) for j, x in rows[k].items()}
                dens[k] = d = m
        s = sign * (d // den)
        out = rows[k]
        for j, v in row.items():
            out[c0 + j] = v * s


def total_differential(dc: DoubleComplex, m: int) -> Mat:
    """Q_m: D^m -> D^{m+1}, blocks in ascending p, built once per degree and
    complex, so its reductions are too."""
    q = dc._q.get(m)
    if q is None:
        q = dc._q[m] = _q_rows(dc, _antidiagonal_cells(dc, m), _antidiagonal_cells(dc, m + 1))
    return q


def _offsets(dims):
    out = []
    acc = 0
    for d in dims:
        out.append(acc)
        acc += d
    return out


# a record, not a bare int, because the benchmark (perfbench/workloads.py) reads .dim
@dataclass(frozen=True)
class TotalCohomology:
    dim: int


def total_cohomology(dc: DoubleComplex, m: int) -> TotalCohomology:
    """dim H^m(Q) = dim D^m - rank Q_m - rank Q_{m-1} (Q_{-1} maps from 0),
    the brute-force oracle, once per degree and complex: each rank is read
    from the row reduction kept on that Q, never from the filtered
    reduction.  Ranks do not see Q^2 != 0, so Q_m Q_{m-1} = 0 is checked."""
    h = dc._totals.get(m)
    if h is None:
        q, q_in = total_differential(dc, m), total_differential(dc, m - 1)
        if not q.mul(q_in).is_zero():
            raise InvariantViolation(f"Q^2 != 0 at degree {m}: not a double complex")
        h = dc._totals[m] = TotalCohomology(q.cols - len(q.row_reduction[0]) - len(q_in.row_reduction[0]))
    return h


# ---------------------------------------------------------------------------
# pages: dimensions from one filtered reduction
# ---------------------------------------------------------------------------

def _filtered_reduction(dc):
    """{(p, q): the life of each basis element at (p, q)}, the element alive
    on E_r exactly when r <= its life, from one persistence reduction of Q
    in filtration order (Zomorodian and Carlsson, "Computing persistent
    homology", 2005) with the clearing step (Chen and Kerber, "Persistent
    homology computation with a twist", 2011).

    Each D^m is ordered by p descending, then q descending, and within a
    cell by index descending: the reverse of `total_differential`'s blocks,
    so each F^p is a prefix and Q maps every element into the span of
    earlier ones.  For each degree m, ascending, one Echelon takes the
    columns of Q_m in that order, keyed by their row indices, so the pivot
    of a stored row, its lowest key, is its latest element.  A column that
    raises the rank pairs its element with the new pivot's element; the
    pair's gap g = p(pivot) - p(column) is the life of both, since d_g maps
    one onto the other.  A column whose element the degree below made a
    pivot lies in the span of the columns before it, so it is skipped
    (clearing).  An unpaired element lives through the stable page."""
    r0 = max(dc.width, dc.height) + 1

    def element_cells(m):
        return [cell for cell in _antidiagonal_cells(dc, m) for _ in range(dc.dim_at(*cell))]

    lives = {}
    cleared = set()
    tgt = element_cells(0)
    for m in range(dc.width + dc.height - 1):
        src, tgt = tgt, element_cells(m + 1)
        ech = Echelon()
        pivots = set()
        cols = total_differential(dc, m).int_columns()
        for c in reversed(range(len(cols))):
            if c in cleared:
                continue
            i = ech._insert(cols[c])
            if i is not None:
                pivots.add(i)
                gap = tgt[i][0] - src[c][0]
                lives.setdefault(src[c], []).append(gap)
                lives.setdefault(tgt[i], []).append(gap)
        cleared = pivots
    out = {}
    for p in range(dc.width):
        for q in range(dc.height):
            if d0 := dc.dim_at(p, q):
                paired = lives.get((p, q), [])
                out[(p, q)] = paired + [r0] * (d0 - len(paired))
    return out


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
    complex and kept on it, as each page is."""
    if r < 0:
        raise InvariantViolation(f"page {r} does not exist")
    r = min(r, max(dc.width, dc.height) + 1)
    pg = dc._pages.get(r)
    if pg is None:
        if dc._lives is None:
            dc._lives = _filtered_reduction(dc)
        dims = {cell: sum(1 for life in lives if life >= r) for cell, lives in dc._lives.items()}
        pg = dc._pages[r] = Page(r, dims)
    return pg


def page_infinity(dc: DoubleComplex) -> Page:
    return page(dc, max(dc.width, dc.height) + 1)


def transpose(dc: DoubleComplex) -> DoubleComplex:
    """Swap the two directions (and the two filtrations)."""
    dims = [[dc.dims[p][q] for p in range(dc.width)] for q in range(dc.height)]
    d1 = {}
    d2 = {}
    for p in range(dc.height):
        for q in range(dc.width):
            m = dc.d2_at(q, p)
            if m.rows and m.cols:
                d1[(p, q)] = m
            m = dc.d1_at(q, p)
            if m.rows and m.cols:
                d2[(p, q)] = m
    return DoubleComplex(dims, d1, d2)


@dataclass(frozen=True)
class AbutmentReport:
    ok: bool
    rows: tuple  # of (m, sum_einf, total_dim, filtration)


def abutment_check(dc: DoubleComplex) -> AbutmentReport:
    """sum_p dim E_inf^{p,m-p} = dim H^m(Q), for the given and transposed
    filtrations, with total cohomology as the independent oracle.

    The transposed total complex is the given one with its summands
    reordered and the cell (p, q) scaled by (-1)^(pq), an isomorphism, so
    dim H^m(Q) is computed once per m, on dc, and read from dc where the caller
    asked for it already.  The transposed filtration runs on a fresh
    `transpose(dc)`, so its E_inf comes from a filtered reduction of its
    own, computed here from nothing of dc's."""
    totals = [total_cohomology(dc, m).dim for m in range(dc.width + dc.height - 1)]
    rows = []
    for label, complex_ in (("given", dc), ("transposed", transpose(dc))):
        pinf = page_infinity(complex_)
        for m, total in enumerate(totals):
            sum_e = sum(pinf.dim(p, m - p) for p in range(complex_.width))
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
                prev_cols = prev_col[q].int_columns()
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
