"""Double complexes of exact rational vector spaces and their spectral
sequences.

A double complex is a first-quadrant grid E^{p,q} with commuting squared-zero
differentials d1: E^{p,q} -> E^{p,q+1} and d2: E^{p,q} -> E^{p+1,q}.  The
total differential on antidiagonals is Q = (-1)^q d2 + d1.

Pages are computed literally from the zig-zag definitions: Z_r collects
leader terms of Q-cocycles up to order r (a chain c, c_1, .., c_{r-1} solving
d1 c = 0, d1 c_i = -(-1)^{q-i+1} d2 c_{i-1}), and B_r the leader terms of
Q-images from r steps down the filtration.  The stored chains are exactly
what the page differential d_r needs, and total cohomology computed directly
on the antidiagonal complex is the independent oracle for the abutment
identity sum_p dim E_inf^{p,m-p} = dim H^m(Q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, QuotientSpace, Subspace, image_basis, kernel_basis, pivot_columns, quotient

F = Fraction


class LiftFailure(Exception):
    """Internal invariant violation: a page representative failed to reduce."""


class DoubleComplex:
    """Grid of dimensions plus the two differentials, cells (p, q) with
    0 <= p < width and 0 <= q < height; everything outside is zero."""

    def __init__(self, dims, d1, d2):
        self.dims = [list(col) for col in dims]
        self.width = len(self.dims)
        self.height = len(self.dims[0]) if self.dims else 0
        for col in self.dims:
            assert len(col) == self.height
        self._d1 = d1  # {(p,q): Mat}
        self._d2 = d2
        for (p, q), m in d1.items():
            assert m.rows == self.dim_at(p, q + 1) and m.cols == self.dim_at(p, q)
        for (p, q), m in d2.items():
            assert m.rows == self.dim_at(p + 1, q) and m.cols == self.dim_at(p, q)
        self._pages = {}

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
            lhs = dc.d1_at(p + 1, q).mul(dc.d2_at(p, q))
            rhs = dc.d2_at(p, q + 1).mul(dc.d1_at(p, q))
            if not all(a == b for a, b in zip(lhs.entries, rhs.entries)):
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


def total_differential(dc: DoubleComplex, m: int) -> Mat:
    """Q_m: D^m -> D^{m+1} with Q = (-1)^q d2 + d1, blocks in ascending p."""
    src = _antidiagonal_cells(dc, m)
    tgt = _antidiagonal_cells(dc, m + 1)
    src_dims = [dc.dim_at(p, q) for p, q in src]
    tgt_dims = [dc.dim_at(p, q) for p, q in tgt]
    src_off = _offsets(src_dims)
    tgt_off = _offsets(tgt_dims)
    rows, cols = sum(tgt_dims), sum(src_dims)
    ent = [F(0)] * (rows * cols)

    def put(block_r, block_c, mat, sign=1):
        r0, c0 = tgt_off[block_r], src_off[block_c]
        for i in range(mat.rows):
            base = (r0 + i) * cols + c0
            row = mat.row(i)
            for j, v in enumerate(row):
                if v:
                    ent[base + j] += sign * v

    tgt_index = {cell: k for k, cell in enumerate(tgt)}
    for k, (p, q) in enumerate(src):
        up = (p, q + 1)
        if up in tgt_index:
            put(tgt_index[up], k, dc.d1_at(p, q))
        right = (p + 1, q)
        if right in tgt_index:
            put(tgt_index[right], k, dc.d2_at(p, q), sign=(-1) ** q)
    return Mat(rows, cols, tuple(ent))


def _offsets(dims):
    out = []
    acc = 0
    for d in dims:
        out.append(acc)
        acc += d
    return out


def total_cohomology(dc: DoubleComplex, m: int) -> QuotientSpace:
    """H^m(Q) computed directly on the total complex (the brute-force oracle)."""
    z = kernel_basis(total_differential(dc, m))
    if m == 0:
        b = Subspace(z.ambient_dim, ())
    else:
        b = image_basis(total_differential(dc, m - 1))
    return quotient(z, b)


def total_q_squared_is_zero(dc: DoubleComplex) -> bool:
    for m in range(dc.width + dc.height):
        if not total_differential(dc, m + 1).mul(total_differential(dc, m)).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# pages via zig-zag lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PageCell:
    quotient: QuotientSpace
    # one zig-zag chain per quotient representative: tuple of block vectors
    # (c, c_1, .., c_{r-1}) with c_i in E^{p+i, q-i}
    lifts: tuple


class Page:
    def __init__(self, r, cells):
        self.r = r
        self.cells = cells  # {(p,q): PageCell}

    def cell(self, p, q) -> PageCell | None:
        return self.cells.get((p, q))

    def dim(self, p, q) -> int:
        c = self.cells.get((p, q))
        return c.quotient.dim if c else 0

    def dims_grid(self, width, height):
        return [[self.dim(p, q) for q in range(height)] for p in range(width)]


def _block_kernel(blocks, equations):
    """Kernel of a block-structured system.

    blocks: list of dims of the variable blocks.  equations: list of
    (rows, [(block_index, Mat, sign), ...]) contributions.
    """
    offs = _offsets(blocks)
    cols = sum(blocks)
    all_rows = []
    for rows, contribs in equations:
        if rows == 0:
            continue
        block_rows = [[F(0)] * cols for _ in range(rows)]
        for bidx, mat, sign in contribs:
            if mat.rows == 0 or mat.cols == 0:
                continue
            assert mat.rows == rows
            c0 = offs[bidx]
            for i in range(rows):
                row = mat.row(i)
                for j, v in enumerate(row):
                    if v:
                        block_rows[i][c0 + j] += sign * v
        all_rows.extend(block_rows)
    if not all_rows:
        return [tuple(F(i == j) for j in range(cols)) for i in range(cols)]
    return list(kernel_basis(Mat.from_rows(all_rows, cols)).basis)


def _zigzag_cocycles(dc, p, q, r):
    """(Z_r basis, lift chains): leader terms c with a length-r zig-zag."""
    d0 = dc.dim_at(p, q)
    blocks = [d0] + [dc.dim_at(p + i, q - i) for i in range(1, r)]
    equations = []
    # d1 c = 0
    equations.append((dc.dim_at(p, q + 1), [(0, dc.d1_at(p, q), 1)]))
    for i in range(1, r):
        # d1 c_i + (-1)^{q-i+1} d2 c_{i-1} = 0
        rows = dc.dim_at(p + i, q - i + 1)
        contribs = [(i, dc.d1_at(p + i, q - i), 1), (i - 1, dc.d2_at(p + i - 1, q - i + 1), (-1) ** (q - i + 1))]
        equations.append((rows, contribs))
    tuples = _block_kernel(blocks, equations)
    projections = [v[:d0] for v in tuples]
    # pick tuples whose projections are independent (deterministic pivots)
    keep = pivot_columns(projections, d0)
    basis = tuple(projections[i] for i in keep)
    lifts = tuple(_split_blocks(tuples[i], blocks) for i in keep)
    return Subspace(d0, basis), lifts


def _zigzag_boundaries(dc, p, q, r):
    """B_r: values d1 b_0 + (-1)^q d2 b_1 over constrained chains."""
    d0 = dc.dim_at(p, q)
    blocks = [dc.dim_at(p - i, q + i - 1) for i in range(r)]
    equations = []
    for i in range(1, r):
        rows = dc.dim_at(p - i, q + i)
        contribs = [(i, dc.d1_at(p - i, q + i - 1), 1)]
        if i + 1 < r:
            contribs.append((i + 1, dc.d2_at(p - i - 1, q + i), (-1) ** (q + i)))
        equations.append((rows, contribs))
    chains = _block_kernel(blocks, equations)
    values = []
    offs = _offsets(blocks)
    m_d1 = dc.d1_at(p, q - 1)
    m_d2 = dc.d2_at(p - 1, q)
    for ch in chains:
        b0 = ch[offs[0] : offs[0] + blocks[0]]
        v = list(m_d1.mul_vec(b0)) if blocks[0] else [F(0)] * d0
        if r >= 2 and blocks[1]:
            b1 = ch[offs[1] : offs[1] + blocks[1]]
            w = m_d2.mul_vec(b1)
            sign = (-1) ** q
            v = [a + sign * b for a, b in zip(v, w)]
        values.append(tuple(v))
    return Subspace.spanned_by(values, d0)


def _split_blocks(vec, blocks):
    offs = _offsets(blocks)
    return tuple(tuple(vec[offs[i] : offs[i] + blocks[i]]) for i in range(len(blocks)))


def page(dc: DoubleComplex, r: int) -> Page:
    """Page E_r; page(max(width,height)+1) is stable and equals E_infinity."""
    assert r >= 0
    if r in dc._pages:
        return dc._pages[r]
    cells = {}
    for p in range(dc.width):
        for q in range(dc.height):
            d0 = dc.dim_at(p, q)
            if d0 == 0:
                continue
            if r == 0:
                full = Subspace(d0, tuple(tuple(F(i == j) for j in range(d0)) for i in range(d0)))
                qt = quotient(full, Subspace(d0, ()))
                lifts = tuple((v,) for v in qt.representatives)
                cells[(p, q)] = PageCell(qt, lifts)
                continue
            z, lifts = _zigzag_cocycles(dc, p, q, r)
            b = _zigzag_boundaries(dc, p, q, r)
            qt = quotient(z, b)
            rep_lifts = []
            for rep in qt.representatives:
                idx = z.basis.index(rep)
                rep_lifts.append(lifts[idx])
            cells[(p, q)] = PageCell(qt, tuple(rep_lifts))
    pg = Page(r, cells)
    dc._pages[r] = pg
    return pg


def page_infinity(dc: DoubleComplex) -> Page:
    return page(dc, max(dc.width, dc.height) + 1)


def page_differential(dc: DoubleComplex, r: int, p: int, q: int) -> Mat:
    """Matrix of d_r: E_r^{p,q} -> E_r^{p+r, q+1-r} on stored representatives."""
    if r == 0:
        return dc.d1_at(p, q)
    pg = page(dc, r)
    src = pg.cell(p, q)
    tp, tq = p + r, q - r + 1
    tgt = pg.cell(tp, tq)
    src_dim = src.quotient.dim if src else 0
    tgt_dim = tgt.quotient.dim if tgt else 0
    if src_dim == 0 or tgt_dim == 0:
        return Mat.zero(tgt_dim, src_dim)
    sign = (-1) ** (q - r + 1)
    m_d2 = dc.d2_at(p + r - 1, q - r + 1)
    cols = []
    for chain in src.lifts:
        last = chain[r - 1]
        v = tuple(sign * x for x in m_d2.mul_vec(last))
        try:
            cols.append(tgt.quotient.reduce(v))
        except ValueError as exc:
            raise LiftFailure(f"page differential value escaped Z_r at ({tp},{tq})") from exc
    ent = []
    for i in range(tgt_dim):
        for c in cols:
            ent.append(c[i])
    return Mat(tgt_dim, src_dim, tuple(ent))


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
    filtrations, with total cohomology as the independent oracle."""
    rows = []
    ok = True
    for label, complex_ in (("given", dc), ("transposed", transpose(dc))):
        pinf = page_infinity(complex_)
        for m in range(complex_.width + complex_.height - 1):
            total = total_cohomology(complex_, m).dim
            sum_e = sum(pinf.dim(p, m - p) for p in range(complex_.width))
            rows.append((m, sum_e, total, label))
            if sum_e != total:
                ok = False
    return AbutmentReport(ok, tuple(rows))


# ---------------------------------------------------------------------------
# constructive random complexes (rejection-free sampling of valid complexes)
# ---------------------------------------------------------------------------

def _random_mat(rng, rows, cols, density=0.6, lo=-3, hi=3):
    ent = []
    for _ in range(rows * cols):
        ent.append(F(rng.randint(lo, hi)) if rng.random() < density else F(0))
    return Mat(rows, cols, tuple(ent))


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
                    kmat = Mat.from_rows(list(left_kernel.basis), cols)
                    m = mix.mul(kmat)
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

        d1_here = {q: d1.get((p, q), Mat.zero(dims[p][q + 1] if q + 1 < Q else 0, dims[p][q])) for q in range(Q - 1)}
        d1_next = {q: d1.get((p + 1, q), Mat.zero(dims[p + 1][q + 1] if q + 1 < Q else 0, dims[p + 1][q])) for q in range(Q - 1)}
        # commutation: d1' X_q - X_{q+1} d1 = 0
        for q in range(Q - 1):
            a = d1_next[q]
            b = d1_here[q]
            for i in range(dims[p + 1][q + 1]):
                for j in range(dims[p][q]):
                    row = [F(0)] * nunk
                    for k in range(dims[p + 1][q]):
                        v = a[i, k]
                        if v:
                            row[entry_index(q, k, j)] += v
                    for k in range(dims[p][q + 1]):
                        v = b[k, j]
                        if v:
                            row[entry_index(q + 1, i, k)] -= v
                    if any(row):
                        rows.append(row)
        # squared-zero with the previous column: X_q . prev_q = 0
        if prev_col is not None:
            for q in range(Q):
                prev_m = prev_col[q]
                for i in range(sizes[q][0]):
                    for j in range(prev_m.cols):
                        row = [F(0)] * nunk
                        for k in range(sizes[q][1]):
                            v = prev_m[k, j]
                            if v:
                                row[entry_index(q, i, k)] += v
                        if any(row):
                            rows.append(row)
        if rows:
            sol_space = kernel_basis(Mat.from_rows(rows, nunk))
        else:
            sol_space = Subspace(
                nunk, tuple(tuple(F(i == j) for j in range(nunk)) for i in range(nunk))
            )
        flat = [F(0)] * nunk
        for b in sol_space.basis:
            coeff = F(rng.randint(-2, 2))
            if coeff:
                flat = [x + coeff * y for x, y in zip(flat, b)]
        col = []
        for q in range(Q):
            r, c = sizes[q]
            ent = tuple(flat[entry_index(q, i, j)] for i in range(r) for j in range(c))
            col.append(Mat(r, c, ent))
            if r and c:
                d2[(p, q)] = col[q]
        prev_col = col
    return DoubleComplex(dc_dims, d1, d2)
