"""Page cells by zig-zag lifting, the plain reference that the filtered
reduction's page dimensions are checked against (Romero, Rubio and
Sergeraert, "Computing spectral sequences", 2006).

In the filtration F^p, Z_r^p = F^p ∩ Q^{-1}(F^{p+r}).  Every system is a
window of Q between lists of cells, taken whole, with no clipping and
nothing stored:

- Z_r^{p,q}: the chains over (p+i, q-i), i < r, whose Q vanishes on those
  cells shifted up one row; their leader terms, the coordinates in E^{p,q},
  span Z_r.
- B_r^{p,q}: the kernel of the window over (p-i, q+i-1), i < r, on those
  cells but the first, shifted up one row; then the (p, q) rows of Q on
  each kernel vector; then the span of those images.
- d_r: the (p+r, q-r+1) rows of Q on the lift of each representative.

`transpose` builds the transposed complex itself, the plain reference for
the transposed filtration, which the package reads off the given Q.
"""

from fractions import Fraction

from lagfloor.linalg import Mat, Subspace, _scatter, clear_denominators, kernel_basis, quotient, rref
from lagfloor.spectral import DoubleComplex, _q_columns


def q_window(dc, src_cells, tgt_cells):
    """The window of Q from the cells src_cells to the cells tgt_cells as a
    Mat, from the package's one builder of Q's columns."""
    q = _q_columns(dc, src_cells, tgt_cells)
    return Mat.over(q.den, q.columns, q.rows).transpose()


def pivot_columns(cols):
    """Pivot column indices of the matrix whose columns are ``cols``: the
    vectors independent of those before them."""
    pivots, _ = rref([clear_denominators(r) for r in _scatter(cols).values()], len(cols))
    return pivots


def cocycles(dc, p, q, r):
    """(Z_r basis, one lift chain per basis vector): the chains over the
    zig-zag cells whose Q lands in F^{p+r}, kept where their leader terms
    are independent."""
    cells = [(p + i, q - i) for i in range(r)]
    chains = kernel_basis(q_window(dc, cells, [(a, b + 1) for a, b in cells])).basis
    d0 = dc.dim_at(p, q)
    leaders = [{j: x for j, x in ch.items() if j < d0} for ch in chains]
    keep = pivot_columns(leaders)
    return Subspace(d0, tuple(leaders[i] for i in keep)), tuple(chains[i] for i in keep)


def boundaries(dc, p, q, r):
    """B_r^{p,q}: the kernel of the window's constraint rows, the (p, q) rows
    of Q on each kernel vector, then the span of the images."""
    cells = [(p - i, q + i - 1) for i in range(r)]
    chains = kernel_basis(q_window(dc, cells, [(a, b + 1) for a, b in cells[1:]])).basis
    q_pq = q_window(dc, cells, [(p, q)])
    return Subspace.spanned_by([q_pq.mul_vec(ch) for ch in chains], dc.dim_at(p, q))


def page_cell(dc, p, q, r):
    """(E_r^{p,q} as the quotient Z_r / B_r, one lift chain per quotient
    representative); at r = 0, and on a zero cell, the whole cell, each
    representative its own lift."""
    d0 = dc.dim_at(p, q)
    if r == 0 or not d0:
        qt = quotient(Subspace(d0, tuple({i: Fraction(1)} for i in range(d0))), Subspace(d0, ()))
        return qt, qt.representatives
    z, lifts = cocycles(dc, p, q, r)
    qt = quotient(z, boundaries(dc, p, q, r))
    return qt, tuple(lifts[z.basis.index(rep)] for rep in qt.representatives)


def page_differential(dc, r, p, q):
    """Matrix of d_r: E_r^{p,q} -> E_r^{p+r,q-r+1} on the representatives of
    `page_cell`; at r = 0, d1 itself."""
    if r == 0:
        return dc.d1_at(p, q)
    tp, tq = p + r, q - r + 1
    (src, lifts), (tgt, _) = page_cell(dc, p, q, r), page_cell(dc, tp, tq, r)
    if not src.dim or not tgt.dim:
        return Mat.zero(tgt.dim, src.dim)
    d_r = q_window(dc, [(p + i, q - i) for i in range(r)], [(tp, tq)])
    cols = tuple(tgt.reduce(d_r.mul_vec(chain)) for chain in lifts)
    return Mat.from_vectors(cols, tgt.dim).transpose()


def transpose(dc):
    """Swap the two directions (and the two filtrations)."""
    dims = [[dc.dims[p][q] for p in range(dc.width)] for q in range(dc.height)]
    d1 = {(q, p): m for (p, q), m in dc._d2.items()}
    d2 = {(q, p): m for (p, q), m in dc._d1.items()}
    return DoubleComplex(dims, d1, d2)
