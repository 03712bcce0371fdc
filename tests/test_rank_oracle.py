"""Dimensions from linalg against an independent rank: sympy's DomainMatrix
over QQ, which shares no code with lagfloor's elimination.

The Chevalley-Eilenberg coboundary is rebuilt here from the structure
constants alone (trivial coefficients), so the cohomology dimensions are
checked end to end, not just the row reduction.
"""

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor.cecohom import GModule, cohomology
from lagfloor.liealg import catalog
from lagfloor.linalg import Mat, Subspace, image_basis, kernel_basis, quotient

pytest.importorskip("sympy")

from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def oracle_rank(rows, cols, entries) -> int:
    """Rank of the rows x cols matrix with these {(i, j): value} entries."""
    if not rows or not cols:
        return 0

    def q(x):
        x = Fraction(x)
        return QQ(x.numerator, x.denominator)

    mat = [[q(entries.get((i, j), 0)) for j in range(cols)] for i in range(rows)]
    return DomainMatrix(mat, (rows, cols), QQ).rank()


def oracle_ce_dims(g, top):
    """dim H^q(g; R) for q <= top, from the structure constants alone."""
    n = g.dim
    basis = {q: list(combinations(range(n), q)) for q in range(top + 2)}
    index = {q: {t: i for i, t in enumerate(basis[q])} for q in basis}
    ranks = {-1: 0}
    for q in range(top + 1):
        # (d w)(x_0..x_q) = sum_{i<j} (-1)^{i+j} w([x_i, x_j], x_0..^i..^j..x_q)
        ent = {}
        for row, xs in enumerate(basis[q + 1]):
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    rest = xs[:i] + xs[i + 1 : j] + xs[j + 1 :]
                    for k in range(n):
                        c = g.coeff(xs[i], xs[j], k)
                        if not c or k in rest:
                            continue
                        t = tuple(sorted((k,) + rest))
                        sign = (-1) ** (i + j) * (-1) ** t.index(k)
                        key = (row, index[q][t])
                        ent[key] = ent.get(key, 0) + sign * c
        ranks[q] = oracle_rank(len(basis[q + 1]), len(basis[q]), ent)
    return [len(basis[q]) - ranks[q] - ranks[q - 1] for q in range(top + 1)]


@pytest.mark.parametrize(
    "name, params",
    [("abelian", {"n": 3}), ("l3", {}), ("so3", {}), ("galilean", {}), ("poincare", {"c": 1})],
    ids=["abelian3", "l3", "so3", "galilean", "poincare"],
)
def test_trivial_cohomology_dims_match_the_oracle(name, params):
    g = catalog(name, **params)
    top = min(4, g.dim)
    got = [cohomology(g, GModule.trivial(g), q).dim for q in range(top + 1)]
    assert got == oracle_ce_dims(g, top)


@st.composite
def sparse_mats(draw, max_dim=6):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(-3, 2)])
    data = []
    for _ in range(rows):
        values = draw(st.lists(entry, min_size=cols, max_size=cols))
        data.append({j: Fraction(x) for j, x in enumerate(values) if x})
    return Mat.from_vectors(data, cols)


@given(sparse_mats())
@settings(max_examples=80, deadline=None)
def test_kernel_image_and_quotient_dims_match_the_oracle(m):
    rank = oracle_rank(m.rows, m.cols, {(i, j): x for i in range(m.rows) for j, x in m.vector(i).items()})
    kernel = kernel_basis(m)
    image = image_basis(m)
    assert kernel.dim == m.cols - rank
    assert image.dim == rank
    assert all(not m.mul_vec(v) for v in kernel.basis)
    full = Subspace(m.rows, tuple({i: Fraction(1)} for i in range(m.rows)))
    assert quotient(full, image).dim == m.rows - rank


# ---------------------------------------------------------------------------
# the totals' ranks of double complexes
# ---------------------------------------------------------------------------

def mat_rank(m: Mat) -> int:
    """Rank of a Mat from sympy's sparse DomainMatrix over QQ, built from
    its rows as Fractions."""
    rows = {i: {j: QQ(x.numerator, x.denominator) for j, x in m.vector(i).items()} for i in range(m.rows)}
    rows = {i: r for i, r in rows.items() if r}
    return DomainMatrix(rows, (m.rows, m.cols), QQ).rank() if rows else 0


def rank_mismatches(dc):
    """(m, total_ranks' rank, sympy's rank) wherever they differ, for every
    Q_m of dc, Q assembled from the blocks' Mat rows; then (m, H^m, its
    oracle) wherever total_cohomology differs from the sympy ranks, at
    every degree whose check of Q_m Q_{m-1} = 0 passes."""
    from lagfloor.spectral import total_cohomology, total_ranks, validate_double_complex
    from test_spectral import row_built_q

    maps = range(-1, dc.width + dc.height - 1)
    want = {m: mat_rank(row_built_q(dc, m)) for m in maps}
    got = total_ranks(dc)
    out = [(m, got[m], want[m]) for m in maps if got[m] != want[m]]
    violated = {p + q for _, p, q in validate_double_complex(dc).violations}
    for m in range(dc.width + dc.height - 1):
        if m - 1 not in violated:
            dim = sum(dc.dim_at(p, m - p) for p in range(dc.width))
            h = total_cohomology(dc, m).dim
            if h != dim - want[m] - want[m - 1]:
                out.append((m, h, dim - want[m] - want[m - 1]))
    return out


def test_total_ranks_of_seeded_random_complexes_match_the_oracle():
    from lagfloor.spectral import random_double_complex

    complexes = [random_double_complex(seed, **shape) for seed in range(30)
                 for shape in ({}, {"width": 1}, {"height": 1}, {"width": 3, "height": 3, "maxdim": 6})]
    for dc in complexes:
        assert rank_mismatches(dc) == []


def d1_moved_at_the_origin():
    """random_double_complex(3) on a 3 x 3 grid with the entry (0, 0) of its
    d1 block at (0, 0) moved by 1: Q_1 Q_0 != 0 and every other product
    still vanishes."""
    from lagfloor.spectral import DoubleComplex, random_double_complex

    dc = random_double_complex(3, width=3, height=3)
    block = dc.d1_at(0, 0)
    rows = [block.vector(i) for i in range(block.rows)]
    rows[0] = {j: x for j, x in {**rows[0], 0: rows[0].get(0, 0) + 1}.items() if x}
    d1 = {(p, q): dc.d1_at(p, q) for p in range(dc.width) for q in range(dc.height - 1)}
    d2 = {(p, q): dc.d2_at(p, q) for p in range(dc.width - 1) for q in range(dc.height)}
    d1[(0, 0)] = Mat.from_vectors(rows, block.cols)
    return DoubleComplex(dc.dims, d1, d2)


def invalid_complexes():
    """The tests' invalid complexes, by name, each invalid at degree 0 only,
    so H^2 is still computed; on d1_squared and d1_moved some of Q_0's
    pivots lie outside ker Q_1."""
    from lagfloor.spectral import DoubleComplex
    from test_spectral import (SCALED_COMMUTE, d1_squared_column, garbage_complex, mixed_denominator_complex,
                               perturbed_fractional_complex)

    scaled = eval(SCALED_COMMUTE, {"DoubleComplex": DoubleComplex, "Mat": Mat, "F": Fraction})
    return {"d1_squared": d1_squared_column(), "d1_moved": d1_moved_at_the_origin(),
            "perturbed": perturbed_fractional_complex(), "garbage": garbage_complex(),
            "scaled_commute": scaled, "mixed_denominators": mixed_denominator_complex()}


def test_total_ranks_of_invalid_complexes_match_the_oracle():
    """On complexes with Q_m Q_{m-1} != 0 every rank is still exact, and so
    is every H^m whose degree the report leaves valid: on these complexes,
    invalid only at degree 0, H^2 reads rank Q_1 of all Q_1's columns."""
    from lagfloor.spectral import validate_double_complex

    for dc in invalid_complexes().values():
        assert {p + q for _, p, q in validate_double_complex(dc).violations} == {0}
        assert dc.width + dc.height - 1 > 2
        assert rank_mismatches(dc) == []


def clearing_despite_violations(monkeypatch):
    """Swap in a total_ranks that clears Q_m by Q_{m-1}'s pivots even
    where the report has a violation at degree m - 1."""
    import inspect

    import lagfloor.spectral as sp

    source = inspect.getsource(sp.total_ranks)
    kept = "cleared = {} if m - 1 in violated else pivots"
    assert kept in source
    namespace = dict(vars(sp))
    exec(source.replace(kept, "cleared = pivots"), namespace)
    monkeypatch.setattr(sp, "total_ranks", namespace["total_ranks"])


def test_clearing_despite_a_violation_fails_the_oracle(monkeypatch):
    """A mutant that clears Q_1 by Q_0's pivots although Q_1 Q_0 != 0 gets
    rank Q_1 one short, and so H^2 one too large, on two complexes invalid
    only at degree 0, and leaves a valid one right."""
    from lagfloor.spectral import random_double_complex

    clearing_despite_violations(monkeypatch)
    assert rank_mismatches(invalid_complexes()["d1_squared"]) == [(1, 0, 1), (2, 1, 0)]
    assert rank_mismatches(invalid_complexes()["d1_moved"]) == [(1, 3, 4), (2, 1, 0)]
    assert rank_mismatches(random_double_complex(3, width=3, height=3)) == []


def gl3_stabilizer_complex(basis):
    from lagfloor.hierarchy import ClassifyOptions, build_invariance_double_complex
    from lagfloor.problemfile import build_pair, load_problem_file

    path = Path(__file__).resolve().parent / "problems" / f"gl3_stabilizer_{basis}.toml"
    return build_invariance_double_complex(build_pair(load_problem_file(path)), ClassifyOptions(degree=2, fourier=0))


def test_total_ranks_of_the_gl3_stabilizer_match_the_oracle_in_every_basis():
    """The three files act by one algebra in three bases, so their
    invariance complexes are isomorphic and share the ranks of Q.  Those
    ranks come from sympy on the elementary basis; on the integer and
    rational bases sympy's own elimination over QQ takes about 13 s and
    650 s (2-vCPU x86-64), so they are compared with the elementary ranks."""
    from lagfloor.spectral import total_ranks

    elementary = gl3_stabilizer_complex("elementary")
    assert rank_mismatches(elementary) == []
    want = total_ranks(elementary)
    assert list(want.values()) == [0, 9, 80, 261, 454, 460, 270, 85, 11, 0]
    for basis in ("integer", "rational"):
        assert total_ranks(gl3_stabilizer_complex(basis)) == want


def test_total_ranks_of_the_galilean_complex_past_the_cap_match_the_oracle(monkeypatch):
    """The degree-0 Galilean invariance complex, 5,120 cells, built with
    the cap raised in process."""
    import lagfloor.hierarchy as h
    from fixture_pairs import fixture_pair

    monkeypatch.setattr(h, "MAX_COMPLEX_CELLS", 10 * h.MAX_COMPLEX_CELLS)
    dc = h.build_invariance_double_complex(fixture_pair("galilean_r4"), h.ClassifyOptions(degree=0, fourier=0))
    assert sum(map(sum, dc.dims)) == 5120
    assert rank_mismatches(dc) == []


def test_a_valid_complex_inserts_only_the_columns_off_the_pivots_below(monkeypatch):
    """The totals' pass on a valid complex inserts exactly sum_m (dim D^m -
    rank Q_{m-1}) columns, and on an invalid one every column of a Q_m with
    a violation at degree m - 1 as well; neither it nor the rest of the
    checks and pages changes a column of Q or a block."""
    import copy

    import lagfloor.linalg as la
    import lagfloor.spectral as sp

    def blocks(qs, dc):
        """Q's columns, and each block's canonical fields."""
        return [q.columns for q in qs.values()], [{k: (m.rows, m.cols, m.data, m.dens) for k, m in d.items()}
                                                  for d in (dc._d1, dc._d2)]

    inserted = []
    insert = la.Echelon._insert
    monkeypatch.setattr(la.Echelon, "_insert", lambda ech, w: inserted.append(w) or insert(ech, w))
    complexes = [sp.random_double_complex(seed, width=3, height=3, maxdim=6) for seed in range(10)]
    complexes += list(invalid_complexes().values())
    skipped = 0
    for dc in complexes:
        maps = range(-1, dc.width + dc.height - 1)
        qs = {m: sp.total_differential(dc, m) for m in maps}
        before = copy.deepcopy(blocks(qs, dc))
        violated = {p + q for _, p, q in sp.validate_double_complex(dc).violations}
        inserted.clear()
        ranks = sp.total_ranks(dc)
        want = sum(len(qs[m].columns) - (ranks.get(m - 1, 0) if m - 1 not in violated else 0) for m in maps)
        assert len(inserted) == want
        skipped += sum(len(q.columns) for q in qs.values()) - want
        for axis in (sp.GIVEN, sp.TRANSPOSED):
            sp._page_dims(dc, axis, 1)
        assert blocks(qs, dc) == before
    assert skipped
