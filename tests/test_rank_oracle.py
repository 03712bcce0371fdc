"""Dimensions from linalg against an independent rank: sympy's DomainMatrix
over QQ, which shares no code with lagfloor's elimination.

The Chevalley-Eilenberg coboundary is rebuilt here from the structure
constants alone (trivial coefficients), so the cohomology dimensions are
checked end to end, not just the row reduction.
"""

from fractions import Fraction
from itertools import combinations

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
    return Mat(rows, cols, tuple(data))


@given(sparse_mats())
@settings(max_examples=80, deadline=None)
def test_kernel_image_and_quotient_dims_match_the_oracle(m):
    rank = oracle_rank(m.rows, m.cols, {(i, j): x for i, row in enumerate(m.data) for j, x in row.items()})
    kernel = kernel_basis(m)
    image = image_basis(m)
    assert kernel.dim == m.cols - rank
    assert image.dim == rank
    assert all(not m.mul_vec(v) for v in kernel.basis)
    full = Subspace(m.rows, tuple({i: Fraction(1)} for i in range(m.rows)))
    assert quotient(full, image).dim == m.rows - rank
