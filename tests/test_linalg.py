import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor.linalg import (
    NORMALIZE_BITS,
    DenominatorNotContained,
    Echelon,
    Mat,
    Subspace,
    image_basis,
    kernel_basis,
    kernel_of_rows,
    quotient,
    row_reduce,
    rref,
    solve,
    span_coordinates,
)


F = Fraction


def M(rows):
    return Mat.from_rows(rows)


# -- kernel_basis ------------------------------------------------------------

def test_kernel_of_zero_map_is_standard_basis():
    k = kernel_basis(Mat.zero(2, 2))
    assert k.basis == ((F(1), F(0)), (F(0), F(1)))


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.identity(3)).basis == ()


def test_kernel_rank_one():
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k.basis == ((F(-2), F(1)),)


def test_kernel_of_sparse_rows_matches_dense():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0) for _ in range(7)]
                for _ in range(rng.randint(0, 6))]
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        want = kernel_basis(Mat.from_rows(rows, 7)) if rows else kernel_basis(Mat.zero(0, 7))
        assert kernel_of_rows(sparse, 7) == want


def test_kernel_of_no_rows_is_whole_space():
    assert kernel_of_rows([], 2).basis == ((F(1), F(0)), (F(0), F(1)))
    assert kernel_of_rows([], 0).dim == 0


# -- image_basis -------------------------------------------------------------

def test_image_of_zero_is_empty():
    assert image_basis(Mat.zero(3, 2)).dim == 0


def test_image_of_identity_is_full():
    im = image_basis(Mat.identity(4))
    assert im.dim == 4


def test_image_rank_one():
    im = image_basis(M([[1, 2], [2, 4]]))
    assert im.basis == ((F(1), F(2)),)


# -- solve -------------------------------------------------------------------

def test_solve_identity():
    assert solve(Mat.identity(2), (1, 2)) == (F(1), F(2))


def test_solve_zero_map_no_solution():
    assert solve(Mat.zero(2, 2), (1, 0)) is None


def test_solve_exact_division():
    assert solve(M([[2]]), (3,)) == (F(3, 2),)


def test_solve_underdetermined_is_consistent():
    m = M([[1, 1, 0], [0, 0, 1]])
    x = solve(m, (5, 7))
    assert m.mul_vec(x) == (F(5), F(7))


# -- quotient ----------------------------------------------------------------

def full_space(n):
    return Subspace.spanned_by([tuple(F(i == j) for j in range(n)) for i in range(n)], n)


def test_quotient_by_zero():
    q = quotient(full_space(2), Subspace(2, ()))
    assert q.dim == 2


def test_quotient_by_itself():
    s = Subspace.spanned_by([(F(1), F(0))], 2)
    assert quotient(s, s).dim == 0


def test_quotient_r3_by_line():
    q = quotient(full_space(3), Subspace.spanned_by([(F(1), F(1), F(0))], 3))
    assert q.dim == 2
    # reduction of the killed vector is the zero class
    assert q.is_zero_class((F(1), F(1), F(0)))


def test_quotient_denominator_not_contained():
    z = Subspace.spanned_by([(F(1), F(0), F(0))], 3)
    b = Subspace.spanned_by([(F(0), F(1), F(0))], 3)
    with pytest.raises(DenominatorNotContained):
        quotient(z, b)


def test_quotient_reduce_linear():
    z = full_space(3)
    b = Subspace.spanned_by([(F(1), F(1), F(0))], 3)
    q = quotient(z, b)
    v = (F(2), F(0), F(5))
    w = (F(1), F(3), F(-1))
    lhs = q.reduce(tuple(a + b_ for a, b_ in zip(v, w)))
    rhs = tuple(a + b_ for a, b_ in zip(q.reduce(v), q.reduce(w)))
    assert lhs == rhs


# -- properties --------------------------------------------------------------

small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    ent = draw(st.lists(small_entries, min_size=r * c, max_size=r * c))
    return Mat.from_rows([ent[i * c : (i + 1) * c] for i in range(r)])


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(m):
    assert kernel_basis(m).dim + image_basis(m).dim == m.cols


@given(matrices(), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_solve_of_image_vector_roundtrips(m, xs):
    x = tuple(F(v) for v in xs[: m.cols])
    rhs = m.mul_vec(x)
    x2 = solve(m, rhs)
    assert x2 is not None
    assert m.mul_vec(x2) == rhs


@given(matrices(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_quotient_dimension_formula(m):
    z = full_space(m.rows)
    b = image_basis(m)
    q = quotient(z, b)
    assert q.dim + b.dim == z.dim


def test_deterministic_across_runs():
    rng = random.Random(7)
    rows = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(5)]
    m = Mat.from_rows(rows)
    first = (kernel_basis(m).basis, image_basis(m).basis)
    for _ in range(3):
        assert (kernel_basis(m).basis, image_basis(m).basis) == first


# -- row reduction agrees with a textbook oracle ------------------------------

def naive_fraction_rref(rows, ncols):
    """Independent oracle: textbook Gauss-Jordan straight over Fractions."""
    work = [[F(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        piv = work[rank][col]
        work[rank] = [x / piv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return pivots, [tuple(r) for r in work[:rank]]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_kernels_match_oracle(seed):
    rng = random.Random(seed)
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-8, 8) for _ in range(c)] for _ in range(r)]
    want = naive_fraction_rref(rows, c)
    got = rref(rows, c)
    assert got == want
    assert row_reduce(rows, c)[0] == want[0]


def test_row_reduce_handles_big_integers():
    rng = random.Random(3)
    rows = [[rng.randint(-10**40, 10**40) for _ in range(4)] for _ in range(4)]
    assert max(abs(x) for r in rows for x in r).bit_length() > NORMALIZE_BITS
    # agrees with the Fraction oracle after pivot normalization
    pivots, reduced = row_reduce(rows, 4)
    oracle_pivots, oracle_rows = naive_fraction_rref(rows, 4)
    assert pivots == oracle_pivots
    for p, r, want in zip(pivots, reduced, oracle_rows):
        inv = F(1, r[p])
        assert tuple(F(x) * inv for x in r) == want


def test_interim_gcd_normalization_path_matches_oracle():
    # entries large enough that fraction-free growth crosses the
    # normalization threshold mid-elimination
    rng = random.Random(17)
    rows = [[rng.randint(-99, 99) for _ in range(10)] for _ in range(10)]
    want = naive_fraction_rref(rows, 10)
    assert rref(rows, 10) == want


# -- the incremental echelon and span coordinates -----------------------------

@st.composite
def vector_lists(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=6))
    # few distinct entries, so dependent vectors are common
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    return n, [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]


@given(vector_lists(), st.lists(st.sampled_from([0, 1, -2]), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_echelon_accepts_rank_raising_vectors_and_coordinates_match_solve(data, target):
    n, vectors = data
    sparse = [{i: x for i, x in enumerate(v) if x} for v in vectors]
    ech = Echelon()
    for k, v in enumerate(sparse):
        rank_before = len(rref(vectors[:k], n)[0])
        rank_after = len(rref(vectors[: k + 1], n)[0])
        assert ech.insert(v) == (rank_after > rank_before)
        assert not ech.reduce(v)
    assert len(ech.rows) == len(rref(vectors, n)[0])
    target = target[:n]
    want = solve(Mat.from_rows([list(col) for col in zip(*vectors)], len(vectors)), target) if vectors else (
        () if not any(target) else None)
    sparse_target = {i: x for i, x in enumerate(target) if x}
    assert span_coordinates(vectors, target) == want
    assert span_coordinates(sparse, sparse_target) == want
    # the residual of the target is empty exactly when it has coordinates
    assert (not ech.reduce(sparse_target)) == (want is not None)
