import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor.linalg import (
    DenominatorNotContained,
    Echelon,
    InvariantViolation,
    Mat,
    Subspace,
    add_scaled,
    clear_denominators,
    coordinate_map,
    dense,
    homology,
    image_basis,
    kernel_basis,
    kernel_of_rows,
    quotient,
    row_reduce,
    rref,
    solve,
    span_coordinates,
)
from zigzag import pivot_columns


F = Fraction


def M(rows):
    return Mat.from_rows(rows)


def sp(seq):
    """The sparse vector of a dense sequence."""
    return {i: F(x) for i, x in enumerate(seq) if x}


def int_row(seq):
    """The ``{column: int}`` row of a dense sequence of ints."""
    return {i: x for i, x in enumerate(seq) if x}


def rational_rref(rows, ncols):
    """``rref`` of sparse rational rows, its rows read as rationals with
    pivot entry 1 and columns ascending."""
    pivots, red = rref([clear_denominators(r) for r in rows], ncols)
    return pivots, [{j: F(r[j], r[p]) for j in sorted(r)} for p, r in zip(pivots, red)]


# -- kernel_basis ------------------------------------------------------------

def test_kernel_of_zero_map_is_standard_basis():
    k = kernel_basis(Mat.zero(2, 2))
    assert k.basis == ({0: F(1)}, {1: F(1)})


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.identity(3)).basis == ()


def test_kernel_rank_one():
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k.basis == ({0: F(-2), 1: F(1)},)


def test_kernel_of_sparse_rows_matches_dense():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0) for _ in range(7)]
                for _ in range(rng.randint(0, 6))]
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        want = kernel_basis(Mat.from_rows(rows, 7)) if rows else kernel_basis(Mat.zero(0, 7))
        assert kernel_of_rows([clear_denominators(r) for r in sparse], 7) == want


def test_kernel_of_no_rows_is_whole_space():
    assert kernel_of_rows([], 2).basis == ({0: F(1)}, {1: F(1)})
    assert kernel_of_rows([], 0).dim == 0


def per_pivot_kernel(rows, ncols):
    """Kernel basis built by walking every pivot row for each free column."""
    pivots, red = rational_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: F(1)}
        for p, r in zip(pivots, red):
            x = r.get(f)
            if x:
                v[p] = -x
        basis.append(v)
    return tuple(basis)


def test_kernel_of_rows_matches_the_per_pivot_walk():
    """The kernel vectors read from the free-column index equal, dict order
    included, the vectors built by walking every pivot row per free column."""
    rng = random.Random(18)
    systems = [([], 4), ([], 0), ([{}, {}], 0), ([{}, {}], 3),
               ([{j: F(j + 1, 2)} for j in range(5)], 5),  # all columns pivotal
               ([{0: F(1), 2: F(-1, 3)}, {1: F(2)}, {0: F(1), 1: F(1), 2: F(5, 7)}], 3)]
    for _ in range(300):
        ncols = rng.randint(0, 12)
        rows = [{j: F(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for j in range(ncols) if rng.random() < 0.3}
                for _ in range(rng.randint(0, 10))]
        systems.append((rows, ncols))
    for rows, ncols in systems:
        cleared = [clear_denominators(r) for r in rows]
        assert repr(kernel_of_rows(cleared, ncols).basis) == repr(per_pivot_kernel(rows, ncols))
    assert kernel_of_rows([clear_denominators(r) for r in systems[4][0]], 5).dim == 0
    assert kernel_of_rows(*systems[3]).basis == ({0: F(1)}, {1: F(1)}, {2: F(1)})


# -- image_basis -------------------------------------------------------------

def test_image_of_zero_is_empty():
    assert image_basis(Mat.zero(3, 2)).dim == 0


def test_image_of_identity_is_full():
    im = image_basis(Mat.identity(4))
    assert im.dim == 4


def test_image_rank_one():
    im = image_basis(M([[1, 2], [2, 4]]))
    assert im.basis == ({0: F(1), 1: F(2)},)


# -- solve -------------------------------------------------------------------

def test_solve_identity():
    assert solve(Mat.identity(2), {0: F(1), 1: F(2)}) == {0: F(1), 1: F(2)}


def test_solve_zero_map_no_solution():
    assert solve(Mat.zero(2, 2), {0: F(1)}) is None


def test_solve_exact_division():
    assert solve(M([[2]]), {0: F(3)}) == {0: F(3, 2)}


def test_solve_underdetermined_is_consistent():
    m = M([[1, 1, 0], [0, 0, 1]])
    x = solve(m, {0: F(5), 1: F(7)})
    assert m.mul_vec(x) == {0: F(5), 1: F(7)}


def test_vectors_reject_stored_zeros_and_bad_indices():
    for v in ({0: F(0)}, {3: F(1)}, {-1: F(1)}):
        with pytest.raises(InvariantViolation):
            Subspace(3, (v,))
        with pytest.raises(InvariantViolation):
            Mat.identity(3).mul_vec(v)
        with pytest.raises(InvariantViolation):
            solve(Mat.identity(3), v)
        with pytest.raises(InvariantViolation):
            dense(v, 3)
    assert dense({2: F(5)}, 3) == (F(0), F(0), F(5))


# -- quotient ----------------------------------------------------------------

def full_space(n):
    return Subspace.spanned_by([{i: F(1)} for i in range(n)], n)


def test_quotient_by_zero():
    q = quotient(full_space(2), Subspace(2, ()))
    assert q.dim == 2


def test_quotient_by_itself():
    s = Subspace.spanned_by([{0: F(1)}], 2)
    assert quotient(s, s).dim == 0


def test_quotient_r3_by_line():
    q = quotient(full_space(3), Subspace.spanned_by([{0: F(1), 1: F(1)}], 3))
    assert q.dim == 2
    # reduction of the killed vector is the zero class
    assert q.is_zero_class({0: F(1), 1: F(1)})
    # a class whose only coordinate is the first one is not zero
    assert not q.is_zero_class({1: F(1)})
    assert q.reduce({1: F(1)}) == {0: F(-1)}  # e2 = (e1 + e2) - e1


def test_quotient_denominator_not_contained():
    z = Subspace.spanned_by([{0: F(1)}], 3)
    b = Subspace.spanned_by([{1: F(1)}], 3)
    with pytest.raises(DenominatorNotContained):
        quotient(z, b)


def test_homology_of_a_short_complex():
    # Q -> Q^2 -> Q, 1 |-> (1, 1) and (x, y) |-> x - y: exact in the middle
    d_in = M([[1], [1]])
    d_out = M([[1, -1]])
    h = homology(d_out, d_in)
    assert h.dim == 0 and h.representatives == ()
    # with no incoming map the homology is the whole kernel of d_out
    h = homology(d_out, None)
    assert h.dim == 1 and h.representatives == ({0: F(1), 1: F(1)},)
    assert h.reduce({0: F(3), 1: F(3)}) == {0: F(3)}


def test_quotient_reduce_linear():
    z = full_space(3)
    b = Subspace.spanned_by([{0: F(1), 1: F(1)}], 3)
    q = quotient(z, b)
    v = (F(2), F(0), F(5))
    w = (F(1), F(3), F(-1))
    lhs = q.reduce(sp(a + b_ for a, b_ in zip(v, w)))
    rhs = sp(a + b_ for a, b_ in zip(dense(q.reduce(sp(v)), q.dim), dense(q.reduce(sp(w)), q.dim)))
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


def test_mat_rejects_stored_zeros_and_bad_shapes():
    for data in (({0: F(0)},), ({2: F(1)},), ({-1: F(1)},), ({}, {}), ({0: F(1, 2)},)):
        with pytest.raises(InvariantViolation):
            Mat(1, 2, data)
    with pytest.raises(InvariantViolation):
        Mat(1, 2, ({0: 1},), (F(2),))
    with pytest.raises(InvariantViolation):
        Mat.from_rows([[1, 2], [3]])
    with pytest.raises(InvariantViolation):
        M([[1, 2]]).mul(M([[1, 2]]))
    assert Mat.from_rows([[0, 2]]) == Mat(1, 2, ({1: 2},))


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_mat_matches_a_list_of_lists_reference(rows, inner, cols, data):
    """mul, mul_vec, transpose, entries and == against plain nested lists."""
    sparse_entries = st.sampled_from([0, 0, 0, 1, -2, F(3, 2)])

    def lists(r, c):
        return [data.draw(st.lists(sparse_entries, min_size=c, max_size=c)) for _ in range(r)]

    a_lists, b_lists, (v,) = lists(rows, inner), lists(inner, cols), lists(1, inner)
    a, b = Mat.from_rows(a_lists, inner), Mat.from_rows(b_lists, cols)
    product = [[sum((a_lists[i][k] * b_lists[k][j] for k in range(inner)), F(0)) for j in range(cols)]
               for i in range(rows)]

    assert list(a.entries) == [F(x) for row in a_lists for x in row]
    assert all(a[i, j] == a_lists[i][j] for i in range(rows) for j in range(inner))
    assert all(x for row in a.data for x in row.values())  # no stored zeros
    ab = a.mul(b)
    assert (ab.rows, ab.cols) == (rows, cols)
    assert list(ab.entries) == [x for row in product for x in row]
    assert ab == Mat.from_rows(product, cols)
    assert ab.is_zero() == (not any(x for row in product for x in row))
    assert all(x for row in ab.data for x in row.values())
    assert a.mul_vec(sp(v)) == sp(sum((a_lists[i][k] * v[k] for k in range(inner)), F(0)) for i in range(rows))
    assert list(a.transpose().entries) == [F(a_lists[i][j]) for j in range(inner) for i in range(rows)]
    assert a.transpose().transpose() == a


@given(matrices(), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_solve_of_image_vector_roundtrips(m, xs):
    x = sp(xs[: m.cols])
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
    pivots, red = rational_rref([sp(row) for row in rows], c)
    assert (pivots, [dense(v, c) for v in red]) == want
    assert row_reduce([int_row(row) for row in rows], c)[0] == want[0]


def test_row_reduce_handles_big_integers():
    rng = random.Random(3)
    rows = [[rng.randint(-10**40, 10**40) for _ in range(4)] for _ in range(4)]
    assert max(abs(x) for r in rows for x in r).bit_length() > 128
    # agrees with the Fraction oracle after pivot normalization
    pivots, reduced = row_reduce([int_row(row) for row in rows], 4)
    oracle_pivots, oracle_rows = naive_fraction_rref(rows, 4)
    assert pivots == oracle_pivots
    for p, r, want in zip(pivots, reduced, oracle_rows):
        inv = F(1, r[p])
        assert dense({j: F(x) * inv for j, x in r.items()}, 4) == want


@pytest.mark.parametrize("column", [-1, 3])
def test_row_reduce_refuses_a_column_outside_the_width(column):
    with pytest.raises(InvariantViolation):
        row_reduce([{0: 2, 1: 1}, {column: 5}], 3)


def test_interim_gcd_normalization_path_matches_oracle():
    # entries large enough that fraction-free growth needs the gcd
    # normalization of every stored row mid-elimination
    rng = random.Random(17)
    rows = [[rng.randint(-99, 99) for _ in range(10)] for _ in range(10)]
    want = naive_fraction_rref(rows, 10)
    pivots, red = rational_rref([sp(row) for row in rows], 10)
    assert (pivots, [dense(v, 10) for v in red]) == want


# -- every vector is sparse and matches a dense reference ---------------------

def naive_kernel(rows, ncols):
    """Dense kernel basis read off the textbook RREF, free columns ascending."""
    pivots, red = naive_fraction_rref(rows, ncols)
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for p, r in zip(pivots, red):
                v[p] = -r[f]
            out.append(tuple(v))
    return out


def naive_solve(columns, target, nrows):
    """Dense x with sum_k x[k] columns[k] == target, free variables 0, or None."""
    n = len(columns)
    pivots, red = naive_fraction_rref([[c[i] for c in columns] + [-target[i]] for i in range(nrows)], n + 1)
    if n in pivots:
        return None
    x = [F(0)] * n
    for p, r in zip(pivots, red):
        x[p] = -r[n]
    return tuple(x)


def assert_sparse(v, n):
    assert isinstance(v, dict)
    assert all(isinstance(k, int) and 0 <= k < n for k in v)
    assert all(x != 0 for x in v.values())


def dense_all(vectors, n):
    for v in vectors:
        assert_sparse(v, n)
    return [dense(v, n) for v in vectors]


@given(matrices(), st.lists(small_entries, min_size=5, max_size=5), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_linalg_returns_sparse_vectors_matching_a_dense_reference(m, xs, ts):
    rows = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    cols = [tuple(r[j] for r in rows) for j in range(m.cols)]
    pivots, red = rational_rref(m.data, m.cols)
    assert (pivots, dense_all(red, m.cols)) == naive_fraction_rref(rows, m.cols)
    assert dense_all(kernel_basis(m).basis, m.cols) == naive_kernel(rows, m.cols)
    image = image_basis(m)
    assert dense_all(image.basis, m.rows) == naive_fraction_rref(cols, m.rows)[1]
    # Q^rows modulo the image: standard basis vectors independent of the image
    unit = [tuple(F(i == j) for j in range(m.rows)) for i in range(m.rows)]
    full = Subspace(m.rows, tuple(sp(e) for e in unit))
    q = quotient(full, image)
    generators = naive_fraction_rref(cols, m.rows)[1] + unit
    pivots = naive_fraction_rref([[g[i] for g in generators] for i in range(m.rows)], len(generators))[0]
    reps = [generators[p] for p in pivots if p >= image.dim]
    assert dense_all(q.representatives, m.rows) == reps
    # solve an image vector, span coordinates and reduce a random target
    x = [F(v) for v in xs[: m.cols]]
    rhs = [sum((r[j] * x[j] for j in range(m.cols)), F(0)) for r in rows]
    assert dense_all([solve(m, sp(rhs))], m.cols) == [naive_solve(cols, rhs, m.rows)]
    target = [F(v) for v in ts[: m.rows]]
    got = span_coordinates([sp(c) for c in cols], sp(target))
    want = naive_solve(cols, target, m.rows)
    assert (got is None and want is None) or dense_all([got], m.cols) == [want]
    coords = naive_solve(generators[: image.dim] + reps, target, m.rows)
    assert dense_all([q.reduce(sp(target))], q.dim) == [coords[image.dim :]]


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
    sparse = [sp(v) for v in vectors]
    ech = Echelon()
    for k, v in enumerate(sparse):
        rank_before = len(rational_rref(sparse[:k], n)[0])
        rank_after = len(rational_rref(sparse[: k + 1], n)[0])
        assert ech.insert(v) == (rank_after > rank_before)
        assert not ech.reduce(v)
    assert len(ech.rows) == len(rational_rref(sparse, n)[0])
    target = target[:n]
    sparse_target = sp(target)
    want = solve(Mat.from_rows([list(col) for col in zip(*vectors)], len(vectors)), sparse_target) if vectors else (
        {} if not any(target) else None)
    assert span_coordinates(sparse, sparse_target) == want
    # the residual of the target is empty exactly when it has coordinates
    assert (not ech.reduce(sparse_target)) == (want is not None)


# -- one reduced store behind row_reduce, rref and Echelon ----------------------

@st.composite
def rational_vector_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=7))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3)])
    return n, [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]


@given(rational_vector_lists(), st.randoms(use_true_random=False), st.lists(st.sampled_from([0, 1, -2, F(3, 2)]), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_echelon_store_is_the_canonical_reduced_form(data, rnd, target):
    n, vectors = data
    # row order does not matter: the reduced echelon form is unique
    rows = [int_row([int(6 * x) for x in v]) for v in vectors]
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    pivots, reduced = row_reduce(rows, n)
    assert row_reduce(shuffled, n) == (pivots, reduced)
    assert all(r[p] > 0 and gcd(*r.values()) == 1 for p, r in zip(pivots, reduced))
    # after every insert, the stored rows scaled to pivot 1 are the rref
    ech = Echelon()
    sparse = [sp(v) for v in vectors]
    for k, v in enumerate(sparse):
        ech.insert(v)
        pivots, red = rational_rref(sparse[: k + 1], n)
        assert sorted(ech.rows) == pivots
        assert [{j: F(x, ech.rows[p][p]) for j, x in ech.rows[p].items()} for p in pivots] == red
    # the residual vanishes at every pivot and differs from v by the span
    v = sp(target[:n])
    r = ech.reduce(v)
    assert not set(r) & set(ech.rows)
    diff = [v.get(j, 0) - r.get(j, 0) for j in range(n)]
    rank = len(naive_fraction_rref(vectors, n)[0])
    assert len(naive_fraction_rref(vectors + [diff], n)[0]) == rank


def test_echelon_private_insert_returns_the_new_pivot():
    """_insert gives the pivot the row added, the lowest column of its
    residual, key 0 included, and None for a row in the span; insert keeps
    returning a bool."""
    ech = Echelon()
    assert ech._insert({2: 3, 5: 1}) == 2
    assert ech._insert({2: 1, 5: 1}) == 5  # residual 3*row - stored row = {5: 2}
    assert ech._insert({2: 2, 5: -4}) is None
    assert ech._insert({0: -7, 2: 1}) == 0
    assert sorted(ech.rows) == [0, 2, 5]
    assert ech.insert({4: F(1, 2)}) is True
    assert ech.insert({0: F(1), 4: F(3)}) is False


def random_family(rng, m):
    """An independent list of sparse rational vectors of Q^m."""
    family, ech = [], Echelon()
    for _ in range(rng.randint(0, m + 2)):
        v = {j: F(rng.randint(-4, 4), rng.randint(1, 3)) for j in rng.sample(range(m), rng.randint(1, m))}
        v = {j: x for j, x in v.items() if x}
        if v and ech.insert(v):
            family.append(v)
    return family


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_coordinate_map_columns_are_span_coordinates(seed):
    rng = random.Random(seed)
    family = random_family(rng, rng.randint(1, 7))
    targets = []
    for _ in range(rng.randint(0, 5)):
        t = {}
        for v in family:
            add_scaled(t, F(rng.randint(-3, 3), rng.randint(1, 2)), v)
        targets.append(t)
    got = coordinate_map(family, targets, "outside")
    assert (got.rows, got.cols) == (len(family), len(targets))
    for j, t in enumerate(targets):
        assert {k: got[k, j] for k in range(len(family)) if got[k, j]} == span_coordinates(family, t)


def test_coordinate_map_refuses_one_target_outside_the_span():
    family = [{0: F(1)}, {1: F(1), 2: F(2)}]
    inside = {0: F(3), 1: F(-1), 2: F(-2)}
    assert coordinate_map(family, [inside], "escaped").data == ({0: F(3)}, {0: F(-1)})
    with pytest.raises(InvariantViolation, match="^image escaped the family$"):
        coordinate_map(family, [inside, {2: F(1)}, inside], "image escaped the family")


# -- each matrix is eliminated once; quotient extends B's echelon store --------

def test_a_mat_is_reduced_once_by_rows_and_once_by_columns(monkeypatch):
    """Kernels and images read the two reductions kept on the Mat, so any
    number of them costs one row and one column elimination."""
    import lagfloor.linalg as la

    calls = []
    rref_ = la.rref
    monkeypatch.setattr(la, "rref", lambda rows, ncols: calls.append(ncols) or rref_(rows, ncols))
    m = M([[1, 2, 3], [2, 4, 6]])
    for _ in range(3):
        assert kernel_basis(m).dim == 2
        assert image_basis(m).dim == 1
    assert sorted(calls) == [m.rows, m.cols]
    # the same entries in another Mat are eliminated again: nothing is shared
    assert kernel_basis(M([[1, 2, 3], [2, 4, 6]])).dim == 2
    assert len(calls) == 3


def test_image_rank_nullity_check_raises_under_python_O():
    """An explicit check, so python -O keeps it: a Mat whose kept column
    reduction has lost a row disagrees with its row reduction, and
    image_basis raises InvariantViolation."""
    script = textwrap.dedent(
        """
        from lagfloor.linalg import InvariantViolation, Mat, image_basis

        assert False, "asserts must be stripped under -O"
        m = Mat.from_rows([[1, 0, 2], [0, 1, 3]])
        pivots, rows = m.column_reduction
        m.__dict__["column_reduction"] = (pivots[:-1], rows[:-1])
        try:
            image_basis(m)
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("passed")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: rank-nullity"), res.stdout


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=120, deadline=None)
def test_quotient_picks_the_pivot_columns_of_b_then_z(seed, reduced_b):
    """The Z vectors that raise the rank of an Echelon seeded with B are the
    pivot columns of [B | Z] past B, in order; a B with a vector outside
    span(Z) is refused."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    z = random_family(rng, n)
    combos = []
    for _ in range(rng.randint(0, len(z) + 1)):
        t = {}
        for v in z:
            if rng.random() < 0.6:
                add_scaled(t, F(rng.randint(-3, 3), rng.randint(1, 2)), v)
        combos.append(t)
    if reduced_b:
        b = Subspace.spanned_by(combos, n)
    else:
        ech, kept = Echelon(), []
        for t in combos:
            if t and ech.insert(t):
                kept.append(t)
        b = Subspace(n, tuple(kept))
    zs = Subspace(n, tuple(z))
    q = quotient(zs, b)
    want = [zs.basis[i - b.dim] for i in pivot_columns(b.basis + zs.basis) if i >= b.dim]
    assert list(q.representatives) == want
    assert q.dim + b.dim == zs.dim
    outside = next(({j: F(1)} for j in range(n) if zs.coordinates({j: F(1)}) is None), None)
    if outside is not None:
        with pytest.raises(DenominatorNotContained):
            quotient(zs, Subspace.spanned_by(list(b.basis) + [outside], n))


def test_quotient_by_the_zero_subspace_runs_no_elimination(monkeypatch):
    """Z's basis is independent, so by the zero subspace it is the set of
    representatives as it is, with no Echelon and no rref."""
    import lagfloor.linalg as la

    def refuse(*a, **k):
        raise AssertionError("eliminated")

    z = Subspace(4096, tuple({i: F(1)} for i in range(4096)))
    monkeypatch.setattr(la, "rref", refuse)
    monkeypatch.setattr(la.Echelon, "_insert", refuse)
    q = quotient(z, Subspace(4096, ()))
    assert q.dim == 4096 and q.representatives is z.basis


# -- the integer-row Mat against a Fraction reference --------------------------

BIG = 10**30


@st.composite
def rational_lists(draw, rows, cols):
    """Dense rows of sparse rationals: denominators differ from row to row,
    and some numerators are near 10^30."""
    numerators = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(min_value=BIG - 9, max_value=BIG + 9),
                           st.integers(min_value=-BIG - 9, max_value=-BIG + 9))
    out = []
    for _ in range(rows):
        dens = draw(st.sampled_from([(1,), (1, 2), (3,), (2, 5, 7), (4, 6), (BIG + 1,)]))
        entries = st.one_of(st.just(0), st.builds(F, numerators, st.sampled_from(dens)))
        out.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return out


def reference_mat(lists, cols):
    """Mat built by value, with its canonical form checked against the lists."""
    m = Mat.from_rows(lists, cols)
    for row, w, den in zip(lists, m.data, m.dens):
        assert den == lcm(*(F(x).denominator for x in row))
        assert {j: F(x, den) for j, x in w.items()} == {j: F(x) for j, x in enumerate(row) if x}
    return m


def columns_of(lists, cols):
    return [[row[j] for row in lists] for j in range(cols)]


def rational_rows(reduction, n):
    """The dense rational rows, pivot entry 1, of a reduction (pivots, reduced)."""
    pivots, red = reduction
    return pivots, [dense({j: F(x, r[p]) for j, x in r.items()}, n) for p, r in zip(pivots, red)]


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_row_mat_matches_a_fraction_reference(rows, inner, cols, data):
    """mul, mul_vec, transpose, entries, ==, both kept reductions, kernels,
    images and homology of integer-row Mats equal their values computed
    straight over Fractions."""
    a_lists = data.draw(rational_lists(rows, inner))
    b_lists = data.draw(rational_lists(inner, cols))
    (v,) = data.draw(rational_lists(1, inner))
    a, b = reference_mat(a_lists, inner), reference_mat(b_lists, cols)
    product = [[sum((a_lists[i][k] * b_lists[k][j] for k in range(inner)), F(0)) for j in range(cols)]
               for i in range(rows)]

    assert list(a.entries) == [F(x) for row in a_lists for x in row]
    ab = a.mul(b)
    assert list(ab.entries) == [x for row in product for x in row]
    assert ab == reference_mat(product, cols)
    assert ab.is_zero() == (not any(x for row in product for x in row))
    assert a.mul_vec(sp(v)) == sp(sum((a_lists[i][k] * v[k] for k in range(inner)), F(0)) for i in range(rows))
    at = a.transpose()
    assert at == reference_mat(columns_of(a_lists, inner), rows)
    assert at.transpose() == a
    if a_lists and any(x for row in a_lists for x in row):
        # == compares values: one changed entry makes the matrices differ
        i, j = next((i, j) for i, row in enumerate(a_lists) for j, x in enumerate(row) if x)
        changed = [row[:] for row in a_lists]
        changed[i][j] = changed[i][j] / 2
        assert reference_mat(changed, inner) != a

    assert rational_rows(a.row_reduction, inner) == naive_fraction_rref(a_lists, inner)
    assert rational_rows(a.column_reduction, rows) == naive_fraction_rref(columns_of(a_lists, inner), rows)
    assert dense_all(kernel_basis(a).basis, inner) == naive_kernel(a_lists, inner)
    assert dense_all(image_basis(a).basis, rows) == naive_fraction_rref(columns_of(a_lists, inner), rows)[1]

    # homology at the middle of Q^cols -> Q^inner -> Q^rows, the incoming
    # map sending e_j to a combination of a's kernel vectors
    kernel = naive_kernel(a_lists, inner)
    mix = data.draw(rational_lists(len(kernel), cols)) if kernel else []
    d_in_cols = [[sum((mix[k][j] * kernel[k][i] for k in range(len(kernel))), F(0)) for i in range(inner)]
                 for j in range(cols)]
    d_in = reference_mat(columns_of(d_in_cols, inner), cols) if inner else Mat.zero(0, cols)
    h = homology(a, d_in)
    image_rank = len(naive_fraction_rref(d_in_cols, inner)[0])
    assert h.dim == len(kernel) - image_rank
    reps = dense_all(h.representatives, inner)
    assert all(not a.mul_vec(sp(r)) for r in reps)
    assert len(naive_fraction_rref(d_in_cols + reps, inner)[0]) == image_rank + h.dim
