import random
from fractions import Fraction
from pathlib import Path

import pytest

from lagfloor.linalg import InvariantViolation, Mat
from lagfloor.spectral import (
    DoubleComplex,
    abutment_check,
    page,
    page_infinity,
    random_double_complex,
    total_cohomology,
    transpose,
    validate_double_complex,
)
from test_cli import run_under_O
from zigzag import page_cell, page_differential

F = Fraction


def single_cell():
    return DoubleComplex([[1]], {}, {})


def test_validate_zero_maps():
    dc = DoubleComplex([[2, 1], [1, 3]], {}, {})
    assert validate_double_complex(dc).ok


def test_validate_single_cell():
    assert validate_double_complex(single_cell()).ok


def test_validate_detects_random_garbage():
    d1 = {(0, 0): Mat.from_rows([[1], [0]])}
    d2 = {(0, 0): Mat.from_rows([[1]]), (0, 1): Mat.from_rows([[1, 1], [0, 1]])}
    dc = DoubleComplex([[1, 2], [1, 2]], d1, d2)
    report = validate_double_complex(dc)
    assert not report.ok
    assert report.violations


def test_validate_flags_one_perturbed_fractional_d2_block():
    """The d2 block at (0, 0) of random_double_complex(3) has row
    denominators 5, 5 and 15; moving one entry by 1/7 breaks the complex, and
    the exact products flag the cell, while the drawn complex validates."""
    dc = random_double_complex(3)
    assert validate_double_complex(dc).ok
    block = dc.d2_at(0, 0)
    assert set(block.dens) == {5, 15}
    rows = [block.vector(i) for i in range(block.rows)]
    rows[0] = {**rows[0], 1: rows[0].get(1, 0) + F(1, 7)}
    d1 = {(p, q): dc.d1_at(p, q) for p in range(dc.width) for q in range(dc.height - 1)}
    d2 = {(p, q): dc.d2_at(p, q) for p in range(dc.width - 1) for q in range(dc.height)}
    d2[(0, 0)] = Mat.from_vectors(rows, block.cols)
    report = validate_double_complex(DoubleComplex(dc.dims, d1, d2))
    assert not report.ok
    assert {(p, q) for _, p, q in report.violations} == {(0, 0)}


def test_single_cell_total_cohomology():
    dc = single_cell()
    assert total_cohomology(dc, 0).dim == 1
    assert total_cohomology(dc, 1).dim == 0


def test_acyclic_two_cells():
    dc = DoubleComplex([[1, 1]], {(0, 0): Mat.identity(1)}, {})
    for m in range(3):
        assert total_cohomology(dc, m).dim == 0


def test_page1_is_d1_cohomology():
    # column complex 0 -> R -> R^2 -> R with d1 chosen rank 1 then rank 1
    a = Mat.from_rows([[1], [0]])
    b = Mat.from_rows([[0, 1]])
    dc = DoubleComplex([[1, 2, 1]], {(0, 0): a, (0, 1): b}, {})
    assert validate_double_complex(dc).ok
    p1 = page(dc, 1)
    assert p1.dim(0, 0) == 0  # kernel of injective map
    assert p1.dim(0, 1) == 0  # ker b / im a: ker b = span e1 = im a
    assert p1.dim(0, 2) == 0  # coker of surjective
    dc2 = DoubleComplex([[1, 2, 1]], {(0, 0): a, (0, 1): Mat.zero(1, 2)}, {})
    p1 = page(dc2, 1)
    assert p1.dim(0, 1) == 1
    assert p1.dim(0, 2) == 1


def test_page0_differential_is_d1():
    a = Mat.from_rows([[1], [0]])
    dc = DoubleComplex([[1, 2]], {(0, 0): a}, {})
    assert page_differential(dc, 0, 0, 0).entries == a.entries


def test_acyclic_columns_concentrate_in_row_zero():
    # exact columns: E2 = E_inf = 0 beyond row 0
    d1 = {(0, 0): Mat.from_rows([[1, 0]]), (1, 0): Mat.from_rows([[1, 0]])}
    d2 = {}
    dc = DoubleComplex([[2, 1], [2, 1]], d1, d2)
    assert validate_double_complex(dc).ok
    p2 = page(dc, 2)
    assert p2.dim(0, 1) == 0 and p2.dim(1, 1) == 0
    assert abutment_check(dc).ok


def hand_zigzag_complex():
    """E^{0,1} -> (d2) E^{1,1} <- (d1) E^{1,0} -> (d2) E^{2,0}, all R."""
    dims = [[0, 1], [1, 1], [1, 0]]
    d1 = {(1, 0): Mat.identity(1)}
    d2 = {(0, 1): Mat.identity(1), (1, 0): Mat.identity(1)}
    return DoubleComplex(dims, d1, d2)


def test_hand_built_nonzero_d2_page_map():
    dc = hand_zigzag_complex()
    assert validate_double_complex(dc).ok
    p2 = page(dc, 2)
    assert p2.dim(0, 1) == 1
    assert p2.dim(2, 0) == 1
    d2_map = page_differential(dc, 2, 0, 1)
    assert d2_map.rows == 1 and d2_map.cols == 1
    assert d2_map.entries[0] != 0
    # the d2 page map kills both cells at E_3
    p3 = page(dc, 3)
    assert p3.dim(0, 1) == 0
    assert p3.dim(2, 0) == 0
    assert abutment_check(dc).ok


PAGE_DIFFERENTIALS = Path(__file__).resolve().parent / "golden" / "spectral_pages.txt"


def page_differential_lines():
    """One line per page differential d_r: E_r^{p,q} -> E_r^{p+r,q-r+1} with
    rows and columns, for r = 1..max(width, height)+1 on
    random_double_complex(seed), seeds 0..29, then d_2 of the hand-built
    zig-zag complex; each sparse row is written as column:value pairs."""

    def line(label, r, p, q, m):
        rows = " ".join("[" + " ".join(f"{j}:{x}" for j, x in sorted(m.vector(i).items())) + "]" for i in range(m.rows))
        return f"{label} r={r} p={p} q={q} {m.rows}x{m.cols} {rows}\n"

    out = []
    for seed in range(30):
        dc = random_double_complex(seed)
        for r in range(1, max(dc.width, dc.height) + 2):
            for p in range(dc.width):
                for q in range(dc.height):
                    m = page_differential(dc, r, p, q)
                    if m.rows and m.cols:
                        out.append(line(f"seed={seed}", r, p, q, m))
    out.append(line("hand", 2, 0, 1, page_differential(hand_zigzag_complex(), 2, 0, 1)))
    return "".join(out)


def test_page_differentials_pinned():
    """Every page-differential matrix of the zig-zag oracle on its
    representatives, byte for byte; the file was captured from the zig-zag
    page engine before it left the package."""
    assert page_differential_lines() == PAGE_DIFFERENTIALS.read_text()


def test_transpose_involution():
    dc = random_double_complex(17)
    back = transpose(transpose(dc))
    assert back.dims == dc.dims
    for p in range(dc.width):
        for q in range(dc.height):
            assert back.d1_at(p, q).entries == dc.d1_at(p, q).entries
            assert back.d2_at(p, q).entries == dc.d2_at(p, q).entries


def test_transpose_single_cell():
    t = transpose(single_cell())
    assert t.dims == [[1]]


def test_transpose_preserves_total_cohomology_dims():
    for seed in range(5):
        dc = random_double_complex(seed)
        t = transpose(dc)
        for m in range(dc.width + dc.height - 1):
            assert total_cohomology(dc, m).dim == total_cohomology(t, m).dim


def test_transposed_page1_is_d2_cohomology():
    dc = random_double_complex(23)
    t = transpose(dc)
    p1 = page(t, 1)
    from lagfloor.linalg import image_basis, kernel_basis, quotient

    for p in range(dc.width):
        for q in range(dc.height):
            if dc.dim_at(p, q) == 0:
                continue
            z = kernel_basis(dc.d2_at(p, q))
            b = image_basis(dc.d2_at(p - 1, q))
            want = quotient(z, b).dim
            assert p1.dim(q, p) == want


def test_q_squared_zero_and_sign_rule():
    """With Q = (-1)^q d2 + d1, commuting d1 and d2 give Q^2 = 0, so the
    check Q_m Q_{m-1} = 0 in total_cohomology passes at every degree."""
    for seed in range(10):
        dc = random_double_complex(seed)
        for m in range(dc.width + dc.height - 1):
            total_cohomology(dc, m)


# a column 1 -> 1 -> 1 whose two d1 maps are both the identity, so d1 d1 != 0
D1_SQUARED_NONZERO = """
import sys
from lagfloor.linalg import InvariantViolation, Mat
from lagfloor.spectral import DoubleComplex, abutment_check, total_cohomology

dc = DoubleComplex([[1, 1, 1]], {(0, 0): Mat.identity(1), (0, 1): Mat.identity(1)}, {})
raised = 0
for check in (lambda: total_cohomology(dc, 1), lambda: abutment_check(dc)):
    try:
        check()
    except InvariantViolation:
        raised += 1
sys.exit(raised)
"""


def test_q_squared_nonzero_raises_also_under_python_O():
    """On that column Q_1 Q_0 = d1 d1 != 0, though its ranks still give
    dimensions; total_cohomology at degree 1 raises instead, and so does
    abutment_check, also under python -O."""
    dc = DoubleComplex([[1, 1, 1]], {(0, 0): Mat.identity(1), (0, 1): Mat.identity(1)}, {})
    assert validate_double_complex(dc).violations == (("d1.d1", 0, 0),)
    with pytest.raises(InvariantViolation, match="Q\\^2 != 0 at degree 1"):
        total_cohomology(dc, 1)
    with pytest.raises(InvariantViolation):
        abutment_check(dc)
    assert run_under_O(script=D1_SQUARED_NONZERO) == (2, "")


def test_stabilization():
    for seed in range(6):
        dc = random_double_complex(seed)
        r0 = max(dc.width, dc.height) + 1
        stable = page(dc, r0)
        nxt = page(dc, r0 + 1)
        for p in range(dc.width):
            for q in range(dc.height):
                assert stable.dim(p, q) == nxt.dim(p, q)


def test_pages_past_the_stable_page_read_the_stable_page():
    """page(dc, r) above r0 = max(width, height) + 1 reads page r0; the
    zig-zag quotients computed at such an r have the same dims, and d_r is
    the zero map."""
    for seed in range(6):
        dc = random_double_complex(seed)
        r0 = max(dc.width, dc.height) + 1
        stable = page(dc, r0)
        for r in (r0 + 1, r0 + 2, r0 + 5):
            assert page(dc, r) is stable
            for p in range(dc.width):
                for q in range(dc.height):
                    if dc.dim_at(p, q):
                        assert page_cell(dc, p, q, r)[0].dim == stable.dim(p, q)
                    assert page_differential(dc, r, p, q).is_zero()


def test_page_differential_squares_to_zero_and_computes_next_page():
    for seed in (3, 14, 15):
        dc = random_double_complex(seed)
        for r in (1, 2, 3):
            pg = page(dc, r)
            nxt = page(dc, r + 1)
            for p in range(dc.width):
                for q in range(dc.height):
                    m_in = page_differential(dc, r, p - r, q + r - 1)
                    m_out = page_differential(dc, r, p, q)
                    if m_out.rows and m_in.cols:
                        assert m_out.mul(m_in).is_zero()
                    # H(d_r) dims equal page r+1 dims
                    if pg.dim(p, q):
                        from lagfloor.linalg import Subspace, image_basis, kernel_basis, quotient

                        z = kernel_basis(m_out)
                        b = image_basis(m_in) if m_in.cols else Subspace(z.ambient_dim, ())
                        assert nxt.dim(p, q) == quotient(z, b).dim


def test_abutment_on_random_complexes_small_batch():
    # the full 200-complex sweep runs in the acceptance suite
    for seed in range(20):
        dc = random_double_complex(seed)
        assert validate_double_complex(dc).ok
        assert abutment_check(dc).ok


def fresh_copy(dc):
    """The same complex with nothing derived from it stored yet."""
    d1 = {(p, q): dc.d1_at(p, q) for p in range(dc.width) for q in range(dc.height)}
    d2 = {(p, q): dc.d2_at(p, q) for p in range(dc.width) for q in range(dc.height)}
    return DoubleComplex(dc.dims, d1, d2)


def page_orders(dc, rng):
    """Pages 0 to stable + 2 of dc, ascending, descending and shuffled."""
    pages = list(range(max(dc.width, dc.height) + 4))
    return pages, [pages, pages[::-1], rng.sample(pages, len(pages))]


def test_pages_do_not_depend_on_the_order_they_are_asked_in():
    """Every page's grid, with pages asked for ascending, descending or
    shuffled on one complex, equals the grid of the same page asked for
    alone on a fresh copy, under both filtrations."""
    rng = random.Random(0)
    for given in [random_double_complex(seed) for seed in range(30)] + [hand_zigzag_complex()]:
        for dc in (given, transpose(given)):
            w, h = dc.width, dc.height
            pages, orders = page_orders(dc, rng)
            alone = {r: page(fresh_copy(dc), r).dims_grid(w, h) for r in pages}
            for order in orders:
                shared = fresh_copy(dc)
                assert {r: page(shared, r).dims_grid(w, h) for r in order} == alone


def test_page_cells_are_solved_once_per_window(monkeypatch):
    """Every cell of every page is read off one filtered reduction: it runs
    once per complex, whichever pages are asked for and in whatever order,
    and a page asked for twice is the same page."""
    import lagfloor.spectral as sp

    reduced = []
    filtered_reduction = sp._filtered_reduction
    monkeypatch.setattr(sp, "_filtered_reduction", lambda dc: reduced.append(dc) or filtered_reduction(dc))
    rng = random.Random(0)
    for given in [random_double_complex(seed) for seed in range(30)] + [hand_zigzag_complex()]:
        for dc in (given, transpose(given)):
            _, orders = page_orders(dc, rng)
            for order in orders:
                shared = fresh_copy(dc)
                reduced.clear()
                for r in order:
                    page(shared, r).dims_grid(dc.width, dc.height)
                assert page(shared, 2) is page(shared, 2)
                assert reduced == [shared]


def test_total_cohomology_is_computed_once_per_degree(monkeypatch):
    """abutment_check reads the totals its caller computed on dc, and the
    reverse; it runs the filtered reduction once more, on a fresh
    transposed complex, and reads dc's own reduction from dc."""
    import lagfloor.spectral as sp

    built = []
    total_differential = sp.total_differential
    monkeypatch.setattr(sp, "total_differential", lambda dc, m: built.append((dc, m)) or total_differential(dc, m))
    reduced = []
    filtered_reduction = sp._filtered_reduction
    monkeypatch.setattr(sp, "_filtered_reduction", lambda dc: reduced.append(dc) or filtered_reduction(dc))
    for first_totals in (True, False):
        dc = random_double_complex(5, width=4, height=4)
        degrees = range(dc.width + dc.height - 1)
        sp.page_infinity(dc)
        reduced.clear()
        if first_totals:
            totals = [total_cohomology(dc, m) for m in degrees]
            built.clear()
            report = abutment_check(dc)
            assert all(c is not dc for c, _ in built)
        else:
            report = abutment_check(dc)
            built.clear()
            totals = [total_cohomology(dc, m) for m in degrees]
            assert not built
        assert [total_cohomology(dc, m) for m in degrees] == totals
        assert [total for _, _, total, _ in report.rows] == 2 * [h.dim for h in totals]
        assert report.ok
        # the transposed filtration was reduced, on its own complex, once
        assert len(reduced) == 1 and reduced[0] is not dc
        assert reduced[0].dims == transpose(dc).dims


def test_totals_and_abutment_row_reduce_each_q_once(monkeypatch):
    """Every total_cohomology degree plus abutment_check run at most one
    rref per Q_m of dc, of its rows: H^m and H^{m+1} share Q_m and its kept
    row reduction, no Q_m is reduced by columns, and the filtered
    reductions use Echelons of their own."""
    import lagfloor.linalg as la
    import lagfloor.spectral as sp

    dc = random_double_complex(5, width=4, height=4)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda rows, ncols: calls.append(rows) or rref(rows, ncols))
    degrees = range(dc.width + dc.height - 1)
    dims = [total_cohomology(dc, m).dim for m in degrees]
    assert abutment_check(dc).ok
    maps = range(-1, dc.width + dc.height - 1)  # Q_{-1} maps into D^0
    qs = [sp.total_differential(dc, m) for m in maps]
    assert all(q is sp.total_differential(dc, m) for m, q in zip(maps, qs))
    assert calls and len(calls) <= len(qs) and all(any(rows is q.data for q in qs) for rows in calls)
    assert not any("column_reduction" in q.__dict__ for q in qs)
    assert [total_cohomology(fresh_copy(dc), m).dim for m in degrees] == dims


@pytest.mark.parametrize("mutant", ["pairs_nothing", "one_element_unpaired"])
def test_a_wrong_filtered_reduction_fails_the_abutment(monkeypatch, mutant):
    """The totals never read the filtered reduction, so a reduction that
    gets E_inf wrong is caught: one that lengthens every gap past the stable
    page, and one that leaves a single paired element unpaired.  (A gap
    lengthened by 1 stays below the stable page, width + 1 or height + 1,
    so E_inf would not move.)"""
    import lagfloor.spectral as sp

    filtered_reduction = sp._filtered_reduction

    def wrong(dc):
        r0 = max(dc.width, dc.height) + 1
        lives = filtered_reduction(dc)
        if mutant == "pairs_nothing":
            return {cell: [life + r0 for life in ls] for cell, ls in lives.items()}
        cell = next(cell for cell, ls in sorted(lives.items()) if min(ls) < r0)
        ls = sorted(lives[cell])
        return {**lives, cell: [r0] + ls[1:]}

    dcs = [random_double_complex(seed, width=4, height=4) for seed in range(5)]
    want = [[total_cohomology(fresh_copy(dc), m).dim for m in range(7)] for dc in dcs]
    monkeypatch.setattr(sp, "_filtered_reduction", wrong)
    for dc, totals in zip(dcs, want):
        report = abutment_check(dc)
        assert not report.ok
        assert [total for _, _, total, label in report.rows if label == "given"] == totals


def reduction_mismatches(dc):
    """(filtration, r, p, q, reduction's dim, zig-zag's dim) wherever page r
    of the filtered reduction differs from the zig-zag quotient, for every r
    from 0 to the stable page, under both filtrations of fresh copies of dc."""
    out = []
    for label, c in (("given", fresh_copy(dc)), ("transposed", transpose(dc))):
        for r in range(max(c.width, c.height) + 2):
            pg = page(c, r)
            for p in range(c.width):
                for q in range(c.height):
                    if c.dim_at(p, q):
                        want = page_cell(c, p, q, r)[0].dim
                        if pg.dim(p, q) != want:
                            out.append((label, r, p, q, pg.dim(p, q), want))
    return out


def oracle_complexes():
    from fixture_pairs import fixture_pair
    from lagfloor.hierarchy import ClassifyOptions, build_invariance_double_complex

    l3 = build_invariance_double_complex(fixture_pair("l3_cylinder"), ClassifyOptions(degree=3, fourier=3)).dc
    return [random_double_complex(seed) for seed in range(30)] + [hand_zigzag_complex(), l3]


def test_filtered_reduction_matches_the_zigzag_on_every_page():
    """The zig-zag quotients are the reduction's oracle: the same dimension
    on every cell of every page, under both filtrations."""
    complexes = oracle_complexes()
    for dc in complexes:
        assert reduction_mismatches(dc) == []
    # pages past E_1 that differ from E_1 were compared, in both filtrations
    moved = set()
    for dc in complexes:
        for label, c in (("given", dc), ("transposed", transpose(dc))):
            if page(c, 1).dims_grid(c.width, c.height) != page_infinity(c).dims_grid(c.width, c.height):
                moved.add(label)
    assert moved == {"given", "transposed"}


@pytest.mark.parametrize("dropped", ["d1", "d2"])
def test_reduction_of_a_q_without_one_differential_fails_the_oracle(monkeypatch, dropped):
    """A mutant whose Q loses all of d1 or all of d2 gives the reduction
    pages that the zig-zag, which reads the whole Q, does not agree with."""
    import lagfloor.spectral as sp

    total_differential = sp.total_differential

    def mutant(dc, m):
        kept = {"d1": ({}, dc._d2), "d2": (dc._d1, {})}[dropped]
        return total_differential(DoubleComplex(dc.dims, *kept), m)

    monkeypatch.setattr(sp, "total_differential", mutant)
    assert any(reduction_mismatches(dc) for dc in oracle_complexes())


def test_pages_of_a_single_cell_without_maps_run_no_elimination(monkeypatch):
    """E_1, E_2 and E_inf of one 4096-dimensional cell with no maps are the
    whole cell, read off a reduction that pairs nothing, with no rref."""
    import lagfloor.linalg as la
    import lagfloor.spectral as sp

    calls = []
    rref = la.rref

    def counted(*a):
        calls.append(a)
        return rref(*a)

    monkeypatch.setattr(la, "rref", counted)
    dc = DoubleComplex([[4096]], {}, {})
    assert page(dc, 1).dims_grid(1, 1) == [[4096]]
    assert page(dc, 2).dims_grid(1, 1) == [[4096]]
    assert page_infinity(dc).dims_grid(1, 1) == [[4096]]
    assert not calls


RANDOM_COMPLEX_DIGESTS = {
    0: "e1f4047d7890f3dd42f430f39ff6aeffd476516e4333790b69aaeb704e8199fe",
    1: "4138065ca7555ef953c1df7e1810271e72b5c1c39b94fcaeb8245b47db26deef",
    7: "a1c88a07a55f498ca952679d2d799e29dcd98172f266f2d890f307ddb25490d6",
    42: "404c60f50ca376cbac33d2ae9a423542618061698a981c601f2a33dfc423b119",
    2026: "a2b725b1ca30b12f1d82e3d84a1b6fcf7421052fbafd8691ef6c23888b22a4cf",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_COMPLEX_DIGESTS))
def test_random_double_complex_draws_pinned(seed):
    """The benchmark predicts these draws from the seed, so the dims and every
    block's entries must not move; digests captured before the blocks were
    stored sparse."""
    import hashlib

    dc = random_double_complex(seed, width=4, height=4, maxdim=10)
    w, h = dc.width, dc.height
    d1 = [((p, q), tuple(str(x) for x in dc.d1_at(p, q).entries)) for p in range(w) for q in range(h - 1)]
    d2 = [((p, q), tuple(str(x) for x in dc.d2_at(p, q).entries)) for p in range(w - 1) for q in range(h)]
    assert hashlib.sha256(repr((dc.dims, d1, d2)).encode()).hexdigest() == RANDOM_COMPLEX_DIGESTS[seed]
