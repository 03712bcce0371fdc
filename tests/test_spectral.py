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
    validate_double_complex,
)
from test_cli import run_under_O
from zigzag import page_cell, page_differential, transpose

F = Fraction


def single_cell():
    return DoubleComplex([[1]], {}, {})


def test_validate_zero_maps():
    dc = DoubleComplex([[2, 1], [1, 3]], {}, {})
    assert validate_double_complex(dc).ok


def test_validate_single_cell():
    assert validate_double_complex(single_cell()).ok


def garbage_complex():
    d1 = {(0, 0): Mat.from_rows([[1], [0]])}
    d2 = {(0, 0): Mat.from_rows([[1]]), (0, 1): Mat.from_rows([[1, 1], [0, 1]])}
    return DoubleComplex([[1, 2], [1, 2]], d1, d2)


def test_validate_detects_random_garbage():
    report = validate_double_complex(garbage_complex())
    assert not report.ok
    assert report.violations


def perturbed_fractional_complex():
    """random_double_complex(3) with one entry of its d2 block at (0, 0),
    whose row denominators are 5, 5 and 15, moved by 1/7."""
    dc = random_double_complex(3)
    block = dc.d2_at(0, 0)
    assert set(block.dens) == {5, 15}
    rows = [block.vector(i) for i in range(block.rows)]
    rows[0] = {**rows[0], 1: rows[0].get(1, 0) + F(1, 7)}
    d1 = {(p, q): dc.d1_at(p, q) for p in range(dc.width) for q in range(dc.height - 1)}
    d2 = {(p, q): dc.d2_at(p, q) for p in range(dc.width - 1) for q in range(dc.height)}
    d2[(0, 0)] = Mat.from_vectors(rows, block.cols)
    return DoubleComplex(dc.dims, d1, d2)


def test_validate_flags_one_perturbed_fractional_d2_block():
    """Moving one entry by 1/7 breaks the complex, and the exact products
    flag the cell, while the drawn complex validates."""
    assert validate_double_complex(random_double_complex(3)).ok
    report = validate_double_complex(perturbed_fractional_complex())
    assert not report.ok
    assert {(p, q) for _, p, q in report.violations} == {(0, 0)}


def d1_squared_column():
    """A column 1 -> 1 -> 1 whose two d1 maps are both the identity, so d1 d1 != 0."""
    return DoubleComplex([[1, 1, 1]], {(0, 0): Mat.from_rows([[1]]), (0, 1): Mat.from_rows([[1]])}, {})


# a 2 x 2 grid of lines, d1 = 1 on both columns, d2 = 1/2 on the bottom row
# and 1 on the top: Q_1 Q_0 = -1 + 1/2 at (1, 1), a failure to commute that
# shows only with Q_0's second row over its denominator 2
SCALED_COMMUTE = """DoubleComplex([[1, 1], [1, 1]], {(0, 0): Mat.from_rows([[1]]), (1, 0): Mat.from_rows([[1]])},
              {(0, 0): Mat.from_rows([[F(1, 2)]]), (0, 1): Mat.from_rows([[1]])})"""


def row_built_q(dc, m):
    """Q_m = (-1)^q d2 + d1 built from Mat rows over Fractions, block by
    block from d1_at and d2_at: the reference for the column store."""
    src, tgt = [(p, m - p) for p in range(dc.width)], [(p, m + 1 - p) for p in range(dc.width)]
    offsets = [sum(dc.dim_at(*cell) for cell in src[:k]) for k in range(len(src))]
    rows = []
    for tp, tq in tgt:
        for k in range(dc.dim_at(tp, tq)):
            row = {}
            for (p, q), c0 in zip(src, offsets):
                if dc.dim_at(p, q) and (tp, tq) in ((p, q + 1), (p + 1, q)):
                    block, sign = (dc.d1_at(p, q), 1) if tq == q + 1 else (dc.d2_at(p, q), (-1) ** q)
                    row.update((c0 + j, sign * x) for j, x in block.vector(k).items())
            rows.append(row)
    return Mat.from_vectors(rows, sum(dc.dim_at(*cell) for cell in src))


def mixed_denominator_complex():
    """A 2 x 2 grid of planes whose four blocks have rows over 2, 3, 5, 6, 7
    and 10, differing within a block and between the blocks that share
    rows of Q; it need not be a complex."""
    d1 = {(0, 0): Mat.from_rows([[F(1, 2), F(1, 3)], [F(-5, 7), 0]]),
          (1, 0): Mat.from_rows([[F(2, 5), 1], [0, F(-1, 6)]])}
    d2 = {(0, 0): Mat.from_rows([[F(3, 7), 0], [F(1, 5), F(1, 2)]]),
          (0, 1): Mat.from_rows([[1, F(-2, 3)], [F(7, 2), 4]])}
    return DoubleComplex([[2, 2], [2, 2]], d1, d2)


def test_the_column_store_is_q_built_from_mat_rows():
    """Each Q_m's integer columns over its one denominator are, as
    Fractions, the entries of Q_m assembled from the d1 and d2 blocks' Mat
    rows, on the seeded complexes, on blocks with mixed denominators and on
    invalid complexes; its rank is the number of pivots of that Mat's row
    reduction."""
    from lagfloor.spectral import total_differential

    complexes = [random_double_complex(seed) for seed in range(20)]
    complexes += [mixed_denominator_complex(), perturbed_fractional_complex(), garbage_complex(), eval(SCALED_COMMUTE)]
    for dc in complexes:
        for m in range(-1, dc.width + dc.height - 1):
            q, ref = total_differential(dc, m), row_built_q(dc, m)
            assert type(q.den) is int and q.den >= 1
            assert (q.rows, len(q.columns)) == (ref.rows, ref.cols)
            got = {(i, j): F(x, q.den) for j, col in enumerate(q.columns) for i, x in col.items()}
            assert got == {(i, j): x for i in range(ref.rows) for j, x in ref.vector(i).items()}
            assert q.rank == len(ref.row_reduction[0])
    # one denominator per Q_m: the lcm of its blocks' row denominators
    assert [total_differential(mixed_denominator_complex(), m).den for m in (0, 1)] == [210, 30]


# a 1 x 2 grid of lines whose d1 block is tampered with after the complex
# is built, in three ways; argv[-1] says which
TAMPERED_BLOCK = """
import sys
from fractions import Fraction
from lagfloor.linalg import InvariantViolation, Mat
from lagfloor.spectral import DoubleComplex, page, total_cohomology

block = Mat.from_rows([[2]])
dc = DoubleComplex([[1, 1]], {(0, 0): block}, {})
block.data[0].clear()
block.data[0].update({"zero": {0: 0}, "fraction": {0: Fraction(1, 2)}, "column": {1: 1}}[sys.argv[-1]])
assert False, "asserts must be stripped under -O"
for read in (lambda: total_cohomology(dc, 0), lambda: page(dc, 1)):
    try:
        read()
    except InvariantViolation as exc:
        print("raised:", exc)
"""


@pytest.mark.parametrize("tamper, entry", [("zero", "0 at column 0"), ("fraction", "Fraction(1, 2) at column 0"),
                                           ("column", "1 at column 1")])
def test_q_entries_are_checked_by_explicit_raises_also_under_python_O(tamper, entry):
    """The store checks every entry it scatters: a block entry that is 0 or
    not an int, or one outside its block's columns, raises
    InvariantViolation when Q is built, for the totals and for the pages
    alike, also under python -O."""
    raised = f"raised: a block of Q holds {entry}, not a nonzero int in columns 0..0\n"
    assert run_under_O(tamper, script=TAMPERED_BLOCK) == (0, 2 * raised)


def test_invalid_complexes_read_the_entries_of_the_product_matrix():
    """On the invalid complexes here and on valid random ones, with
    fractional rows, the nonzero entries of each Q_m Q_{m-1} that validation
    reads, Q_m applied to each integer column of Q_{m-1}, are those of
    Mat.mul's product of Q_m and Q_{m-1} built from Mat rows."""
    from lagfloor.spectral import total_differential

    scaled = eval(SCALED_COMMUTE)
    invalid = [d1_squared_column(), garbage_complex(), perturbed_fractional_complex(), scaled]
    for dc in invalid + [random_double_complex(seed) for seed in range(10)] + [mixed_denominator_complex()]:
        for m in range(1, dc.width + dc.height - 1):
            a, b = total_differential(dc, m), total_differential(dc, m - 1)
            read = sorted((i, j) for j, col in enumerate(b.columns) for i, x in a.apply(col).items() if x)
            assert read == [(i, j) for i, row in enumerate(row_built_q(dc, m).mul(row_built_q(dc, m - 1)).data)
                            for j in sorted(row)]
    assert not any(validate_double_complex(dc).ok for dc in invalid)
    assert validate_double_complex(scaled).violations == (("commute", 0, 0),)


# the product check with B's rows summed as they are, not over their lcm,
# in cecohom, and Q's columns written without their den // d scale, in
# spectral; argv[-1] is "exact" or "mutant"
NO_LCM_PRODUCT = f"""
import inspect
import sys
from fractions import Fraction as F

import lagfloor.cecohom as ce
import lagfloor.spectral as sp
from lagfloor.liealg import catalog
from lagfloor.linalg import InvariantViolation, Mat
from lagfloor.spectral import DoubleComplex


def no_lcm(a, b):
    for i, row in enumerate(a.data):
        acc = {{}}
        for k, x in row.items():
            for j, y in b.data[k].items():
                acc[j] = acc.get(j, 0) + x * y
        yield from ((i, j) for j, v in acc.items() if v)


if sys.argv[-1] == "mutant":
    ce.product_nonzeros = no_lcm
    source = inspect.getsource(sp._q_columns)
    if "sign * (den // d)" not in source:
        sys.exit("the mutant found no scale to drop")
    exec(source.replace("sign * (den // d)", "sign"), vars(sp))
assert False, "asserts must be stripped under -O"
flagged = [seed for seed in range(20) if not sp.validate_double_complex(sp.random_double_complex(seed)).ok]
print(len(flagged), *sp.validate_double_complex({SCALED_COMMUTE}).violations)
g = catalog("so3")
try:
    ce.cohomology(g, ce.GModule(1, g, (Mat.from_rows([[1]]), Mat.zero(1, 1), Mat.zero(1, 1))), 1)
except InvariantViolation as exc:
    print("raised:", exc)
"""


def test_a_product_check_without_the_lcm_fails_also_under_python_O():
    """Q's columns are written over one denominator, each entry scaled by
    den // d from its row's denominator d.  A mutant that writes the entries
    unscaled flags valid random complexes, whose rows have denominators, and
    misses the violation of the 2 x 2 complex that shows only after scaling;
    the exact store flags no valid complex and that one violation, also
    under python -O.  cohomology on an invalid module raises, also with
    cecohom's product check summing B's rows without their lcm."""
    raised = "raised: delta^2 != 0: invalid module\n"
    assert run_under_O("exact", script=NO_LCM_PRODUCT) == (0, "0 ('commute', 0, 0)\n" + raised)
    code, out = run_under_O("mutant", script=NO_LCM_PRODUCT)
    first, rest = out.split("\n", 1)
    flagged, *violations = first.split()
    assert (code, violations, rest) == (0, [], raised) and int(flagged) > 0, out


def test_single_cell_total_cohomology():
    dc = single_cell()
    assert total_cohomology(dc, 0).dim == 1
    assert total_cohomology(dc, 1).dim == 0


def test_acyclic_two_cells():
    dc = DoubleComplex([[1, 1]], {(0, 0): Mat.from_rows([[1]])}, {})
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
    d1 = {(1, 0): Mat.from_rows([[1]])}
    d2 = {(0, 1): Mat.from_rows([[1]]), (1, 0): Mat.from_rows([[1]])}
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


# d1_squared_column(), in a python -O script
D1_SQUARED_NONZERO = """
import sys
from lagfloor.linalg import InvariantViolation, Mat
from lagfloor.spectral import DoubleComplex, abutment_check, total_cohomology

dc = DoubleComplex([[1, 1, 1]], {(0, 0): Mat.from_rows([[1]]), (0, 1): Mat.from_rows([[1]])}, {})
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
    dc = d1_squared_column()
    assert validate_double_complex(dc).violations == (("d1.d1", 0, 0),)
    with pytest.raises(InvariantViolation, match="Q\\^2 != 0 at degree 1"):
        total_cohomology(dc, 1)
    with pytest.raises(InvariantViolation):
        abutment_check(dc)
    assert run_under_O(script=D1_SQUARED_NONZERO) == (2, "")


# Q assembled without the (-1)^q on d2: its square holds d1 d2 + d2 d1 where
# d1 d2 - d2 d1 should be, although every d1 and d2 block is unchanged
UNSIGNED_Q = """
import inspect
import sys

import lagfloor.spectral as sp

source = inspect.getsource(sp._q_columns)
if "(-1) ** q" not in source:
    sys.exit("the mutant found no sign to drop")
exec(source.replace("(-1) ** q", "1"), vars(sp))
assert False, "asserts must be stripped under -O"
print(*sp.validate_double_complex(sp.random_double_complex(3)).violations)
"""


def test_validation_reads_the_assembled_q_also_under_python_O():
    """The check reads Q^2 = 0, so a Q whose sign rule is broken fails it on
    a complex whose blocks all commute, also under python -O."""
    assert validate_double_complex(random_double_complex(3)).ok
    assert run_under_O(script=UNSIGNED_Q) == (0, "('commute', 0, 0)\n")


def test_q_squared_is_read_once_with_no_product_matrix(monkeypatch):
    """validate_double_complex, total_cohomology at every degree and
    abutment_check on one complex apply each Q_m once to each integer column
    of Q_{m-1}, all dc's own Q's, and never call Mat.mul or
    product_nonzeros."""
    import lagfloor.linalg as la
    import lagfloor.spectral as sp

    assert not hasattr(sp, "product_nonzeros")
    dc = random_double_complex(5, width=3, height=3)
    applied = []
    apply = sp.TotalDifferential.apply
    monkeypatch.setattr(sp.TotalDifferential, "apply", lambda q, col: applied.append((q, col)) or apply(q, col))
    products = []
    nonzeros = la.product_nonzeros
    monkeypatch.setattr(la, "product_nonzeros", lambda a, b: products.append((a, b)) or nonzeros(a, b))
    muls = []
    mul = Mat.mul
    monkeypatch.setattr(Mat, "mul", lambda a, b: muls.append((a, b)) or mul(a, b))
    assert validate_double_complex(dc).ok
    for m in range(dc.width + dc.height - 1):
        total_cohomology(dc, m)
    assert abutment_check(dc).ok
    assert validate_double_complex(dc).ok
    degrees = range(1, dc.width + dc.height - 1)
    assert [(id(q), id(col)) for q, col in applied] == [(id(dc._q[m]), id(col))
                                                        for m in degrees for col in dc._q[m - 1].columns]
    assert applied and not products and not muls


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
            later = page(dc, r)
            assert later.r == stable.r and later.dims_grid(dc.width, dc.height) == stable.dims_grid(dc.width, dc.height)
            for p in range(dc.width):
                for q in range(dc.height):
                    if dc.dim_at(p, q):
                        assert page_cell(dc, p, q, r)[0].dim == stable.dim(p, q)
                    assert not any(page_differential(dc, r, p, q).data)


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
                        assert not any(m_out.mul(m_in).data)
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
    and a page asked for twice has the same dims."""
    import lagfloor.spectral as sp

    reduced = []
    filtered_reduction = sp._filtered_reduction
    monkeypatch.setattr(sp, "_filtered_reduction",
                        lambda dc, axis: reduced.append((dc, axis)) or filtered_reduction(dc, axis))
    rng = random.Random(0)
    for given in [random_double_complex(seed) for seed in range(30)] + [hand_zigzag_complex()]:
        for dc in (given, transpose(given)):
            _, orders = page_orders(dc, rng)
            for order in orders:
                shared = fresh_copy(dc)
                reduced.clear()
                for r in order:
                    page(shared, r).dims_grid(dc.width, dc.height)
                first, again = page(shared, 2), page(shared, 2)
                assert first.r == again.r == 2
                assert first.dims_grid(dc.width, dc.height) == again.dims_grid(dc.width, dc.height)
                assert reduced == [(shared, sp.GIVEN)]


def test_total_cohomology_is_computed_once_per_degree(monkeypatch):
    """abutment_check reads the totals its caller computed on dc, and the
    reverse.  Pages, totals and abutment_check on one complex, totals first
    or abutment first, build each Q_m once, all on dc: the transposed
    filtration reads dc's Q, no transposed complex is built, and each
    filtration is reduced once."""
    import lagfloor.spectral as sp

    assert not hasattr(sp, "transpose")
    built = []
    q_columns = sp._q_columns
    monkeypatch.setattr(sp, "_q_columns",
                        lambda dc, src, tgt: built.append((dc, tuple(src))) or q_columns(dc, src, tgt))
    complexes = []
    init = sp.DoubleComplex.__init__
    monkeypatch.setattr(sp.DoubleComplex, "__init__", lambda dc, *a: complexes.append(dc) or init(dc, *a))
    reduced = []
    filtered_reduction = sp._filtered_reduction
    monkeypatch.setattr(sp, "_filtered_reduction",
                        lambda dc, axis: reduced.append((dc, axis)) or filtered_reduction(dc, axis))
    for first_totals in (True, False):
        dc = random_double_complex(5, width=4, height=4)
        degrees = range(dc.width + dc.height - 1)
        built.clear()
        complexes.clear()
        reduced.clear()
        sp.page_infinity(dc)
        if first_totals:
            totals = [total_cohomology(dc, m) for m in degrees]
            report = abutment_check(dc)
        else:
            report = abutment_check(dc)
            totals = [total_cohomology(dc, m) for m in degrees]
        assert [total_cohomology(dc, m) for m in degrees] == totals
        assert [total for _, _, total, _ in report.rows] == 2 * [h.dim for h in totals]
        assert report.ok
        # Q_{-1}, which maps into D^0, to Q_{w+h-2}, each once
        maps = range(-1, dc.width + dc.height - 1)
        assert sorted(src for _, src in built) == sorted(tuple(sp._antidiagonal_cells(dc, m)) for m in maps)
        assert all(c is dc for c, _ in built)
        assert not complexes
        assert reduced == [(dc, sp.GIVEN), (dc, sp.TRANSPOSED)]


def test_totals_and_abutment_take_each_rank_once_with_no_rref(monkeypatch):
    """Every total_cohomology degree plus abutment_check eliminate each Q_m
    of dc once, forward, for its rank: H^m and H^{m+1} share Q_m's kept
    rank, nothing runs rref, and the filtered reductions use Echelons of
    their own.  Each rank equals the number of pivots of the full row
    reduction of Q built from Mat rows."""
    from functools import cached_property

    import lagfloor.linalg as la
    import lagfloor.spectral as sp

    dc = random_double_complex(5, width=4, height=4)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda rows, ncols: calls.append(rows) or rref(rows, ncols))
    ranked = []
    rank = sp.TotalDifferential.rank.func
    counted = cached_property(lambda q: ranked.append(q) or rank(q))
    counted.__set_name__(sp.TotalDifferential, "rank")
    monkeypatch.setattr(sp.TotalDifferential, "rank", counted)
    degrees = range(dc.width + dc.height - 1)
    dims = [total_cohomology(dc, m).dim for m in degrees]
    assert abutment_check(dc).ok
    assert [total_cohomology(dc, m).dim for m in degrees] == dims
    maps = range(-1, dc.width + dc.height - 1)  # Q_{-1} maps into D^0
    qs = [sp.total_differential(dc, m) for m in maps]
    assert all(q is sp.total_differential(dc, m) for m, q in zip(maps, qs))
    assert sorted(map(id, ranked)) == sorted(map(id, qs))
    assert not calls
    assert [q.rank for q in qs] == [len(row_built_q(dc, m).row_reduction[0]) for m in maps]
    assert [total_cohomology(fresh_copy(dc), m).dim for m in degrees] == dims


@pytest.mark.parametrize("mutant", ["pairs_nothing", "one_element_unpaired"])
def test_a_wrong_filtered_reduction_fails_the_abutment(monkeypatch, mutant):
    """The totals never read the filtered reduction, so a reduction of one
    filtration, given or transposed, that gets E_inf wrong fails that
    filtration's rows, and only those: one that lengthens every gap past
    the stable page, and one that leaves a single paired element unpaired.
    (A gap lengthened by 1 stays below the stable page, width + 1 or
    height + 1, so E_inf would not move.)"""
    import lagfloor.spectral as sp

    filtered_reduction = sp._filtered_reduction

    def wrong(dc, axis):
        lives = filtered_reduction(dc, axis)
        if axis != mutated:
            return lives
        r0 = max(dc.width, dc.height) + 1
        if mutant == "pairs_nothing":
            return {cell: [life + r0 for life in ls] for cell, ls in lives.items()}
        cell = next(cell for cell, ls in sorted(lives.items()) if min(ls) < r0)
        ls = sorted(lives[cell])
        return {**lives, cell: [r0] + ls[1:]}

    dcs = [random_double_complex(seed, width=4, height=4) for seed in range(5)]
    want = [[total_cohomology(fresh_copy(dc), m).dim for m in range(7)] for dc in dcs]
    monkeypatch.setattr(sp, "_filtered_reduction", wrong)
    for label, mutated in (("given", sp.GIVEN), ("transposed", sp.TRANSPOSED)):
        for dc, totals in zip(dcs, want):
            report = abutment_check(fresh_copy(dc))
            assert not report.ok
            assert {lab for _, sum_e, total, lab in report.rows if sum_e != total} == {label}
            assert [total for _, _, total, lab in report.rows if lab == "given"] == totals


def transposed_oracle_complexes():
    """Random complexes at seeds 0-40, drawn as they come and as 1 x n and
    n x 1 grids, the shipped spectral example and the l3 invariance
    complex."""
    from lagfloor.problemfile import build_double_complex, load_problem_file

    example = Path(__file__).resolve().parent.parent / "src" / "lagfloor" / "fixtures" / "spectral_example.toml"
    shapes = ({}, {"width": 1}, {"height": 1})
    drawn = [random_double_complex(seed, **shape) for seed in range(41) for shape in shapes]
    return drawn + [build_double_complex(load_problem_file(example)), l3_invariance_complex()]


def test_the_transposed_filtration_of_dc_is_the_reduction_of_its_transpose():
    """The transposed filtration, read off dc's own Q, gives each cell (p, q)
    the lives, in the same order, that the given filtration of the
    transposed complex, built whole, gives its cell (q, p)."""
    import lagfloor.spectral as sp

    complexes = transposed_oracle_complexes()
    for dc in complexes:
        lives = sp._filtered_reduction(dc, sp.TRANSPOSED)
        assert {(q, p): ls for (p, q), ls in lives.items()} == sp._filtered_reduction(transpose(dc), sp.GIVEN)
    # the sample holds 1 x n and n x 1 grids, empty cells and pairs
    assert any(dc.width == 1 < dc.height for dc in complexes)
    assert any(dc.height == 1 < dc.width for dc in complexes)
    assert any(0 in col for dc in complexes for col in dc.dims)
    assert any(life < max(dc.width, dc.height) + 1
               for dc in complexes for ls in sp._filtered_reduction(dc, sp.TRANSPOSED).values() for life in ls)


def reduction_mismatches(dc):
    """(filtration, r, p, q, reduction's dim, zig-zag's dim) wherever page r
    of a filtered reduction of a fresh copy of dc differs from the zig-zag
    quotient, for every r from 0 to the stable page: the given filtration
    against dc's zig-zag at (p, q), and the transposed one, read off dc's Q,
    against the zig-zag of the transposed complex at (q, p)."""
    import lagfloor.spectral as sp

    c, t = fresh_copy(dc), transpose(dc)
    out = []
    for r in range(max(c.width, c.height) + 2):
        given, transposed = page(c, r), sp._page_dims(c, sp.TRANSPOSED, r)
        for (p, q), got_transposed in transposed.items():
            for label, got, cell in (("given", given.dim(p, q), page_cell(c, p, q, r)),
                                     ("transposed", got_transposed, page_cell(t, q, p, r))):
                if got != cell[0].dim:
                    out.append((label, r, p, q, got, cell[0].dim))
    return out


def l3_invariance_complex():
    from fixture_pairs import fixture_pair
    from lagfloor.hierarchy import ClassifyOptions, build_invariance_double_complex

    return build_invariance_double_complex(fixture_pair("l3_cylinder"), ClassifyOptions(degree=3, fourier=3))


def oracle_complexes():
    return [random_double_complex(seed) for seed in range(30)] + [hand_zigzag_complex(), l3_invariance_complex()]


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
