"""Coordinate views of finite families of expressions.

Several solvers (potential finding, cocycle spaces, the K-spaces and the
phi_3 witness) reduce "these expressions must vanish / be dependent" to
exact linear algebra: bring everything over a common denominator, read off
monomial coordinates of the numerators, and hand the rows to ``linalg``.  A
term may also come as the sparse monomial vector ``{monomial: coefficient}``
of a polynomial, which is how the pair's action table gives its images; it
is read as it is.
"""

from __future__ import annotations

from .expr import Expr, TP, TP_ONE
from .linalg import InvariantViolation, clear_denominators, solve_rows


def tp_lcm(a: TP, b: TP) -> TP:
    """A common multiple of two trig polynomials.

    Exact lcm is not computable without gcd in this ring; divisibility-aware
    products (a, b, or a*b) cover every denominator family in scope.
    """
    if a.is_one():
        return b
    if b.is_one() or a == b:
        return a
    if a.divide_by(b) is not None:
        return a
    if b.divide_by(a) is not None:
        return b
    return a * b


def common_denominator(exprs) -> tuple[TP, list[TP]]:
    """(lcd, numerators) with expr_i = numerators[i] / lcd exactly."""
    lcd = TP_ONE
    for e in exprs:
        if not e.den.is_one():
            lcd = tp_lcm(lcd, e.den)
    if lcd.is_one():
        return lcd, [e.num for e in exprs]
    nums = []
    for e in exprs:
        if e.den is lcd or e.den == lcd:
            nums.append(e.num)
            continue
        q = lcd.divide_by(e.den)
        if q is None:
            raise InvariantViolation("the common denominator is not a multiple of a denominator")
        nums.append(e.num * q)
    return lcd, nums


class NotPolynomial(Exception):
    """Monomial coordinates of a rational expression: unsupported input, not
    a failed certificate, so the CLI reports it as undetermined (exit 4)."""


def poly_terms(e: Expr) -> dict:
    """{monomial: coefficient} of a polynomial expression."""
    if not e.den.is_one():
        raise NotPolynomial("monomial coordinates require polynomial components")
    return e.num.terms


def equation_rows(terms):
    """Integer rows ``{unknown: int}`` of one identity sum == 0.

    ``terms`` are (unknown, scale, term) triples standing for
    unknown * scale * term, where a term is an expression or a polynomial
    given as its ``{monomial: coefficient}`` dict; an unknown may repeat,
    and its contributions add.  Polynomial terms give their monomial
    coordinates directly; when an expression term is rational the identity
    is first cleared to a common denominator.  One row per monomial, each
    cleared of its own denominators; zero rows dropped.
    """
    terms = [t for t in terms if (t[2] if isinstance(t[2], dict) else not t[2].is_zero())]
    exprs = [e for _, _, e in terms if isinstance(e, Expr)]
    if all(e.den.is_one() for e in exprs):
        nums = [e if isinstance(e, dict) else e.num.terms for _, _, e in terms]
    else:
        ch = exprs[0].chart
        _, nums = common_denominator([e if isinstance(e, Expr) else Expr(ch, TP(e)) for _, _, e in terms])
        nums = [num.terms for num in nums]
    rows = {}
    for (k, scale, _), num in zip(terms, nums):
        for m, c in num.items():
            row = rows.setdefault(m, {})
            v = c if scale == 1 else scale * c
            if k in row:  # adding to 0 would cost a Fraction addition
                v += row[k]
            if v:
                row[k] = v
            else:
                row.pop(k, None)
    return [clear_denominators(r) for r in rows.values() if r]


def solve_linear_expr_system(columns: list[list[Expr]], rhs: list[Expr]):
    """Solve sum_k c_k * columns[k][e] = rhs[e] for every equation index e.

    Returns a sparse {unknown: Fraction} vector or None.  Each equation is
    cleared to a common denominator, then compared monomial by monomial.
    """
    nunk = len(columns)
    rows = []
    for e in range(len(rhs)):
        terms = [(k, 1, columns[k][e]) for k in range(nunk)] + [(nunk, -1, rhs[e])]
        rows.extend(equation_rows(terms))
    return solve_rows(rows, nunk)

