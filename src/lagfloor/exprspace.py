"""Coordinate views of finite families of expressions.

Several solvers (potential finding, invariant functions, cocycle spaces,
module closures) reduce "these expressions must vanish / be dependent" to
exact linear algebra: bring everything over a common denominator, read off
monomial coordinates of the numerators, and hand the rows to ``linalg``.
"""

from __future__ import annotations

from .expr import Expr, TP, TP_ONE
from .linalg import Echelon, InvariantViolation, Subspace, kernel_of_rows, solve_rows, span_coordinates


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
        assert q is not None, "lcd construction guarantees divisibility"
        nums.append(e.num * q)
    return lcd, nums


class MonoIndex:
    """Growing monomial -> column index map with deterministic ordering."""

    def __init__(self):
        self.index = {}
        self.monos = []

    def key(self, mono):
        if mono not in self.index:
            self.index[mono] = len(self.monos)
            self.monos.append(mono)
        return self.index[mono]

    def __len__(self):
        return len(self.monos)


def poly_terms(e: Expr) -> dict:
    """{monomial: coefficient} of a polynomial expression."""
    if not e.den.is_one():
        raise InvariantViolation("monomial coordinates require polynomial components")
    return e.num.terms


def add_scaled(acc: dict, c, terms: dict):
    """acc += c * terms on sparse {key: coefficient} dicts, zeros dropped."""
    for k, x in terms.items():
        v = acc.get(k, 0) + c * x
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def equation_rows(terms):
    """Sparse rows ``{unknown: coefficient}`` of one identity sum == 0.

    ``terms`` are (unknown, scale, expression) triples standing for
    unknown * scale * expression; an unknown may repeat, and its
    contributions add.  Polynomial terms give their monomial coordinates
    directly; otherwise the identity is first cleared to a common
    denominator.  One row per monomial, zero rows dropped.
    """
    terms = [t for t in terms if not t[2].is_zero()]
    if all(e.den.is_one() for _, _, e in terms):
        nums = [e.num for _, _, e in terms]
    else:
        _, nums = common_denominator([e for _, _, e in terms])
    rows = {}
    for (k, scale, _), num in zip(terms, nums):
        for m, c in num.terms.items():
            row = rows.setdefault(m, {})
            v = row.get(k, 0) + (c if scale == 1 else scale * c)
            if v:
                row[k] = v
            else:
                row.pop(k, None)
    return [r for r in rows.values() if r]


def kernel_of_expr_system(columns: list[list[Expr]]) -> Subspace:
    """All (c_k) with sum_k c_k columns[k][e] = 0 identically for every e."""
    nunk = len(columns)
    rows = []
    for e in range(len(columns[0]) if columns else 0):
        rows.extend(equation_rows((k, 1, columns[k][e]) for k in range(nunk)))
    return kernel_of_rows(rows, nunk)


def solve_linear_expr_system(columns: list[list[Expr]], rhs: list[Expr]):
    """Solve sum_k c_k * columns[k][e] = rhs[e] for every equation index e.

    Returns a tuple of Fractions or None.  Each equation is cleared to a
    common denominator, then compared monomial by monomial.
    """
    nunk = len(columns)
    rows = []
    for e in range(len(rhs)):
        terms = [(k, 1, columns[k][e]) for k in range(nunk)] + [(nunk, -1, rhs[e])]
        rows.extend(equation_rows(terms))
    return solve_rows(rows, nunk)


class ExprSpan:
    """Incremental linearly independent span of velocity-free expressions.

    Keeps a ``linalg.Echelon`` over a growing monomial space, with all
    members held over a running common denominator.  Insertion order is part
    of the contract: callers rely on deterministic bases.
    """

    def __init__(self, chart):
        self.chart = chart
        self.lcd = TP_ONE
        self.members: list[Expr] = []
        self._member_coords: list[dict] = []  # over self.lcd, in self.midx columns
        self.midx = MonoIndex()
        self._echelon = Echelon()

    def _coords(self, e: Expr):
        lcd = tp_lcm(self.lcd, e.den)
        if lcd != self.lcd:
            self.lcd = lcd
            self._rebuild()
        q = self.lcd.divide_by(e.den)
        num = e.num * q
        v = {}
        for m, c in num.terms.items():
            v[self.midx.key(m)] = c
        return v

    def _rebuild(self):
        members = self.members
        self.members = []
        self._member_coords = []
        self._echelon = Echelon()
        self.midx = MonoIndex()
        for m in members:
            if not self.insert(m):
                raise InvariantViolation("previously independent members must stay independent")

    def insert(self, e: Expr) -> bool:
        """Add e when it is independent of the members; returns whether it was."""
        if e.is_zero():
            return False
        v = self._coords(e)
        if not self._echelon.insert(v):
            return False
        self.members.append(e)
        self._member_coords.append(v)
        return True

    def coordinates_in_members(self, e: Expr):
        """Coefficients expressing e in the inserted members, or None."""
        # e's coordinates first: a new denominator re-expresses the members
        target = self._coords(e)
        return span_coordinates(self._member_coords, target)

    @property
    def dim(self):
        return len(self.members)
