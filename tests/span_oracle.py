"""Reference intersections of spans, the oracles of the pivot-order readings.

The package intersects a span with a coordinate subspace by reading the
rows of one ``Echelon`` whose pivots lie past the coordinates to be
cancelled: K3's denominator with the ansatz space, and each pass of the
invariance closure with the preimage of the span.  The references here
take the older route of solving for the cancelling combinations: a kernel
of the cancelled coordinates, then a recombination.  Vectors are sparse
``{key: Fraction}`` dicts over mutually comparable keys; their residuals
are read off a plain Fraction Gauss-Jordan, with no ``Echelon``.

The store itself has a reference too: ``reference_row_reduce`` is the
Echelon insert and back-substitution as they were before they cleared in
place, each step building a new row as ``a*w - x*row``.
"""

from fractions import Fraction
from math import gcd

from lagfloor.linalg import _int_row, _primitive, add_scaled, kernel_of_rows
from lagfloor.pairs import linear_image

F = Fraction


def _recombine(combos, vectors):
    """sum_k c[k] * vectors[k], for each kernel vector c."""
    out = []
    for combo in combos.basis:
        acc = {}
        for k, c in sorted(combo.items()):
            add_scaled(acc, c, vectors[k])
        out.append(acc)
    return out


def inside_span(gens, inside):
    """Vectors spanning span(gens) intersected with the coordinate subspace
    of the keys for which ``inside`` holds: the combinations of gens whose
    other coordinates cancel, from the kernel of those coordinates' rows."""
    outside = {}
    for j, v in enumerate(gens):
        for key, x in v.items():
            if not inside(key):
                outside.setdefault(key, {})[j] = x
    combos = kernel_of_rows([_int_row(r)[1] for r in outside.values()], len(gens))
    return _recombine(combos, [{key: x for key, x in v.items() if inside(key)} for v in gens])


def _residual(v, reduced):
    """v minus the combination of the reduced rows that clears v at their
    pivots; each row is 1 at its pivot and 0 at every other pivot."""
    out = dict(v)
    for p, row in reduced.items():
        x = out.get(p)
        if x:
            add_scaled(out, -x, row)
    return out


def _reduced(vectors):
    """{pivot: row}: the reduced echelon form of the vectors over Fractions,
    each row's pivot its lowest key."""
    reduced = {}
    for v in vectors:
        w = _residual(v, reduced)
        if w:
            p = min(w)
            w = {key: x / w[p] for key, x in w.items()}
            for row in reduced.values():
                if p in row:
                    add_scaled(row, -row[p], w)
            reduced[p] = w
    return reduced


def largest_invariant_subspace(basis, unit_images):
    """Largest subspace of span(basis) closed under the operators, each
    given by its images of units, shrunk one step at a time: the residuals
    of the images modulo the span, one row per (operator, unit), and the
    kernel of those rows recombined, until no image leaves the span."""
    while basis:
        reduced = _reduced(basis)
        residual_rows = {}
        for i, unit_image in enumerate(unit_images):
            for k, b in enumerate(basis):
                for unit, x in _residual(linear_image(b, unit_image), reduced).items():
                    residual_rows.setdefault((i, unit), {})[k] = x
        if not residual_rows:
            return basis
        basis = _recombine(kernel_of_rows([_int_row(r)[1] for r in residual_rows.values()], len(basis)), basis)
    return []


def _combine(a, w, x, row):
    """a*w - x*row on ``{column: int}`` rows, as a new row, zeros dropped."""
    out = {j: a * y for j, y in w.items()} if a != 1 else dict(w)
    for j, y in row.items():
        z = out.get(j, 0) - x * y
        if z:
            out[j] = z
        else:
            del out[j]
    return out


def _step(w, row, p):
    """w cleared at p by row, as a new row."""
    a, x = row[p], w[p]
    g = gcd(a, x)
    return _combine(a // g, w, x // g, row)


def reference_insert(store, w):
    """Echelon._insert on the store {pivot: row}, one new row per step."""
    while w:
        p = min(w)
        row = store.get(p)
        if row is None:
            store[p] = _primitive(w, p)
            return p
        w = _step(w, row, p)
    return None


def reference_row_reduce(rows, ncols):
    """(store, pivots, reduced): the forward store of ``row_reduce``'s
    inserts, sparsest first, and its back-substituted result."""
    store = {}
    for r in sorted(rows, key=len):
        reference_insert(store, r)
    pivots = sorted(store)
    red = {}
    for p in reversed(pivots):
        w = store[p]
        for q in [q for q in w if q in red]:
            w = _step(w, red[q], q)
        red[p] = _primitive(w, p)
    return store, pivots, [red[p] for p in pivots]
