"""Problem files: TOML 1.0 documents describing algebras, charts, actions,
Lagrangians, modules and explicit double complexes.

Files are read by the standard library's ``tomllib``.  Every key sits in a
``[section]``; ``[module.NAME]`` is the table ``NAME`` of section ``module``.
Values are strings, integers, booleans, arrays and tables.  Exact rationals
are written as strings ("-1/2") or integers; floats and dates are rejected,
so no inexact number is ever built.  A section that no builder reads, and
a key that [algebra], [action] or [options] does not know, are rejected
too.
"""

from __future__ import annotations

import sys
import tomllib
from fractions import Fraction

from .cecohom import GModule
from .expr import Chart, Expr, parse_expr
from .liealg import StructureConstants, catalog
from .linalg import Mat
from .pairs import GMPair
from .spectral import MAX_COMPLEX_CELLS, ComplexTooLarge, DoubleComplex

F = Fraction


# the sections the builders read; any other is a misspelling, not a comment
SECTIONS = ("algebra", "chart", "action", "lagrangian", "options", "points", "stability_sections", "module",
            "double_complex")


class ProblemFileError(Exception):
    """Malformed or unreadable input: the CLI reports it as a parse error (exit 2)."""


class NotPolynomial(Exception):
    """A rational vector field component: unsupported input, not a failed
    certificate, so the CLI reports it as undetermined (exit 4)."""


class ProblemFile:
    __slots__ = ("sections",)

    def __init__(self, sections: dict):
        self.sections = sections  # name -> {key: value}

    def section(self, name, required=False, keys=None):
        """The table of [name], {} when it is absent and not required; with
        ``keys``, a key outside them is a parse error."""
        if name not in self.sections:
            if required:
                raise ProblemFileError(f"missing [{name}] section")
            return {}
        for key in self.sections[name]:
            if keys is not None and key not in keys:
                raise ProblemFileError(f"[{name}] unknown key {key!r}")
        return self.sections[name]


def _reject_float(text):
    raise ProblemFileError(f"float {text} is not exact; write rationals as strings (\"1/2\") or integers")


def _check_values(value, where):
    """Reject the TOML values a problem file has no use for: dates and times."""
    if isinstance(value, dict):
        for key, v in value.items():
            _check_values(v, f"{where}.{key}")
    elif isinstance(value, list):
        for v in value:
            _check_values(v, where)
    elif not isinstance(value, (str, int)):
        raise ProblemFileError(f"{where}: {value} is a date or time; values are strings, integers, booleans, arrays or tables")


def parse_problem_file(text: str) -> ProblemFile:
    try:
        sections = tomllib.loads(text, parse_float=_reject_float)
    except tomllib.TOMLDecodeError as exc:
        raise ProblemFileError(str(exc)) from None
    except ValueError:  # the interpreter's limit on integer string conversion
        raise ProblemFileError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ProblemFileError("values nested too deeply") from None
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise ProblemFileError(f"key {name!r} is outside any [section]")
        if name not in SECTIONS:
            raise ProblemFileError(f"unknown section [{name}]")
        _check_values(body, name)
    return ProblemFile(sections)


def load_problem_file(path) -> ProblemFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_problem_file(text)


# ---------------------------------------------------------------------------
# building domain objects
# ---------------------------------------------------------------------------

def _rat(v, where):
    if isinstance(v, int):
        return F(v)
    if isinstance(v, str):
        try:
            return F(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ProblemFileError(f"{where}: expected a rational, got {v!r}")


def build_algebra(pf: ProblemFile) -> StructureConstants:
    sec = pf.section("algebra", required=True, keys=("name", "params", "dim", "basis", "brackets"))
    if "name" in sec:
        params = sec.get("params", {})
        if not isinstance(params, dict):
            raise ProblemFileError("[algebra] params must be a table, e.g. {n = 2}")
        params = {k: _rat(v, "algebra.params") for k, v in params.items()}
        return catalog(sec["name"], **params)
    dim = sec.get("dim")
    basis = sec.get("basis")
    if not (isinstance(dim, int) and isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis)):
        raise ProblemFileError("[algebra] needs name=..., or dim and a basis of that many names")
    if dim < 1:
        raise ProblemFileError("[algebra] needs dim >= 1")
    c: dict = {}
    for entry in sec.get("brackets", []):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ProblemFileError(f"bracket entries are [i, j, k, coeff]: {entry!r}")
        i, j, k, coeff = entry
        if not all(isinstance(x, int) and 1 <= x <= dim for x in (i, j, k)):
            raise ProblemFileError(f"bracket indices are 1-based: {entry!r}")
        if i == j:
            raise ProblemFileError(f"bracket [e_i, e_i] is zero: {entry!r}")
        comps = c.setdefault((min(i, j) - 1, max(i, j) - 1), {})
        if k - 1 in comps:
            raise ProblemFileError(f"bracket [e_i, e_j] gives its e_k component twice: {entry!r}")
        coeff = _rat(coeff, "brackets")
        comps[k - 1] = coeff if i < j else -coeff
    return StructureConstants(dim, tuple(basis), c)


def build_chart(pf: ProblemFile) -> Chart:
    sec = pf.section("chart", required=True)
    coords = sec.get("coords")
    if not isinstance(coords, list):
        raise ProblemFileError("[chart] needs coords = [[name, kind], ...]")
    out = []
    for entry in coords:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ProblemFileError(f"chart coords entries are [name, kind]: {entry!r}")
        out.append((entry[0], entry[1]))
    try:
        return Chart(tuple(out))
    except ValueError as exc:
        raise ProblemFileError(f"[chart] {exc}") from None


def _parse_point(chart, table, where):
    point = {}
    for name, value in table.items():
        if name not in chart.names:
            raise ProblemFileError(f"{where}: unknown coordinate {name!r}")
        if chart.kind(name) == "angle":
            if not (isinstance(value, list) and len(value) == 2):
                raise ProblemFileError(f"{where}: angle values are [sin, cos]")
            s, c = _rat(value[0], where), _rat(value[1], where)
            if s * s + c * c != 1:
                raise ProblemFileError(f"{where}: angle point not on the unit circle")
            point[name] = (s, c)
        else:
            point[name] = _rat(value, where)
    for name in chart.names:
        if name not in point:
            raise ProblemFileError(f"{where}: missing coordinate {name!r}")
    return point


def build_pair(pf: ProblemFile) -> GMPair:
    algebra = build_algebra(pf)
    chart = build_chart(pf)
    sec = pf.section("action", required=True, keys=(*algebra.basis_names, "transitive"))
    parsed = []
    transitive = sec.get("transitive", False)
    if not isinstance(transitive, bool):
        raise ProblemFileError(f"[action] transitive must be true or false, got {transitive!r}")
    for name in algebra.basis_names:
        comps = sec.get(name)
        if comps is None:
            raise ProblemFileError(f"[action] missing components for generator {name!r}")
        if not (isinstance(comps, list) and len(comps) == len(chart.names)):
            raise ProblemFileError(f"[action] {name}: need one expression per coordinate")
        exprs = tuple(parse_expr(chart, c) for c in comps)
        if not all(e.is_velocity_free() for e in exprs):
            raise ProblemFileError(f"[action] {name}: components must be velocity-free")
        parsed.append(exprs)
    # the one conversion of the fields to trig polynomials, for every command
    if any(not e.den.is_one() for exprs in parsed for e in exprs):
        raise NotPolynomial("monomial coordinates require polynomial components")
    fields = tuple(tuple(e.num for e in exprs) for exprs in parsed)
    sections = None
    sec_s = pf.section("stability_sections")
    if sec_s:
        sections = []
        for key, comps in sec_s.items():
            if not (isinstance(comps, list) and len(comps) == algebra.dim):
                raise ProblemFileError("[stability_sections]: one expression per generator")
            section = tuple(parse_expr(chart, c) for c in comps)
            if not all(c.is_velocity_free() for c in section):
                raise ProblemFileError(f"[stability_sections] {key}: components must be velocity-free")
            sections.append(section)
        sections = tuple(sections)
    points = []
    for key, table in pf.section("points").items():
        if not isinstance(table, dict):
            raise ProblemFileError(f"[points] {key}: expected an inline table")
        points.append(_parse_point(chart, table, f"points.{key}"))
    return GMPair(algebra, chart, fields, transitive, sections, tuple(points))


def build_lagrangian(pf: ProblemFile, set_params=None) -> Expr:
    chart = build_chart(pf)
    sec = pf.section("lagrangian", required=True)
    text = sec.get("expr")
    if not isinstance(text, str):
        raise ProblemFileError("[lagrangian] needs expr = \"...\"")
    declared = sec.get("params", [])
    if not (isinstance(declared, list) and all(isinstance(n, str) and n.isidentifier() for n in declared)):
        raise ProblemFileError("[lagrangian] params must be a list of names")
    # the parser reads a parameter before any other meaning of its name
    for name in declared:
        if name in chart.symbols:
            raise ProblemFileError(f"[lagrangian] parameter {name!r} is a coordinate, velocity, acceleration or tau")
    params = {}
    for name in declared:
        if set_params is None or name not in set_params:
            raise ProblemFileError(f"parameter {name!r} needs a value (--set {name}=...)")
        params[name] = set_params[name]
    extra = set(set_params or ()) - set(declared)
    if extra:
        raise ProblemFileError(f"--set names not declared in [lagrangian]: {sorted(extra)}")
    lagrangian = parse_expr(chart, text, params=params)
    if lagrangian.has_accelerations():
        raise ProblemFileError("[lagrangian] expr must not depend on accelerations (rank-1 Lagrangians only)")
    return lagrangian


def build_module(pf: ProblemFile, name: str, algebra: StructureConstants):
    sec = pf.section("module").get(name)
    if not isinstance(sec, dict):
        raise ProblemFileError(f"missing [module.{name}] section")
    dim = sec.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise ProblemFileError(f"[module.{name}] needs dim >= 1")
    mats = []
    for gen in algebra.basis_names:
        rows = sec.get(gen)
        if rows is None:
            raise ProblemFileError(f"[module.{name}] missing action matrix for {gen!r}")
        mats.append(_matrix(rows, dim, dim, f"[module.{name}] {gen}"))
    return GModule(dim, algebra, tuple(mats))


def _matrix(rows, nrows, ncols, where) -> Mat:
    """Mat of a list of nrows rows, each a list of ncols rationals."""
    if not (isinstance(rows, list) and len(rows) == nrows):
        got = len(rows) if isinstance(rows, list) else repr(rows)
        raise ProblemFileError(f"{where}: expected {nrows} rows, got {got}")
    for row in rows:
        if not (isinstance(row, list) and len(row) == ncols):
            raise ProblemFileError(f"{where}: expected rows of {ncols} entries, got {row!r}")
    return Mat.from_rows([[_rat(x, where) for x in row] for row in rows], ncols)


def build_double_complex(pf: ProblemFile) -> DoubleComplex:
    sec = pf.section("double_complex", required=True)
    grid = sec.get("dims")
    shape_ok = isinstance(grid, list) and grid and all(isinstance(col, list) and col for col in grid)
    if not shape_ok or any(len(col) != len(grid[0]) for col in grid):
        raise ProblemFileError("[double_complex] needs dims = [[...], ...] (dims[p][q]), a non-empty rectangular grid")
    if not all(type(x) is int and x >= 0 for col in grid for x in col):
        raise ProblemFileError("[double_complex] dims entries must be non-negative integers")
    cells_needed = sum(map(sum, grid))
    if cells_needed > MAX_COMPLEX_CELLS:
        raise ComplexTooLarge("double complex", cells_needed)
    width, height = len(grid), len(grid[0])
    d1, d2 = {}, {}
    for key, value in sec.items():
        if key in ("dims",):
            continue
        kind, _, rest = key.partition("_")
        if kind not in ("d1", "d2"):
            raise ProblemFileError(f"[double_complex] unknown key {key!r}")
        try:
            p, q = (int(x) for x in rest.split("_"))
        except ValueError:
            raise ProblemFileError(f"[double_complex] keys look like d1_p_q: {key!r}")
        if not (0 <= p < width and 0 <= q < height):
            raise ProblemFileError(f"[double_complex] {key}: cell ({p},{q}) is outside the {width}x{height} dims grid")
        tp, tq = (p, q + 1) if kind == "d1" else (p + 1, q)
        want_rows = grid[tp][tq] if tp < width and tq < height else 0
        # an empty list is the zero map
        mat = _matrix(value, want_rows, grid[p][q], key) if value != [] else Mat.zero(want_rows, grid[p][q])
        (d1 if kind == "d1" else d2)[(p, q)] = mat
    return DoubleComplex(grid, d1, d2)
