"""Problem files: a small TOML subset for describing algebras, charts,
actions, Lagrangians, modules and explicit double complexes.

Supported syntax: ``[section]`` and ``[section.name]`` headers, ``key =
value`` lines, ``#`` comments, and values that are strings, integers,
booleans, arrays, or inline tables.  Exact rationals are written as strings
("-1/2") or bare integers.  Files round-trip: parse -> dumps -> parse gives
an identical structure, and dumps output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import VectorFieldExpr
from .expr import Chart, Expr, parse_expr
from .liealg import StructureConstants, catalog
from .linalg import Mat
from .pairs import GMPair
from .spectral import DoubleComplex

F = Fraction


class ProblemFileError(Exception):
    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


@dataclass
class ProblemFile:
    sections: dict = field(default_factory=dict)  # name -> {key: value}

    def section(self, name, required=False):
        if name not in self.sections:
            if required:
                raise ProblemFileError(f"missing [{name}] section")
            return {}
        return self.sections[name]

    def dumps(self) -> str:
        out = []
        for name, body in self.sections.items():
            out.append(f"[{name}]")
            for key, value in body.items():
                out.append(f"{key} = {_format_value(value)}")
            out.append("")
        return "\n".join(out)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, list):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(f"{k} = {_format_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    raise ProblemFileError(f"unsupported value {v!r}")


class _ValueParser:
    def __init__(self, text, line_no):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, msg):
        raise ProblemFileError(f"{msg} in value {self.text!r}", self.line_no)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def parse(self):
        v = self.value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing characters")
        return v

    def value(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("empty value")
        ch = self.text[self.pos]
        if ch == '"':
            return self.string()
        if ch == "[":
            return self.array()
        if ch == "{":
            return self.table()
        return self.scalar()

    def string(self):
        if self.text[self.pos] != '"':
            self.error("expected a string")
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    self.error("dangling escape")
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                return "".join(out)
            out.append(ch)
            self.pos += 1
        self.error("unterminated string")

    def array(self):
        self.pos += 1
        items = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                self.error("unterminated array")
            if self.text[self.pos] == "]":
                self.pos += 1
                return items
            items.append(self.value())
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
            elif self.pos < len(self.text) and self.text[self.pos] == "]":
                continue
            else:
                self.error("expected ',' or ']'")

    def table(self):
        self.pos += 1
        out = {}
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                self.error("unterminated inline table")
            if self.text[self.pos] == "}":
                self.pos += 1
                return out
            key = []
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] in "_-"):
                key.append(self.text[self.pos])
                self.pos += 1
            self.skip_ws()
            if not key or self.pos >= len(self.text) or self.text[self.pos] != "=":
                self.error("expected key = value")
            self.pos += 1
            out["".join(key)] = self.value()
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1

    def scalar(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",]}":
            self.pos += 1
        token = self.text[start : self.pos].strip()
        if token == "true":
            return True
        if token == "false":
            return False
        try:
            return int(token)
        except ValueError:
            self.error(f"bad scalar {token!r} (strings need quotes)")


def parse_problem_file(text: str) -> ProblemFile:
    sections: dict = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFileError("malformed section header", line_no)
            name = line[1:-1].strip()
            if not name:
                raise ProblemFileError("empty section name", line_no)
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", line_no)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ProblemFileError("expected key = value", line_no)
        if current is None:
            raise ProblemFileError("key outside any section", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ProblemFileError("empty key", line_no)
        if key in sections[current]:
            raise ProblemFileError(f"duplicate key {key!r}", line_no)
        sections[current][key] = _ValueParser(value.strip(), line_no).parse()
    return ProblemFile(sections)


def load_problem_file(path) -> ProblemFile:
    with open(path) as fh:
        return parse_problem_file(fh.read())


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
    sec = pf.section("algebra", required=True)
    if "name" in sec:
        params = {k: _rat(v, "algebra.params") for k, v in sec.get("params", {}).items()}
        return catalog(sec["name"], **params)
    dim = sec.get("dim")
    basis = sec.get("basis")
    if not isinstance(dim, int) or not isinstance(basis, list) or len(basis) != dim:
        raise ProblemFileError("[algebra] needs name=..., or dim and a basis of that length")
    c: dict = {}
    for entry in sec.get("brackets", []):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ProblemFileError(f"bracket entries are [i, j, k, coeff]: {entry!r}")
        i, j, k, coeff = entry
        if not all(isinstance(x, int) and 1 <= x <= dim for x in (i, j, k)):
            raise ProblemFileError(f"bracket indices are 1-based: {entry!r}")
        if i == j:
            raise ProblemFileError(f"bracket [e_i, e_i] is zero: {entry!r}")
        coeff = _rat(coeff, "brackets")
        if i < j:
            c.setdefault((i - 1, j - 1), {})[k - 1] = coeff
        else:
            c.setdefault((j - 1, i - 1), {})[k - 1] = -coeff
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
    return point


def build_pair(pf: ProblemFile) -> GMPair:
    algebra = build_algebra(pf)
    chart = build_chart(pf)
    sec = pf.section("action", required=True)
    fields = []
    transitive = bool(sec.get("transitive", False))
    for name in algebra.basis_names:
        comps = sec.get(name)
        if comps is None:
            raise ProblemFileError(f"[action] missing components for generator {name!r}")
        if not (isinstance(comps, list) and len(comps) == len(chart.names)):
            raise ProblemFileError(f"[action] {name}: need one expression per coordinate")
        exprs = tuple(parse_expr(chart, c) for c in comps)
        try:
            fields.append(VectorFieldExpr(chart, exprs))
        except ValueError as exc:
            raise ProblemFileError(f"[action] {name}: {exc}") from None
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
    return GMPair(algebra, chart, tuple(fields), transitive, sections, tuple(points))


def build_lagrangian(pf: ProblemFile, set_params=None) -> Expr:
    chart = build_chart(pf)
    sec = pf.section("lagrangian", required=True)
    text = sec.get("expr")
    if not isinstance(text, str):
        raise ProblemFileError("[lagrangian] needs expr = \"...\"")
    declared = sec.get("params", [])
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
    from .cecohom import GModule

    sec = pf.section(f"module.{name}", required=True)
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
