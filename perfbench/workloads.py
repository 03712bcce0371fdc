"""The three workloads: inputs drawn from a seed, one op at a time, oracles.

Each workload builds a *pass*, a fixed list of ops made from the seed before
any timing.  ``run_op`` executes one op through lagfloor's public functions
and returns its result; ``result_text`` renders that result canonically, for
comparing traced with untraced runs; ``check_op`` judges it with an oracle
that does not come from lagfloor.

lagfloor is reached through module attributes at call time
(``hierarchy.classify``), so that spans installed after import see every
call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = "src/lagfloor/fixtures/"
GOLDEN = BENCH_DIR / "golden" / "fixtures_cli.json"
OP_TIMEOUT_S = 170


def nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randint(1, 5))


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def child_env(pure: bool = False) -> dict:
    """Environment of every process the benchmark starts.

    ``pure`` forces lagfloor's pure-Python row-reduction kernel, which the
    span recorder can wrap; a worker's own children inherit the setting.
    """
    env = dict(os.environ)
    if pure:
        env["LAGFLOOR_PURE"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order is part of what is counted
    return env


def output_digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# closed forms shared by the fixture and stream oracles
# ---------------------------------------------------------------------------

def _rational_eval(text: str, point: dict) -> Fraction:
    """Value of a rational expression at a point, in exact arithmetic."""
    code = re.sub(r"\b(\d+)\b", r"F(\1)", text.replace("^", "**"))
    return eval(code, {"__builtins__": {}, "F": Fraction}, point)  # noqa: S307 - our own strings


def same_expression(got: str, expected: str) -> bool:
    """Equality of two rational functions, checked at three random rational points.

    Two different rational functions of low degree agree at a random rational
    point with negligible probability (Schwartz-Zippel), so the check is an
    oracle independent of lagfloor's own simplifier.
    """
    rng = random.Random(got + "|" + expected)
    names = set(re.findall(r"[A-Za-z_]\w*", got + " " + expected)) - {"F"}
    for _ in range(3):
        point = {n: Fraction(rng.randint(1, 97), rng.randint(1, 13)) for n in names}
        try:
            if _rational_eval(got, point) != _rational_eval(expected, point):
                return False
        except (SyntaxError, NameError, TypeError, ZeroDivisionError):
            return False
    return True


def galilean_charges(m: Fraction) -> list[str]:
    """Free particle m|dx|^2/(2 dt) in parametrized time: p0, p_i, B_i, L_i."""
    m = f"({frac_str(m)})"
    xs = ("x1", "x2", "x3")
    out = [f"-{m}*(dx1**2 + dx2**2 + dx3**2)/(2*dt**2)"]
    out += [f"{m}*d{x}/dt" for x in xs]
    out += [f"{m}*(d{x}*t - dt*{x})/dt" for x in xs]
    out += [f"{m}*(d{b}*{c} - d{c}*{b})/dt" for b, c in (("x2", "x3"), ("x3", "x1"), ("x1", "x2"))]
    return out


def translation_charges(m, B: dict, E: list) -> list[str]:
    """Translations with constant magnetic B_ij and electric E_i.

    L = m|dq|^2/2 + sum_{i<j} B_ij (q_i dq_j - q_j dq_i) + E.q gives
    N_k = m dq_k + 2 sum_j B_jk q_j - E_k tau, with B antisymmetric.
    """
    n = len(E)

    def b(i, j):
        if i < j:
            return B.get((i, j), 0)
        return -B.get((j, i), 0) if i > j else 0

    out = []
    for k in range(n):
        terms = [f"({frac_str(Fraction(m))})*dq{k + 1}", f"-({frac_str(Fraction(E[k]))})*tau"]
        terms += [f"2*({frac_str(Fraction(b(j, k)))})*q{j + 1}" for j in range(n) if j != k]
        out.append(" + ".join(terms))
    return out


# ---------------------------------------------------------------------------
# fixtures_cli
# ---------------------------------------------------------------------------

# (command, fixture, extra arguments, parameters drawn by the seed)
FIXTURE_COMMANDS = (
    ("check-algebra", "galilean_r4", (), ()),
    ("check-pair", "galilean_r4", (), ()),
    ("cohomology", "galilean_r4", (), ()),
    ("k-spaces", "l3_cylinder", (), ()),
    ("k-spaces", "translations_r3", (), ()),
    ("k-spaces", "so3_sphere", (), ()),
    ("k-spaces", "galilean_r4", (), ()),
    ("k-spaces", "poincare_c1", (), ()),
    ("classify", "l3_cylinder", (), ("a", "b", "c", "d", "q")),
    ("classify", "so3_sphere", (), ("m", "g")),
    ("classify", "galilean_r4", (), ("m",)),
    ("classify", "translations_r2", (), ("m", "B", "E1", "E2")),
    ("noether", "translations_r2", (), ("m", "B", "E1", "E2")),
    ("noether", "galilean_r4", (), ("m",)),
    ("spectral", "spectral_example", (), ()),
    ("spectral", "l3_cylinder", ("--from-pair",), ()),
)

# Hand-derived answers (see NOTES.md for the derivations).
K_DIMS = {
    "l3_cylinder": (2, 2, 2, 0, 1),
    "translations_r3": (3, 0, 3, 0, 0),
    "so3_sphere": (0, 0, 0, 1, 0),
    "galilean_r4": (1, 0, 1, 0, 0),
    "poincare_c1": (0, 0, 0, 0, 0),
}


def command_key(cmd, fixture, extra) -> str:
    return " ".join((cmd, fixture) + tuple(extra))


def command_argv(cmd, fixture, extra, set_str) -> list[str]:
    argv = ["--format", "machine", cmd, f"{FIXTURES}{fixture}.toml", *extra]
    if set_str:
        argv += ["--set", set_str]
    return argv


def parse_set(set_str: str) -> dict:
    out = {}
    for item in set_str.split(","):
        name, _, value = item.partition("=")
        out[name] = Fraction(value)
    return out


def parse_machine(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def fixture_oracle(cmd, fixture, set_str, exit_code, text) -> list[str]:
    """Problems with one command's output, against hand-derived answers."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = parse_machine(text)
    want: dict[str, str] = {}
    if cmd == "check-algebra":
        want = {"dim": "10", "jacobi": "ok"}
    elif cmd == "check-pair":
        want = {"brackets": "ok"}
    elif cmd == "cohomology":
        want = {"dim_h1": "1", "dim_h2": "1"}  # p0 survives abelianization; the mass cocycle
    elif cmd == "k-spaces":
        want = {f"k{i}": str(d) for i, d in enumerate(K_DIMS[fixture])}
    elif cmd == "classify":
        v = parse_set(set_str)
        if fixture == "l3_cylinder":  # every parameter is nonzero: b, q force floor 0; c, d the sign
            want = {"floor": "0", "sign": "-"}
        elif fixture == "so3_sphere":
            want = {"floor": "2", "sign": "+", "k3_certificate": frac_str(-v["g"])}
        elif fixture == "galilean_r4":
            want = {"floor": "1", "sign": "+"}
        elif fixture == "translations_r2":
            want = {"floor": "1", "sign": "-"}
        want["status"] = "classified"
    elif cmd == "noether":
        v = parse_set(set_str)
        if fixture == "galilean_r4":
            names, expected = ["p0", "p1", "p2", "p3", "B1", "B2", "B3", "L1", "L2", "L3"], galilean_charges(v["m"])
        else:
            names, expected = ["e1", "e2"], translation_charges(v["m"], {(0, 1): v["B"]}, [v["E1"], v["E2"]])
        want = {"status": "ok"}
        for name, exp in zip(names, expected):
            got = out.get(f"N_{name}")
            if got is None or not same_expression(got, exp):
                return [f"N_{name} = {got}, expected {exp}"]
    elif cmd == "spectral":
        want = {"valid": "ok", "abutment": "ok"}
        if fixture == "spectral_example":  # a zig-zag of isomorphisms: the total complex is acyclic
            want.update({f"total_h{m}": "0" for m in range(4)})
            want.update({f"einf_p{p}": "0 0" for p in range(3)})
    return [f"{k} = {out.get(k)}, expected {v}" for k, v in want.items() if out.get(k) != v]


class FixturesCli:
    """The shipped-fixture commands, each in a fresh interpreter."""

    name = "fixtures_cli"
    in_child = True  # each op is its own process

    def __init__(self, seed: int, limit: int | None = None):
        with open(GOLDEN) as fh:
            golden = json.load(fh)["commands"]
        rng = random.Random(f"fixtures_cli:{seed}")
        self.ops = []
        for cmd, fixture, extra, params in FIXTURE_COMMANDS:
            pool = golden[command_key(cmd, fixture, extra)]
            entry = rng.choice(pool) if params else pool[0]
            self.ops.append({"cmd": cmd, "fixture": fixture, "extra": list(extra), **entry})
        if limit is not None:
            self.ops = self.ops[:limit]

        # validate every input file before timing starts
        import lagfloor.problemfile as problemfile

        for op in self.ops:
            problemfile.load_problem_file(str(ROOT / FIXTURES / f"{op['fixture']}.toml"))

    def fixed_ops(self):
        return self.ops

    @staticmethod
    def run_op(op, trace_prefix=None, speed_path=None) -> tuple[int, str]:
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        if trace_prefix:
            argv += ["--trace", trace_prefix]
        if speed_path:
            argv += ["--speed", str(speed_path)]
        argv += ["--", *command_argv(op["cmd"], op["fixture"], op["extra"], op["set"])]
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode()

    def check_op(self, op, result) -> list[str]:
        code, text = result
        problems = fixture_oracle(op["cmd"], op["fixture"], op["set"], code, text)
        if code != op["exit"]:
            problems.append(f"exit {code}, the seed commit gave {op['exit']}")
        if hashlib.sha256(text.encode()).hexdigest() != op["sha256"]:
            problems.append("machine output differs from the seed commit's")
        return problems

    @staticmethod
    def result_text(result) -> str:
        return f"exit={result[0]}\n{result[1]}"


# ---------------------------------------------------------------------------
# classify_stream
# ---------------------------------------------------------------------------

FAMILY_FIXTURES = {"l3": "l3_cylinder", "tr3": "translations_r3", "gal": "galilean_r4", "sph": "so3_sphere"}

# One block of the stream.  Fixed case counts keep the latency mix, and so
# the median and the p90, the same from seed to seed; the seed draws the
# order and every value.  A quarter of the ops are fast (floor 0/1 exits),
# a fifth are the slow so3_sphere monopoles, so the p50 and the p90 each sit
# inside one group rather than on a boundary between two.
STREAM_BLOCK = (
    [("l3", "floor0")] * 3 + [("l3", "floor3")] * 3 + [("l3", "floor4")] * 2
    + [("tr3", "magnetic")] * 2 + [("tr3", "free")] * 2
    + [("gal", "particle")] * 3
    + [("sph", "monopole")] * 4 + [("sph", "neutral")]
)
STREAM_BLOCKS = 5
TRACED_BLOCKS = 2
# Fixed, not drawn from the seed, so that set-up does the same work every run.
WARMUP_OPS = (
    ("l3", "floor4", {"a": 0, "b": 0, "c": 1, "d": 0, "q": 0}),
    ("tr3", "free", {"m": 1, "B1": 0, "B2": 0, "B3": 0, "E1": 1, "E2": 0, "E3": 0}),
    ("gal", "particle", {"m": 1}),
    ("sph", "monopole", {"m": 1, "g": 1}),
)


def draw_case(rng: random.Random, family: str, case: str) -> dict:
    def maybe():
        return nonzero_rational(rng) if rng.random() < 0.5 else Fraction(0)

    if family == "l3":
        v = {"a": maybe(), "b": Fraction(0), "c": maybe(), "d": maybe(), "q": Fraction(0)}
        if case == "floor0":
            for p in rng.choice((("b",), ("q",), ("b", "q"))):
                v[p] = nonzero_rational(rng)
        elif case == "floor3":
            v["a"] = nonzero_rational(rng)
        else:
            v["a"] = Fraction(0)
        return v
    if family == "tr3":
        v = {"m": nonzero_rational(rng)}
        magnetic = rng.randrange(1, 8) if case == "magnetic" else 0  # bit i: B_{i+1} != 0
        for i in range(3):
            v[f"B{i + 1}"] = nonzero_rational(rng) if magnetic >> i & 1 else Fraction(0)
        for i in range(3):
            v[f"E{i + 1}"] = maybe()
        return v
    if family == "gal":
        return {"m": nonzero_rational(rng)}
    return {"m": nonzero_rational(rng), "g": nonzero_rational(rng) if case == "monopole" else Fraction(0)}


def stream_expectation(family: str, v: dict) -> dict:
    """Closed-form floor and sign, plus the stage data each family pins down."""
    if family == "l3":
        floor = 0 if (v["b"] or v["q"]) else 3 if v["a"] else 4
        return {"floor": floor, "sign": "-" if (v["c"] or v["d"]) else "+"}
    if family == "tr3":
        floor = 1 if any(v[f"B{i}"] for i in (1, 2, 3)) else 4
        return {"floor": floor, "sign": "-" if any(v[f"E{i}"] for i in (1, 2, 3)) else "+"}
    if family == "gal":
        return {"floor": 1, "sign": "+", "f2": {f"{i},{i + 3}": frac_str(v["m"]) for i in (1, 2, 3)}}
    if v["g"]:
        return {"floor": 2, "sign": "+", "cert": [frac_str(-v["g"])]}
    return {"floor": 4, "sign": "+"}


class ClassifyStream:
    """One warm process: classify (+ noether when phi_1 = 0) over four families."""

    name = "classify_stream"
    in_child = False

    def __init__(self, seed: int, limit: int | None = None):
        import lagfloor.hierarchy as hierarchy
        import lagfloor.problemfile as problemfile

        self.hierarchy, self.problemfile = hierarchy, problemfile
        rng = random.Random(f"classify_stream:{seed}")
        self.families = {}
        for fam, fixture in FAMILY_FIXTURES.items():
            pf = problemfile.load_problem_file(str(ROOT / FIXTURES / f"{fixture}.toml"))
            o = pf.section("options")
            opts = hierarchy.ClassifyOptions(degree=o["degree"], fourier=o["fourier"], closure_cap=o["closure_cap"])
            self.families[fam] = (pf, problemfile.build_pair(pf), opts)
        self.ops = []
        for _ in range(STREAM_BLOCKS):
            block = list(STREAM_BLOCK)
            rng.shuffle(block)
            self.ops += [{"family": f, "case": c, "values": draw_case(rng, f, c)} for f, c in block]
        if limit is not None:
            self.ops = self.ops[:limit]
        # one untimed op per family: lazy set-up and per-pair caches fill here
        for fam, case, values in WARMUP_OPS:
            self.run_op({"family": fam, "case": case, "values": {k: Fraction(v) for k, v in values.items()}})

    def fixed_ops(self):
        return self.ops[: TRACED_BLOCKS * len(STREAM_BLOCK)]

    def run_op(self, op, trace_prefix=None, speed_path=None):
        import lagfloor.expr as expr

        pf, pair, opts = self.families[op["family"]]
        L = self.problemfile.build_lagrangian(pf, op["values"])
        r = self.hierarchy.classify(pair, L, opts)
        out = {"status": r.status, "floor": r.floor, "sign": r.sign}
        if r.witnesses.f2 is not None:
            out["f2"] = {f"{i},{j}": frac_str(c) for (i, j), c in sorted(r.witnesses.f2.items()) if c}
        if r.k3_class is not None and r.k3_class.status == "nonzero":
            out["cert"] = [frac_str(c) for c in r.k3_class.data["values"].values()]
        if r.k1_class is not None and r.k1_class.is_zero():
            out["charges"] = [expr.to_string(n) for n in self.hierarchy.noether_charges(pair, L, r)]
        return out

    def check_op(self, op, out) -> list[str]:
        v = op["values"]
        want = stream_expectation(op["family"], v)
        problems = [f"{k} = {out.get(k)}, expected {w}" for k, w in want.items() if out.get(k) != w]
        if out["status"] != "classified":
            problems.append(f"status {out['status']}")
        has_charges = out.get("charges") is not None
        if has_charges != (want["floor"] >= 1):
            problems.append("noether charges expected exactly when phi_1 = 0")
        if has_charges and op["family"] in ("gal", "tr3"):
            if op["family"] == "gal":
                expected = galilean_charges(v["m"])
            else:
                B = {(0, 1): v["B3"], (1, 2): v["B1"], (0, 2): -v["B2"]}
                expected = translation_charges(v["m"], B, [v["E1"], v["E2"], v["E3"]])
            for got, exp in zip(out["charges"], expected):
                if not same_expression(got, exp):
                    problems.append(f"charge {got}, expected {exp}")
        return problems

    @staticmethod
    def result_text(out) -> str:
        return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# linalg_spectral
# ---------------------------------------------------------------------------

COMPLEXES = 16
COMPLEX_REPEATS = 5
COMPLEX_SHAPE = {"width": 4, "height": 4, "maxdim": 10}
# Complexes are kept only when the summed size of their differential blocks
# falls in this band (the draw's mean is about 580).  Op cost grows with
# that size, so the band keeps a pass's cost from swinging with the seed.
BLOCK_CELLS_BAND = (550, 620)
CE_CASES = tuple((name, params, q) for name, params in (("galilean", {}), ("poincare", {"c": 1})) for q in range(3, 7))
# The CE cases do not depend on the seed.  Twice each, the 12 at degrees 4-6
# are the slowest ops of a pass (0.35-0.6 s against about 0.15 s for the
# slowest complex), and the p90 of 96 ops falls among the four degree-4 ops
# instead of on the slowest complex the seed happened to draw.
CE_REPEATS = 2


def block_cells(dims) -> int:
    """Sum of rows x cols over every d1 and d2 block of a dims grid."""
    w, h = len(dims), len(dims[0])
    vertical = sum(dims[p][q] * dims[p][q + 1] for p in range(w) for q in range(h - 1))
    horizontal = sum(dims[p][q] * dims[p + 1][q] for p in range(w - 1) for q in range(h))
    return vertical + horizontal


def predicted_dims(seed: int) -> list:
    """The dims grid random_double_complex draws first, for a given width and height.

    Used only to skip seeds outside the size band before paying for
    generation; the generated complex's own dims are what the ops use.
    """
    rng = random.Random(seed)
    return [[rng.randint(0, COMPLEX_SHAPE["maxdim"]) for _ in range(COMPLEX_SHAPE["height"])]
            for _ in range(COMPLEX_SHAPE["width"])]


class LinalgSpectral:
    """Random double complexes through every page, plus large CE cohomology."""

    name = "linalg_spectral"
    in_child = False

    def __init__(self, seed: int, limit: int | None = None):
        import lagfloor.cecohom as cecohom
        import lagfloor.liealg as liealg
        import lagfloor.spectral as spectral

        self.cecohom, self.spectral = cecohom, spectral
        rng = random.Random(f"linalg_spectral:{seed}")
        self.complexes = []
        while len(self.complexes) < COMPLEXES:
            dc_seed = rng.getrandbits(32)
            lo, hi = BLOCK_CELLS_BAND
            if not lo <= block_cells(predicted_dims(dc_seed)) <= hi:
                continue
            dc = spectral.random_double_complex(dc_seed, **COMPLEX_SHAPE)
            w, h = dc.width, dc.height
            d1 = {(p, q): dc.d1_at(p, q) for p in range(w) for q in range(h - 1)}
            d2 = {(p, q): dc.d2_at(p, q) for p in range(w - 1) for q in range(h)}
            self.complexes.append((dc.dims, d1, d2))
        self.algebras = {(n, json.dumps(p)): liealg.catalog(n, **p) for n, p, _ in CE_CASES}
        self.ops = [{"kind": "dc", "index": i} for i in range(COMPLEXES) for _ in range(COMPLEX_REPEATS)]
        self.ops += [{"kind": "ce", "algebra": n, "params": p, "degree": q}
                     for n, p, q in CE_CASES for _ in range(CE_REPEATS)]
        rng.shuffle(self.ops)
        if limit is not None:
            self.ops = self.ops[:limit]

    def fixed_ops(self):
        seen, out = set(), []
        for op in self.ops:
            key = json.dumps(op, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append(op)
        return out

    def run_op(self, op, trace_prefix=None, speed_path=None):
        sp = self.spectral
        if op["kind"] == "ce":
            g = self.algebras[(op["algebra"], json.dumps(op["params"]))]
            return {"dim": self.cecohom.cohomology(g, self.cecohom.GModule.trivial(g), op["degree"]).dim}
        dims, d1, d2 = self.complexes[op["index"]]
        dc = sp.DoubleComplex(dims, d1, d2)  # fresh: pages are cached on the complex
        w, h = dc.width, dc.height
        grids = {f"e{r}": sp.page(dc, r).dims_grid(w, h) for r in (1, 2)}
        grids["einf"] = sp.page_infinity(dc).dims_grid(w, h)
        grids["total"] = [sp.total_cohomology(dc, m).dim for m in range(w + h - 1)]
        grids["abutment"] = sp.abutment_check(dc).ok
        return grids

    def check_op(self, op, out) -> list[str]:
        if op["kind"] == "ce":
            want = ce_dims_oracle(op["algebra"], op["params"])[op["degree"]]
            return [] if out["dim"] == want else [f"dim H^{op['degree']} = {out['dim']}, expected {want}"]
        dims, d1, d2 = self.complexes[op["index"]]
        want = total_dims_oracle(dims, d1, d2)
        problems = []
        if out["total"] != want:
            problems.append(f"total cohomology {out['total']}, expected {want}")
        w, h = len(dims), len(dims[0])
        sums = [sum(out["einf"][p][m - p] for p in range(w) if 0 <= m - p < h) for m in range(w + h - 1)]
        if sums != want:
            problems.append(f"E_inf antidiagonal sums {sums}, expected {want}")
        if out["abutment"] is not True:
            problems.append("abutment check failed")
        return problems

    @staticmethod
    def result_text(out) -> str:
        return json.dumps(out, sort_keys=True)


# -- independent oracles (sympy DomainMatrix over QQ) ---------------------------

_ORACLE_CACHE: dict = {}


def _rank(rows, cols, entries) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not cols:
        return 0
    def q(x):
        x = Fraction(x)
        return QQ(x.numerator, x.denominator)

    mat = [[q(entries.get((i, j), 0)) for j in range(cols)] for i in range(rows)]
    return DomainMatrix(mat, (rows, cols), QQ).rank()


def total_dims_oracle(dims, d1, d2) -> list[int]:
    """dim H^m of the total complex, differential d1 + (-1)^p d2 on cell (p, q)."""
    key = id(d1)
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    w, h = len(dims), len(dims[0])

    def cells(m):
        return [(p, m - p) for p in range(w) if 0 <= m - p < h]

    def offsets(cs):
        out, acc = {}, 0
        for c in cs:
            out[c] = acc
            acc += dims[c[0]][c[1]]
        return out, acc

    ranks, sizes = {}, {}
    for m in range(-1, w + h):
        src, n_src = offsets(cells(m))
        tgt, n_tgt = offsets(cells(m + 1))
        sizes[m] = n_src
        ent = {}
        for (p, q), c0 in src.items():
            for (blocks, dst, sign) in ((d1, (p, q + 1), 1), (d2, (p + 1, q), (-1) ** p)):
                mat = blocks.get((p, q))
                if mat is None or dst not in tgt:
                    continue
                r0 = tgt[dst]
                for i in range(mat.rows):
                    for j in range(mat.cols):
                        x = mat.entries[i * mat.cols + j]
                        if x:
                            ent[(r0 + i, c0 + j)] = ent.get((r0 + i, c0 + j), 0) + sign * x
        ranks[m] = _rank(n_tgt, n_src, ent)
    out = [sizes[m] - ranks[m] - ranks[m - 1] for m in range(w + h - 1)]
    _ORACLE_CACHE[key] = out
    return out


def ce_dims_oracle(name, params) -> dict:
    """dim H^q(g; R) for every q, from the structure constants alone."""
    from itertools import combinations

    key = (name, tuple(sorted(params.items())))
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    import lagfloor.liealg as liealg

    g = liealg.catalog(name, **params)
    n = g.dim
    bracket = {(i, j): {k: g.coeff(i, j, k) for k in range(n) if g.coeff(i, j, k)} for i in range(n) for j in range(n)}
    basis = {q: list(combinations(range(n), q)) for q in range(n + 2)}
    index = {q: {t: i for i, t in enumerate(basis[q])} for q in basis}
    ranks = {-1: 0}
    for q in range(n + 1):
        # (d w)(x_0..x_q) = sum_{i<j} (-1)^{i+j} w([x_i, x_j], x_0..^i..^j..x_q)
        ent = {}
        for row, xs in enumerate(basis[q + 1]):
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    rest = xs[:i] + xs[i + 1:j] + xs[j + 1:]
                    for k, c in bracket[(xs[i], xs[j])].items():
                        if k in rest:
                            continue
                        t = tuple(sorted((k,) + rest))
                        sign = (-1) ** (i + j) * (-1) ** t.index(k)
                        col = index[q][t]
                        ent[(row, col)] = ent.get((row, col), 0) + sign * c
        ranks[q] = _rank(len(basis[q + 1]), len(basis[q]), ent)
    out = {q: len(basis[q]) - ranks[q] - ranks[q - 1] for q in range(n + 1)}
    _ORACLE_CACHE[key] = out
    return out


WORKLOADS = {w.name: w for w in (FixturesCli, ClassifyStream, LinalgSpectral)}
