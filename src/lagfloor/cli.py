"""Command-line frontend.

Commands: check-algebra, check-pair, cohomology, k-spaces, classify,
noether, spectral.  Reports come in two formats: ``human`` (default) and
``machine`` (stable ``key = value`` lines, byte-identical across runs).

Exit codes: 0 success, 2 parse error, 3 validation/invariant failure,
4 undetermined, 5 not weakly invariant.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .calculus import OneForm
from .cecohom import GModule, cochain_tuples, cohomology, jacobi_check, validate_module
from .expr import AnsatzTooLarge, ParseError, to_string
from .hierarchy import (
    ClassifyOptions,
    PotentialUnavailable,
    UndeterminedError,
    build_invariance_double_complex,
    classify,
    k4_quotient,
    k_spaces,
    noether_charges,
)
from .liealg import BadParams, UnknownName
from .problemfile import (
    NotPolynomial,
    ProblemFileError,
    build_algebra,
    build_double_complex,
    build_lagrangian,
    build_module,
    build_pair,
    load_problem_file,
)
from .spectral import ComplexTooLarge, abutment_check, page, page_infinity, validate_double_complex

F = Fraction

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_UNDETERMINED = 4
EXIT_NOT_WEAKLY_INVARIANT = 5


class Report:
    """Ordered key/value report with a stable machine rendering."""

    def __init__(self, command):
        self.rows = [("command", command)]

    def add(self, key, value):
        self.rows.append((key, value))

    def render(self, fmt):
        if fmt == "machine":
            return "\n".join(f"{k} = {v}" for k, v in self.rows)
        width = max(len(k) for k, _ in self.rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.rows)


def frac_str(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec_str(v) -> str:
    return "(" + ", ".join(frac_str(x) for x in v) + ")"


def _parse_set(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if not name or not value:
            raise ProblemFileError(f"--set entries look like name=rational: {item!r}")
        if name in out:
            raise ProblemFileError(f"--set {name} is given twice")
        try:
            out[name] = F(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ProblemFileError(f"--set {name}: {value!r} is not a rational")
    return out


def _options(args, pf=None):
    """Flags override [options] in the problem file, which override defaults.

    A value that is not an integer, a negative degree or fourier order, or
    a closure cap below 1 is a parse error wherever it comes from.
    """
    file_opts = pf.section("options", keys=("degree", "fourier", "closure_cap")) if pf is not None else {}

    def pick(flag_value, flag, key, default, least):
        if flag_value is not None:
            value, source = flag_value, flag
        else:
            value = file_opts.get(key, default)
            source = f"[options] {key}"
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProblemFileError(f"{source} must be an integer, got {value!r}")
        if value < least:
            raise ProblemFileError(f"{source} must be at least {least}, got {value}")
        return value

    return ClassifyOptions(
        degree=pick(args.ansatz_degree, "--ansatz-degree", "degree", 3, 0),
        fourier=pick(args.fourier, "--fourier", "fourier", 3, 0),
        closure_cap=pick(args.closure_cap, "--closure-cap", "closure_cap", 64, 1),
    )


def _cochain_str(vec, q, m, names):
    """The q-cochain vector ``vec`` with values in a module of dimension m,
    one ``(tuple): value`` part per tuple where it is nonzero."""
    tuples = cochain_tuples(len(names), q)
    values = {}  # tuple position -> value vector; sorted indices keep tuple order
    for j in sorted(vec):
        values.setdefault(j // m, [F(0)] * m)[j % m] = vec[j]
    parts = []
    for pos, value in values.items():
        label = "^".join(names[i] for i in tuples[pos])
        parts.append(f"({label}): {frac_str(value[0]) if m == 1 else vec_str(value)}")
    return "; ".join(parts) if parts else "0"


def _components_str(components) -> str:
    """A tuple of expressions in chart order, as ``(c_1, ..., c_n)``."""
    return "(" + ", ".join(to_string(c) for c in components) + ")"


def _angle_combo_str(coords, angle_names):
    terms = []
    for c, a in zip(coords, angle_names):
        if not c:
            continue
        if c == 1:
            terms.append(f"d{a}")
        else:
            terms.append(f"{frac_str(c)}*d{a}")
    return "[" + (" + ".join(terms) if terms else "0") + "]"


def cmd_check_algebra(args, report):
    pf = load_problem_file(args.file)
    g = build_algebra(pf)
    res = jacobi_check(g)
    report.add("algebra", " ".join(g.basis_names))
    report.add("dim", g.dim)
    report.add("jacobi", "ok" if res.ok else "violated")
    if not res.ok:
        for i, j, k, l in res.violations[:10]:
            report.add("violation", f"(i,j,k,l) = ({i + 1},{j + 1},{k + 1},{l + 1})")
        return EXIT_INVALID
    return EXIT_OK


def cmd_check_pair(args, report):
    pf = load_problem_file(args.file)
    pair = build_pair(pf)
    res = pair.brackets
    report.add("algebra", " ".join(pair.algebra.basis_names))
    report.add("chart", " ".join(f"{n}:{k}" for n, k in pair.chart.coords))
    report.add("brackets", "ok" if res.ok else "violated")
    if not res.ok:
        names = pair.algebra.basis_names
        for i, j in res.violations[:10]:
            report.add("failure", f"[{names[i]}, {names[j]}]")
        return EXIT_INVALID
    return EXIT_OK


def cmd_cohomology(args, report):
    for q in args.degree:
        if q < 0:
            raise ProblemFileError(f"--degree must be at least 0, got {q}")
    pf = load_problem_file(args.file)
    g = build_algebra(pf)
    if args.coefficients == "trivial":
        module = GModule.trivial(g)
    else:
        module = build_module(pf, args.coefficients, g)
        check = validate_module(module)
        if not check.ok:
            report.add("module", "invalid")
            return EXIT_INVALID
    report.add("coefficients", args.coefficients)
    for q in args.degree:
        res = cohomology(g, module, q)
        report.add(f"dim_h{q}", res.dim)
        for idx, rep in enumerate(res.representatives, start=1):
            report.add(f"h{q}_rep_{idx}", _cochain_str(rep, q, module.dim, g.basis_names))
    return EXIT_OK


def cmd_k_spaces(args, report):
    pf = load_problem_file(args.file)
    pair = build_pair(pf)
    opts = _options(args, pf)
    try:
        rep = k_spaces(pair, opts)
    except UndeterminedError as exc:
        report.add("k3_stable", "false")
        report.add("ansatz", exc.ansatz)
        return EXIT_UNDETERMINED
    for label, dim in zip(("k0", "k1", "k2", "k3", "k4"), rep.dims):
        report.add(label, dim)
    report.add("k3_caveat", f"truncated at degree {opts.degree}, fourier {opts.fourier}")
    report.add("k3_residual", rep.k3_residual_dim)
    for idx, v in enumerate(rep.k0_reps, start=1):
        report.add(f"k0_rep_{idx}", vec_str(v))
    for idx, (angle, t) in enumerate(rep.k1_reps, start=1):
        report.add(f"k1_rep_{idx}", f"d{angle} (x) {vec_str(t)}")
    for idx, c in enumerate(rep.k2_reps, start=1):
        report.add(f"k2_rep_{idx}", _cochain_str(c, 2, 1, pair.algebra.basis_names))
    for idx, alpha in enumerate(rep.k3_reps, start=1):
        report.add(f"k3_rep_{idx}", _components_str(alpha.components))
    for idx, v in enumerate(rep.k4_reps, start=1):
        report.add(f"k4_rep_{idx}", _angle_combo_str(v, pair.chart.angle_names))
    return EXIT_OK


def _format_class(report, label, cv):
    if cv.status == "not_reached":
        report.add(label, "not reached")
    elif cv.status == "zero":
        report.add(label, "0")
    else:
        report.add(label, "nonzero")


def cmd_classify(args, report):
    pf = load_problem_file(args.file)
    pair = build_pair(pf)
    L = build_lagrangian(pf, _parse_set(args.set))
    opts = _options(args, pf)
    res = classify(pair, L, opts)
    report.add("lagrangian", to_string(L))
    report.add("status", res.status)
    if res.status == "not_weakly_invariant":
        gen, residue = res.failure
        report.add("generator", gen)
        # the split's residue is an expression, or a 1-form w that is not closed
        text = _components_str(residue.components) if isinstance(residue, OneForm) else to_string(residue)
        report.add("residue", text)
        return EXIT_NOT_WEAKLY_INVARIANT
    if res.status == "undetermined":
        report.add("stage", res.failure[0])
        report.add("ansatz", res.failure[1])
        return EXIT_UNDETERMINED
    report.add("floor", res.floor)
    report.add("sign", res.sign)
    report.add("psi", vec_str(res.psi_class.data))
    _format_class(report, "k1", res.k1_class)
    _format_class(report, "k2", res.k2_class)
    _format_class(report, "k3", res.k3_class)
    if res.k4_class.status in ("zero", "nonzero"):
        qt_coords = res.k4_class.data
        qt, _ = k4_quotient(pair, opts)
        combo = [F(0)] * len(pair.chart.angle_names)
        for c, rep_vec in zip(qt_coords or (), qt.representatives):
            for idx, x in rep_vec.items():
                combo[idx] += c * x
        report.add("k4", _angle_combo_str(combo, pair.chart.angle_names))
    else:
        _format_class(report, "k4", res.k4_class)
    if res.k3_class.status == "nonzero":
        cert = res.k3_class.data
        report.add("k3_certificate", ", ".join(frac_str(v) for v in cert["values"].values()))
    if res.decomposition is not None:
        report.add("l_inv", to_string(res.decomposition["l_inv"]))
        report.add("full_derivative", to_string(res.decomposition["full_derivative_potential"]))
    return EXIT_OK


def cmd_noether(args, report):
    pf = load_problem_file(args.file)
    pair = build_pair(pf)
    L = build_lagrangian(pf, _parse_set(args.set))
    res = classify(pair, L, _options(args, pf))
    if res.status == "not_weakly_invariant":
        report.add("status", res.status)
        return EXIT_NOT_WEAKLY_INVARIANT
    if res.status == "undetermined" and res.witnesses.alpha is None:
        # the chain stopped before the potentials that the charges read
        report.add("status", res.status)
        report.add("stage", res.failure[0])
        report.add("ansatz", res.failure[1])
        return EXIT_UNDETERMINED
    charges = noether_charges(pair, L, res)
    report.add("status", "ok")
    for name, n in zip(pair.algebra.basis_names, charges):
        report.add(f"N_{name}", to_string(n))
    return EXIT_OK


def cmd_spectral(args, report):
    for r in args.page:
        if r is not None and r < 0:
            raise ProblemFileError(f"--page must be at least 0, got {r}")
    pf = load_problem_file(args.file)
    try:
        if args.from_pair:
            dc = build_invariance_double_complex(build_pair(pf), _options(args, pf))
            violations = ()  # the builder validates the complex and raises on failure
        elif "double_complex" in pf.sections:
            dc = build_double_complex(pf)
            violations = validate_double_complex(dc).violations
        else:
            report.add("error", "no [double_complex] section; use --from-pair to build one")
            return EXIT_PARSE
    except ComplexTooLarge as exc:
        report.add("cells_needed", exc.cells_needed)
        report.add("error", str(exc))
        return EXIT_UNDETERMINED
    report.add("valid", "violated" if violations else "ok")
    if violations:
        for rule, p, q in violations[:10]:
            report.add("violation", f"{rule} at ({p},{q})")
        return EXIT_INVALID
    for r in args.page:
        pg = page_infinity(dc) if r is None else page(dc, r)
        label = "inf" if r is None else str(r)
        for p, col in enumerate(pg.dims_grid(dc.width, dc.height)):
            report.add(f"e{label}_p{p}", " ".join(map(str, col)))
    ab = abutment_check(dc)
    for m, _, total, label in ab.rows:
        if label == "given":
            report.add(f"total_h{m}", total)
    report.add("abutment", "ok" if ab.ok else "violated")
    return EXIT_OK if ab.ok else EXIT_INVALID


def make_parser():
    parser = argparse.ArgumentParser(
        prog="lagfloor",
        description="Lie-algebra cohomology, spectral sequences, and the floor "
        "classification of weakly invariant Lagrangians",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, truncation=False, lag=False, spectral=False, cohom=False):
        p.add_argument("file", help="problem file (TOML)")
        # same flag after the subcommand; a separate dest avoids the
        # namespace copy-back clobbering the pre-subcommand value
        p.add_argument("--format", dest="format_sub", choices=("human", "machine"), default=None)
        if truncation:  # the commands that read _options
            p.add_argument("--ansatz-degree", type=int, default=None)
            p.add_argument("--fourier", type=int, default=None)
            p.add_argument("--closure-cap", type=int, default=None)
        if lag:
            p.add_argument("--set", default="", help="parameter values, e.g. a=1,b=0,q=-1/2")
        if spectral:
            p.add_argument("--page", type=int, action="append", default=None)
            p.add_argument("--from-pair", action="store_true")
        if cohom:
            p.add_argument("--degree", type=int, action="append", default=None)
            p.add_argument("--coefficients", default="trivial")

    common(sub.add_parser("check-algebra", help="Jacobi identity report"))
    common(sub.add_parser("check-pair", help="fundamental-field bracket check"))
    common(sub.add_parser("cohomology", help="Lie algebra cohomology dims and representatives"), cohom=True)
    common(sub.add_parser("k-spaces", help="the five obstruction spaces of a pair"), truncation=True)
    common(sub.add_parser("classify", help="floor and sign of a Lagrangian"), truncation=True, lag=True)
    common(sub.add_parser("noether", help="Noether charges with conservation check"), truncation=True, lag=True)
    common(sub.add_parser("spectral", help="spectral sequence pages and abutment"), truncation=True, spectral=True)
    return parser


_COMMANDS = {
    "check-algebra": cmd_check_algebra,
    "check-pair": cmd_check_pair,
    "cohomology": cmd_cohomology,
    "k-spaces": cmd_k_spaces,
    "classify": cmd_classify,
    "noether": cmd_noether,
    "spectral": cmd_spectral,
}


def _emit(report, fmt, code):
    """Print the report and return the exit code, also when the reader has
    closed stdout early (``lagfloor ... | head``)."""
    try:
        print(report.render(fmt), flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    # argparse reads "--flag=--" as an empty list of values, not as a value
    for dest, value in vars(args).items():
        if value == [] or isinstance(value, list) and [] in value:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    args.format = getattr(args, "format_sub", None) or args.format
    if args.command == "cohomology" and args.degree is None:
        args.degree = [1, 2]
    if getattr(args, "page", None) is None and args.command == "spectral":
        args.page = [1, 2, None]  # None: E_inf
    report = Report(args.command)
    report.add("file", args.file)
    try:
        code = _COMMANDS[args.command](args, report)
    except (ProblemFileError, ParseError, OSError, UnknownName, BadParams) as exc:
        report.add("error", str(exc))
        return _emit(report, args.format, EXIT_PARSE)
    except (AnsatzTooLarge, NotPolynomial) as exc:
        report.add("error", str(exc))
        return _emit(report, args.format, EXIT_UNDETERMINED)
    except PotentialUnavailable as exc:
        report.add("error", str(exc))
        return _emit(report, args.format, EXIT_INVALID)
    except AssertionError as exc:
        report.add("invariant_violation", str(exc))
        return _emit(report, args.format, EXIT_INVALID)
    return _emit(report, args.format, code)


if __name__ == "__main__":
    sys.exit(main())
