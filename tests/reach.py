"""Which functions of the ``lagfloor`` package no command enters.

The commands are those whose machine output is pinned under
``tests/golden/`` (the k-spaces, classify, noether, spectral and cohomology
tables of ``test_cli``, and its commands on the files under
``tests/problems/``), plus ``check-algebra`` and ``check-pair``, which have
no golden file.  Run as a script, this module runs each of them through
``lagfloor.cli.main`` under ``sys.setprofile``, in its own interpreter so
that no cache is warm and the package's import is seen too, and prints every
function under ``src/lagfloor`` (methods, nested functions and lambdas
included) that no call entered, with its file, first line and length, and
its reason when it is on the allow-list below.  A nested function is listed
only when the function around it was entered.  Three kinds need no entry:
the methods of an exception class, ``__repr__``, and what ``ALLOWED`` names.

It exits 1 when an unreached function is not on the allow-list, when an
entry names a function that is gone or that the commands reach, or when a
command exits with another code than its golden test expects::

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = (ROOT / "src" / "lagfloor").resolve()

# Functions that stay in the package although no command enters them,
# keyed "module:qualname", each with its reason.
ALLOWED = {
    # the benchmark reads these (perfbench/workloads.py)
    "linalg:Mat.entries": "the benchmark's total-cohomology oracle reads the dense entries",
    "spectral:random_double_complex": "the benchmark's linalg_spectral workload draws its complexes here",
    "spectral:_random_mat": "random_double_complex's integer matrices",
    "spectral:_split_blocks": "random_double_complex's block split of a flat kernel vector",
    "linalg:Subspace.matrix": "random_double_complex's left kernel as a matrix",
    "linalg:Mat.mul": "random_double_complex's d1 blocks, a mix of the left kernel of the block below",
    "liealg:StructureConstants.coeff": "ce_dims_oracle in perfbench/workloads.py and the tests read c^k_ij one at a time",
    # what a problem file can reach though no golden command does
    "calculus:OneForm.__add__": "phi4 adds the harmonic part back when the witness has one",
    "calculus:OneForm.scale": "phi4 scales the harmonic part when the witness has one",
    "problemfile:_reject_float": "tomllib's parse_float hook: a float in a problem file exits 2",
    # the library's expression and value API
    "expr:Expr.__radd__": "reflected operator: c + e with a number c",
    "expr:Expr.__rsub__": "reflected operator: c - e with a number c",
    "expr:Expr.__rmul__": "reflected operator: c * e with a number c",
    "expr:Expr.__rtruediv__": "reflected operator: c / e with a number c",
    "expr:Expr.__eq__": "value equality of expressions by cross multiplication, which tests read",
    "linalg:Subspace.__eq__": "value equality of subspaces on their canonical integer bases, which a test reads",
    "linalg:Mat.__eq__": "value equality of matrices on their canonical integer rows, which a test reads",
}

# code objects that are not functions: module and class bodies are told
# apart by their flags, comprehensions by their names
_NOT_FUNCTIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"))
_FUNCTION_FLAGS = 0x1 | 0x2  # CO_OPTIMIZED | CO_NEWLOCALS


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def package_functions():
    """{(path, first line, qualname): (module, length in lines)} for every
    function defined in a module of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for code in _code_objects(compile(path.read_text(), str(path), "exec")):
            if code.co_flags & _FUNCTION_FLAGS != _FUNCTION_FLAGS or code.co_name in _NOT_FUNCTIONS:
                continue
            last = max(line for _, _, line in code.co_lines() if line is not None)
            out[(str(path), code.co_firstlineno, code.co_qualname)] = (path.stem, last - code.co_firstlineno + 1)
    return out


def commands(workdir):
    """(argv, expected exit code) of each command; the cohomology problems
    with a module are written into ``workdir``."""
    from test_cli import (
        CLASSIFY,
        COHOMOLOGY,
        K_SPACES,
        MODULE_PROBLEMS,
        RATIONAL_POTENTIAL,
        SECTION_POLE,
        SL2_CYLINDER,
        SPECTRAL_FROM_PAIR,
        UNDETERMINED,
    )

    def fx(name):
        return str(PACKAGE / "fixtures" / f"{name}.toml")

    def problem(name):
        return str(ROOT / "tests" / "problems" / f"{name}.toml")

    out = [["check-algebra", fx("galilean_r4")], ["check-pair", fx("galilean_r4")]]
    out += [["k-spaces", fx(name)] for name in K_SPACES]
    for command, name, params in CLASSIFY.values():
        out.append([command, fx(name), *(("--set", params) if params else ())])
    out += [["spectral", fx(name), "--from-pair", *extra] for name, extra in SPECTRAL_FROM_PAIR.values()]
    for golden, degrees in COHOMOLOGY:
        argv = [fx(golden)]
        if golden in MODULE_PROBLEMS:
            path = Path(workdir) / f"{golden}.toml"
            path.write_text(MODULE_PROBLEMS[golden])
            argv = [str(path), "--coefficients", golden.partition("_")[0]]
        out.append(["cohomology", *argv, *(flag for q in degrees for flag in ("--degree", str(q)))])
    for name, table in (("so3_sphere_section_pole", SECTION_POLE), ("sl2_cylinder", SL2_CYLINDER)):
        out += [[argv[0], problem(name), *argv[1:]] for argv, _ in table]
    run = [(["--format", "machine", *argv], 0) for argv in out]
    run += [(["--format", "machine", command, problem("arctan_potential")], 4) for command, _ in UNDETERMINED]
    run += [(["--format", "machine", argv[0], problem("rational_potential"), *argv[1:]], code)
            for argv, _, code in RATIONAL_POTENTIAL]
    return run


def run_commands():
    """(the (path, first line, qualname) of every code object entered, the
    commands whose exit code is not the expected one), with the package
    imported under the profile too."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    wrong = []
    sys.setprofile(record)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            from lagfloor.cli import main

            for argv, expected in commands(workdir):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != expected:
                    wrong.append((argv, code))
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_qualname) for c in seen}, wrong


def _exempt(module, qualname):
    if qualname.endswith(".__repr__"):
        return True
    owner = getattr(importlib.import_module(f"lagfloor.{module}"), qualname.partition(".")[0], None)
    return isinstance(owner, type) and issubclass(owner, BaseException)


def unreached():
    """(unreached functions as (name, path, line, length), commands with an
    unexpected exit code).  Exempt functions are left out."""
    reached, wrong = run_commands()
    functions = package_functions()
    missed = {key for key in functions if key not in reached}
    missed_names = {qualname for _, _, qualname in missed}
    out = []
    for path, line, qualname in sorted(missed):
        module, length = functions[(path, line, qualname)]
        outer, nested, _ = qualname.rpartition(".<locals>.")
        if nested and outer in missed_names or _exempt(module, qualname):
            continue
        out.append((f"{module}:{qualname}", path, line, length))
    return out, wrong


def main():
    missed, wrong = unreached()
    failed = bool(wrong)
    for argv, code in wrong:
        print(f"exit {code}, not the expected one: {' '.join(argv)}")
    for name, path, line, length in missed:
        reason = ALLOWED.get(name)
        failed |= reason is None
        print(f"{name}  {Path(path).relative_to(ROOT)}:{line}  {length} lines  {reason or 'NOT ALLOWED'}")
    for name in sorted(set(ALLOWED) - {name for name, *_ in missed}):
        print(f"{name}  on the allow-list, but reached or gone")
        failed = True
    print(f"unreached = {len(missed)}, allowed = {len(ALLOWED)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
