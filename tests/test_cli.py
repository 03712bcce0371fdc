import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfloor import hierarchy
from lagfloor.cli import main
from lagfloor.expr import MAX_ANSATZ_MONOMIALS
from lagfloor.problemfile import (
    ProblemFileError,
    build_algebra,
    build_double_complex,
    build_pair,
    load_problem_file,
    parse_problem_file,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "lagfloor" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def fx(name):
    return str(FIXTURES / name)


# -- problem files ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_fixture_loads_and_builds(name):
    pf = load_problem_file(fx(name))
    if "double_complex" in pf.sections:
        build_double_complex(pf)
    else:
        build_pair(pf)


def test_hash_inside_a_string_is_not_a_comment():
    assert parse_problem_file('[lagrangian]\nexpr = "p # q"\n').section("lagrangian") == {"expr": "p # q"}


def test_explicit_brackets_algebra(tmp_path):
    f = tmp_path / "alg.toml"
    f.write_text(
        """
[algebra]
dim = 3
basis = ["e1", "e2", "e3"]
brackets = [[1, 2, 3, 1]]
"""
    )
    g = build_algebra(load_problem_file(str(f)))
    assert g.dim == 3
    assert g.coeff(0, 1, 2) == 1
    assert g.coeff(1, 0, 2) == -1


def test_a_zero_bracket_entry_is_dropped(tmp_path):
    """An [algebra] whose brackets add [e1, e2] = 0 e1 to so(3) is the same
    algebra: its nonzero constants and its integer table are the same, and
    check-algebra and cohomology print the same machine output byte for
    byte."""
    so3 = '[[1, 2, 3, "1"], [2, 3, 1, "1"], [3, 1, 2, "1"]'
    f = tmp_path / "alg.toml"  # one path for both, as the output names it
    algebras, outputs = [], []
    for extra in ("", ', [1, 2, 1, "0"]'):
        f.write_text(f'[algebra]\ndim = 3\nbasis = ["e1", "e2", "e3"]\nbrackets = {so3}{extra}]\n')
        algebras.append(build_algebra(load_problem_file(str(f))))
        outputs.append([run("--format", "machine", command, str(f)) for command in ("check-algebra", "cohomology")])
    a, b = algebras
    assert (a.dim, a.basis_names, a.c, a.den, a.table) == (b.dim, b.basis_names, b.c, b.den, b.table)
    assert all(code == 0 for code, _ in outputs[0]) and outputs[0] == outputs[1]


@pytest.mark.parametrize("repeat", [[1, 2, 3, "1"], [2, 1, 3, "1"], [2, 1, 3, "-1"], [1, 2, 3, "0"]], ids=str)
def test_a_repeated_bracket_entry_is_a_parse_error(repeat, tmp_path):
    """An (i, j, k) given twice, in either order, is refused whatever the
    values: [2, 1, 3, 1] after [1, 2, 3, 1] once overwrote it, and
    check-algebra exited 0 on [e1, e2] = -e3."""
    f = tmp_path / "alg.toml"
    f.write_text(f'[algebra]\ndim = 3\nbasis = ["e1", "e2", "e3"]\nbrackets = [[1, 2, 3, "1"], {json.dumps(repeat)}]\n')
    for command in ("check-algebra", "cohomology"):
        assert_parse_error((command, str(f)), f"bracket [e_i, e_j] gives its e_k component twice: {repeat!r}")


JACOBI_FAILURES = {
    "one": (3, [[1, 2, 3, 1], [1, 3, 1, 1]], ["(1,2,3,3)"]),
    # 15 violations, several sharing (i, j, k): the (i, j, k, l) order and the first ten
    "five": (5, [[1, 3, 4, 2], [1, 5, 1, -1], [1, 5, 3, 1], [2, 4, 5, 2], [2, 5, 2, 2], [3, 4, 4, 1], [3, 5, 5, 2],
                 [4, 5, 5, 2]],
             ["(1,2,3,5)", "(1,2,4,1)", "(1,2,4,3)", "(1,3,5,1)", "(1,3,5,3)", "(1,3,5,4)", "(1,3,5,5)",
              "(1,4,5,1)", "(1,4,5,3)", "(1,4,5,4)"]),
}


@pytest.mark.parametrize("case", sorted(JACOBI_FAILURES))
def test_check_algebra_failure_output_pinned(case, tmp_path):
    """check-algebra on a table that breaks the Jacobi identity exits 3 and
    lists at most ten violations (i, j, k, l), 1-based, in ascending order,
    in process and under python -O alike."""
    dim, brackets, violations = JACOBI_FAILURES[case]
    names = [f"e{i + 1}" for i in range(dim)]
    f = tmp_path / "alg.toml"
    f.write_text(f"[algebra]\ndim = {dim}\nbasis = {json.dumps(names)}\nbrackets = {brackets}\n")
    want = [f"algebra = {' '.join(names)}", f"dim = {dim}", "jacobi = violated",
            *(f"violation = (i,j,k,l) = {v}" for v in violations)]
    for code, out in (run("--format", "machine", "check-algebra", str(f)), run_under_O("check-algebra", str(f))):
        assert code == 3, out
        assert out.splitlines()[2:] == want


def test_parse_errors_have_line_numbers(tmp_path):
    f = tmp_path / "bad.toml"
    f.write_text("[x]\nkey value\n")
    with pytest.raises(ProblemFileError) as err:
        load_problem_file(str(f))
    assert "line 2" in str(err.value)


# -- commands -----------------------------------------------------------------------

def test_check_algebra_so3():
    code, out = run("check-algebra", fx("so3_r3.toml"))
    assert code == 0
    assert "jacobi" in out and "ok" in out


def test_check_pair_all_fixtures():
    """Every file with an [action] section, shipped or under tests/problems,
    realizes its algebra's brackets."""
    files = [f for folder in (FIXTURES, ROOT / "tests" / "problems") for f in sorted(folder.glob("*.toml"))
             if "action" in load_problem_file(f).sections]
    assert len(files) >= 10
    for f in files:
        code, out = run("--format", "machine", "check-pair", str(f))
        assert code == 0 and "brackets = ok" in out, (f, out)


def test_cohomology_galilean_bargmann():
    code, out = run("--format", "machine", "cohomology", fx("galilean_r4.toml"), "--degree", "2")
    assert code == 0
    assert "dim_h2 = 1" in out
    assert "(p1^B1): 1" in out and "(p2^B2): 1" in out and "(p3^B3): 1" in out


def test_classify_l3_floor3():
    code, out = run(
        "--format", "machine",
        "classify", fx("l3_cylinder.toml"),
        "--set", "a=1,b=0,c=0,d=0,q=0",
    )
    assert code == 0
    assert "floor = 3" in out
    assert "sign = +" in out
    assert "k4 = [dphi]" in out


def test_classify_l3_prints_a_non_unit_k4_coefficient():
    code, out = run("--format", "machine", "classify", fx("l3_cylinder.toml"), "--set", "a=2,b=0,c=0,d=0,q=0")
    assert code == 0
    assert "floor = 3" in out
    assert "k4 = [2*dphi]" in out


SO2_ON_R2 = """
[algebra]
dim = 1
basis = ["e1"]

[chart]
coords = [["x", "line"], ["y", "line"]]

[action]
e1 = ["-y", "x"]

[lagrangian]
expr = "(dx^2 + dy^2)/2"
"""


def test_k_spaces_of_one_dimensional_algebra(tmp_path):
    # so(2) is abelian: K0 = H^1 = R and K2 = H^2 = 0
    f = tmp_path / "so2.toml"
    f.write_text(SO2_ON_R2)
    code, out = run("--format", "machine", "k-spaces", str(f))
    assert code == 0
    assert "k0 = 1" in out.splitlines() and "k2 = 0" in out.splitlines()


def test_classify_one_dimensional_algebra(tmp_path):
    # L is rotation-invariant, so every class vanishes
    f = tmp_path / "so2.toml"
    f.write_text(SO2_ON_R2)
    code, out = run("--format", "machine", "classify", str(f))
    assert code == 0
    assert "floor = 4" in out.splitlines() and "sign = +" in out.splitlines()


def test_classify_exit_code_not_weakly_invariant(tmp_path):
    f = tmp_path / "bad.toml"
    f.write_text(
        (FIXTURES / "l3_cylinder.toml").read_text().replace(
            'expr = "a*dphi + b*z*dphi + c*z + d*dphi/dz + (q/2)*dphi^2/dz"',
            'expr = "a*z^2*dphi^2"',
        )
    )
    code, out = run("classify", str(f), "--set", "a=1,b=0,c=0,d=0,q=0")
    assert code == 5
    assert "not_weakly_invariant" in out



@pytest.mark.parametrize("flags", [None, ("-O",)], ids=["in-process", "python-O"])
def test_classify_reports_a_non_closed_w_by_its_components(flags, tmp_path):
    """The split reports a w_i that is not closed as the residue: its
    components in chart order (t, x1, x2, x3), not a traceback.  Under the
    boost B1, x1*dx2 adds t*dx2 to the kinetic term's 3*dx1."""
    f = tmp_path / "not_closed.toml"
    f.write_text(
        (FIXTURES / "galilean_r4.toml").read_text().replace(
            'expr = "m*(dx1^2 + dx2^2 + dx3^2)/(2*dt)"',
            'expr = "m*(dx1^2 + dx2^2)/(2*dt) + x1*dx2"',
        )
    )
    argv = ("--format", "machine", "classify", str(f), "--set", "m=3")
    if flags is None:
        code, out = run(*argv)
    else:
        res = subprocess.run(
            [sys.executable, *flags, "-m", "lagfloor.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        code, out = res.returncode, res.stdout
        assert "Traceback" not in res.stdout + res.stderr
    assert code == 5, out
    lines = out.splitlines()
    assert "status = not_weakly_invariant" in lines
    assert "generator = B1" in lines
    assert "residue = (0, 3, t, 0)" in lines

def test_classify_missing_param_is_parse_error():
    code, out = run("classify", fx("l3_cylinder.toml"), "--set", "a=1")
    assert code == 2


def test_noether_translations():
    code, out = run(
        "--format", "machine",
        "noether", fx("translations_r2.toml"),
        "--set", "m=1,B=1,E1=2,E2=0",
    )
    assert code == 0
    assert "N_e1 = " in out and "tau" in out


def test_import_loads_no_class_generator():
    """The package's classes are written out by hand, so importing the CLI
    loads neither dataclasses nor the modules it brings in (inspect, ast,
    dis, tokenize), which every cold command would pay for.  The check is
    on the loaded modules alone; it times nothing."""
    script = "import sys, lagfloor.cli; print(' '.join(sorted(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "lagfloor.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_machine_output_stable_across_processes():
    import os
    import subprocess
    import sys

    def run_sub(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "lagfloor.cli", "--format", "machine",
             "classify", fx("l3_cylinder.toml"), "--set", "a=1,b=1,c=1,d=0,q=0"],
            capture_output=True, text=True, env=env,
        ).stdout

    assert run_sub("1") == run_sub("4242")


def test_k_spaces_machine_output_stable():
    code1, out1 = run("--format", "machine", "k-spaces", fx("l3_cylinder.toml"))
    code2, out2 = run("--format", "machine", "k-spaces", fx("l3_cylinder.toml"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert "k0 = 2" in out1 and "k1 = 2" in out1 and "k2 = 2" in out1
    assert "k3 = 0" in out1 and "k4 = 1" in out1


def test_spectral_explicit_complex():
    code, out = run("--format", "machine", "spectral", fx("spectral_example.toml"))
    assert code == 0
    assert "abutment = ok" in out


def test_spectral_from_pair_on_a_complex_file_exits_2():
    """--from-pair builds the invariance complex of the file's pair, also
    when the file holds a [double_complex]: a file with no pair is a parse
    error, not the file's complex."""
    code, out = run("--format", "machine", "spectral", fx("spectral_example.toml"), "--from-pair")
    assert code == 2
    assert out.splitlines()[2:] == ["error = missing [algebra] section"]


def test_spectral_from_pair_reads_the_pair_of_a_file_with_both_sections(tmp_path):
    """With both a pair and a [double_complex], --from-pair prints what the
    pair gives, and no flag prints the file's complex."""
    f = tmp_path / "both.toml"
    f.write_text((FIXTURES / "l3_cylinder.toml").read_text() + "\n" + SPECTRAL_EXAMPLE)
    code, out = run("--format", "machine", "spectral", str(f), "--from-pair")
    assert code == 0
    golden = (GOLDEN / "spectral_from_pair" / "l3_cylinder.txt").read_text()
    assert out.splitlines()[2:] == golden.splitlines()[2:]
    code, out = run("--format", "machine", "spectral", str(f))
    assert code == 0
    assert out.splitlines()[2:] == (GOLDEN / "classify" / "spectral_example.txt").read_text().splitlines()[2:]


def test_spectral_from_pair():
    code, out = run(
        "--format", "machine",
        "spectral", fx("l3_cylinder.toml"), "--from-pair", "--page", "2",
    )
    assert code == 0
    assert "abutment = ok" in out
    # E_2 column q=0 carries the algebra cohomology: dims 1, 2, 2 down the rows
    rows = {l.split(" = ")[0]: l.split(" = ")[1] for l in out.splitlines() if " = " in l}
    assert rows["e2_p0"].split()[0] == "1"
    assert rows["e2_p1"].split()[0] == "2"
    assert rows["e2_p2"].split()[0] == "2"


def test_unknown_algebra_is_parse_error(tmp_path):
    f = tmp_path / "alg.toml"
    f.write_text('[algebra]\nname = "nope"\n[chart]\ncoords = [["x", "line"]]\n')
    code, out = run("check-algebra", str(f))
    assert code == 2


def test_noether_on_floor_zero_exits_3():
    code, out = run(
        "noether", fx("l3_cylinder.toml"), "--set", "a=0,b=1,c=0,d=0,q=0"
    )
    assert code == 3
    assert "potentials" in out


# l3 with the fields of e2 and e3 swapped: [e1, e2] and [e1, e3] break
BROKEN_L3 = """
[algebra]
name = "l3"
[chart]
coords = [["z", "line"], ["phi", "angle"]]
[action]
transitive = false
e1 = ["1", "0"]
e2 = ["0", "1"]
e3 = ["0", "z"]
[lagrangian]
expr = "dz^2"
"""


def test_check_pair_invalid_brackets_exits_3(tmp_path):
    f = tmp_path / "pair.toml"
    f.write_text(BROKEN_L3)
    code, out = run("--format", "machine", "check-pair", str(f))
    assert code == 3
    assert out.splitlines()[2:] == [
        "algebra = e1 e2 e3", "chart = z:line phi:angle", "brackets = violated",
        "failure = [e1, e2]", "failure = [e1, e3]",
    ]


@pytest.mark.parametrize("command", [("classify",), ("noether",), ("k-spaces",), ("spectral", "--from-pair")],
                         ids=lambda c: c[0])
def test_fields_that_violate_the_brackets_exit_3(command, tmp_path):
    """Every command that computes on a pair certifies its brackets first:
    on fields that break them, classify and noether once exited 0 with a
    floor and charges, and k-spaces and spectral exited 3 only where a later
    certificate tripped.  In process and under python -O alike."""
    f = tmp_path / "pair.toml"
    f.write_text(BROKEN_L3)
    argv = (command[0], str(f), *command[1:])
    want = "invariant_violation = the fields violate the bracket [e1, e2]"
    for code, out in (run("--format", "machine", *argv), run_under_O(*argv)):
        assert code == 3, out
        assert want in out.splitlines()
        assert "floor" not in out and "N_e1" not in out


def test_format_flag_accepted_after_subcommand():
    code, out = run("check-algebra", fx("so3_r3.toml"), "--format", "machine")
    assert code == 0
    assert "jacobi = ok" in out


def test_file_options_feed_defaults(tmp_path):
    text = (FIXTURES / "l3_cylinder.toml").read_text().replace("fourier = 3", "fourier = 1")
    f = tmp_path / "opts.toml"
    f.write_text(text)
    code, out = run("--format", "machine", "k-spaces", str(f))
    assert code == 0
    assert "k3_caveat = truncated at degree 3, fourier 1" in out
    # explicit flag overrides the file
    code, out = run("--format", "machine", "k-spaces", str(f), "--fourier", "2")
    assert "fourier 2" in out


def test_cohomology_with_explicit_module_section(tmp_path):
    # spin-1 action of so(3): rho_i = matrix of the rotation field on x^s
    f = tmp_path / "spin1.toml"
    f.write_text(
        """
[algebra]
name = "so3"

[module.spin1]
dim = 3
e1 = [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]
e2 = [["0", "0", "1"], ["0", "0", "0"], ["-1", "0", "0"]]
e3 = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
"""
    )
    code, out = run(
        "--format", "machine", "cohomology", str(f),
        "--coefficients", "spin1", "--degree", "1", "--degree", "2",
    )
    assert code == 0
    assert "dim_h1 = 0" in out and "dim_h2 = 0" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--ansatz-degree", "-1"), ("--fourier", "-3"), ("--closure-cap", "0"), ("--closure-cap", "-5")],
)
def test_truncation_flags_out_of_range_are_parse_errors(flag, value):
    code, out = run("--format", "machine", "k-spaces", fx("l3_cylinder.toml"), flag, value)
    assert code == 2
    assert f"error = {flag} must be at least" in out


@pytest.mark.parametrize(
    "key, old, new, says",
    [("degree", "degree = 3", "degree = -1", "must be at least 0"),
     ("fourier", "fourier = 3", "fourier = -2", "must be at least 0"),
     ("closure_cap", "closure_cap = 64", "closure_cap = 0", "must be at least 1"),
     ("degree", "degree = 3", 'degree = "3"', "must be an integer"),
     ("fourier", "fourier = 3", "fourier = true", "must be an integer")],
)
def test_bad_truncation_file_options_are_parse_errors(tmp_path, key, old, new, says):
    f = tmp_path / "opts.toml"
    f.write_text((FIXTURES / "l3_cylinder.toml").read_text().replace(old, new))
    for command in (("k-spaces",), ("classify", "--set", "a=1,b=0,c=0,d=0,q=0")):
        code, out = run("--format", "machine", command[0], str(f), *command[1:])
        assert code == 2
        assert f"error = [options] {key} {says}" in out


def test_truncation_zero_is_accepted():
    code, out = run("--format", "machine", "k-spaces", fx("l3_cylinder.toml"),
                    "--ansatz-degree", "0", "--fourier", "0", "--closure-cap", "1")
    assert code == 0, out


def test_bad_truncation_prints_no_traceback():
    import subprocess
    import sys

    res = subprocess.run(
        [sys.executable, "-m", "lagfloor.cli", "k-spaces", fx("l3_cylinder.toml"), "--ansatz-degree", "-1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr


@pytest.mark.parametrize("extra, want", [((), 0), (("--ansatz-degree", "-1"), 2)])
def test_closed_stdout_prints_no_traceback(extra, want):
    """A reader that closes the pipe before the report (``lagfloor ... | head``)
    gets the command's exit code and no traceback."""
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "lagfloor.cli", "--format", "machine", "k-spaces", fx("l3_cylinder.toml"), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == want, err
    assert "Traceback" not in err


K_SPACES = ["l3_cylinder", "translations_r3", "so3_sphere", "galilean_r4", "poincare_c1"]


@pytest.mark.parametrize("name", K_SPACES)
def test_k_spaces_machine_output_pinned(name, monkeypatch):
    """Full machine output, representatives included, against files captured
    before the K-spaces were rebuilt on the action table."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", "k-spaces", f"src/lagfloor/fixtures/{name}.toml")
    assert code == 0
    assert out == (GOLDEN / "k_spaces" / f"{name}.txt").read_text()


CLASSIFY = {
    "l3_cylinder_a": ("classify", "l3_cylinder", "a=1,b=0,c=0,d=0,q=0"),
    "l3_cylinder_b": ("classify", "l3_cylinder", "a=0,b=1,c=0,d=0,q=0"),
    "l3_cylinder_c": ("classify", "l3_cylinder", "a=0,b=0,c=1,d=0,q=0"),
    "l3_cylinder_dq": ("classify", "l3_cylinder", "a=0,b=0,c=0,d=1,q=1"),
    "so3_sphere": ("classify", "so3_sphere", "m=7,g=2/3"),
    "translations_r2": ("classify", "translations_r2", "m=1,B=2,E1=1,E2=3"),
    "galilean_r4": ("classify", "galilean_r4", "m=2"),
    "galilean_r4_noether": ("noether", "galilean_r4", "m=2"),
    # rational charges over (1 + u^2 + v^2)^2
    "so3_sphere_noether": ("noether", "so3_sphere", "m=7,g=2/3"),
    # denominators in dz, and tau terms
    "l3_cylinder_noether": ("noether", "l3_cylinder", "a=1,b=0,c=1,d=1,q=0"),
    # tau terms on a polynomial charge
    "translations_r2_noether": ("noether", "translations_r2", "m=1,B=2,E1=1,E2=3"),
    "spectral_example": ("spectral", "spectral_example", None),
}


@pytest.mark.parametrize("golden", sorted(CLASSIFY))
def test_classify_machine_output_pinned(golden, monkeypatch):
    """Full machine output of classify, noether and spectral, against files
    captured before vectors in linalg became sparse dicts."""
    command, name, params = CLASSIFY[golden]
    monkeypatch.chdir(ROOT)
    extra = ("--set", params) if params else ()
    code, out = run("--format", "machine", command, f"src/lagfloor/fixtures/{name}.toml", *extra)
    assert code == 0
    assert out == (GOLDEN / "classify" / f"{golden}.txt").read_text()


# the commands pinned on files under tests/problems, which tests/reach.py
# runs too: (command, golden) on arctan_potential, each exiting 4
UNDETERMINED = [("classify", "arctan_potential"), ("noether", "arctan_potential_noether")]
# (argv, golden) on so3_sphere_section_pole and sl2_cylinder, each exiting 0;
# the file goes after the command
SECTION_POLE = [
    (("classify", "--set", "m=7,g=2/3"), "classify/so3_sphere_section_pole"),
    (("k-spaces",), "k_spaces/so3_sphere_section_pole"),
]
SL2_CYLINDER = [
    (("k-spaces",), "k_spaces/sl2_cylinder"),
    (("classify", "--set", "a=2,b=3,c=1"), "classify/sl2_cylinder_floor3"),
    (("classify", "--set", "a=1,b=0,c=0"), "classify/sl2_cylinder_floor4"),
    (("noether", "--set", "a=2,b=3,c=1"), "classify/sl2_cylinder_noether"),
    (("spectral", "--from-pair"), "spectral_from_pair/sl2_cylinder"),
]

# (argv, golden, exit code) on rational_potential, whose stage-1 potential
# c/(1 + z^2) has a denominator: the one pinned cochain whose coboundary is
# taken over a common denominator other than 1
RATIONAL_POTENTIAL = [
    (("classify", "--set", "c=3"), "classify/rational_potential", 4),
    (("noether", "--set", "c=3"), "classify/rational_potential_noether", 0),
]


@pytest.mark.parametrize("command, golden", UNDETERMINED)
def test_undetermined_machine_output_pinned(command, golden, monkeypatch):
    """A chain that stops at stage 1, whose closed remainder has no
    potential in the ansatz, exits 4 with its stage and ansatz; the charges
    need that potential, so noether reports the same.  The classify output
    was captured before the stage-1 exit was merged into the others."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", command, "tests/problems/arctan_potential.toml")
    assert code == 4
    assert out == (GOLDEN / "classify" / f"{golden}.txt").read_text()


@pytest.mark.parametrize("argv, golden, exit_code", RATIONAL_POTENTIAL, ids=["classify", "noether"])
def test_rational_potential_machine_output_pinned(argv, golden, exit_code, monkeypatch):
    """A stage-1 potential over 1 + z^2: phi2 takes delta(alpha) over that
    denominator and finds it zero, and phi3 exits 4 at its ansatz; the
    charges need only the potentials.  Captured before the coboundary was
    computed on trig polynomials."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", argv[0], "tests/problems/rational_potential.toml", *argv[1:])
    assert code == exit_code
    assert out == (GOLDEN / f"{golden}.txt").read_text()


@pytest.mark.parametrize("argv, golden", SECTION_POLE, ids=["classify", "k-spaces"])
def test_section_pole_machine_output_pinned(argv, golden, monkeypatch):
    """so3_sphere with a removable pole in its section at the first sample
    point: no frame is read there, and the other two certify what they
    certify on so3_sphere (k3_certificate -2/3, one K3 class and one
    residual).  Captured before the frames became a table on the pair."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", argv[0], "tests/problems/so3_sphere_section_pole.toml", *argv[1:])
    assert code == 0
    assert out == (GOLDEN / f"{golden}.txt").read_text()


@pytest.mark.parametrize("argv, golden", SL2_CYLINDER, ids=[golden for _, golden in SL2_CYLINDER])
def test_sl2_cylinder_machine_output_pinned(argv, golden, monkeypatch):
    """sl(2,R) on the cylinder: a trigonometric action, not transitive, whose
    K3 class is certified only at its sample point on the orbit z = 0.
    Captured before K3's certificate read every frame."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", argv[0], "tests/problems/sl2_cylinder.toml", *argv[1:])
    assert code == 0
    assert out == (GOLDEN / f"{golden}.txt").read_text()


# one algebra and action, g = {A in gl(3) : A e_1 = 0} on R^3, in three
# bases: elementary, an integer change of basis, and a rational one
GL3_BASES = ("elementary", "integer", "rational")
GL3_SPECTRAL_SECONDS = 3.5  # about 3 times the rational file's cold run (2-vCPU x86-64)


def test_the_gl3_stabilizer_prints_one_spectral_sequence_in_every_basis(monkeypatch):
    """Pages and totals do not depend on the basis the algebra is written
    in: spectral --from-pair prints the same validity line, pages, totals
    and abutment on the three files.  The rational basis, whose Q's are the
    densest and carry the largest denominators, runs as a cold process
    under its time bound: its totals' ranks eliminate Q's columns sparsest
    first, where eliminating Q's rows took about 5 times as long."""
    monkeypatch.chdir(ROOT)
    outs = {}
    for basis in GL3_BASES:
        path = f"tests/problems/gl3_stabilizer_{basis}.toml"
        argv = ("--format", "machine", "spectral", path, "--from-pair")
        if basis == "rational":
            start = time.perf_counter()
            res = subprocess.run([sys.executable, "-m", "lagfloor.cli", *argv], capture_output=True, text=True,
                                 timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
            seconds = time.perf_counter() - start
            code, out = res.returncode, res.stdout
            assert seconds < GL3_SPECTRAL_SECONDS, seconds
        else:
            code, out = run(*argv)
        assert code == 0, out
        assert f"file = {path}\n" in out
        outs[basis] = out.replace(f"file = {path}\n", "")
    assert outs["elementary"] == outs["integer"] == outs["rational"]
    lines = outs["elementary"].splitlines()
    assert lines[1:3] == ["valid = ok", "e1_p0 = 1 10 0"] and lines[-1] == "abutment = ok"
    assert [line for line in lines if line.startswith("total_h")] == [
        f"total_h{m} = {h}" for m, h in enumerate((1, 1, 0, 1, 1, 0, 0, 0, 0))]


@pytest.mark.parametrize("stage, phi", [(3, "phi3"), (4, "phi4")])
def test_noether_prints_its_charges_when_a_later_stage_is_undetermined(stage, phi, monkeypatch):
    """Undetermined at stage 3 or 4, the chain already has its potentials:
    classify exits 4 with the stage, and noether prints the charges of the
    classified chain."""

    def undetermined(*args):
        raise hierarchy.UndeterminedError(stage, "a stand-in ansatz")

    monkeypatch.setattr(hierarchy, phi, undetermined)
    monkeypatch.chdir(ROOT)
    argv = ("src/lagfloor/fixtures/l3_cylinder.toml", "--set", "a=1,b=0,c=1,d=1,q=0")
    code, out = run("--format", "machine", "classify", *argv)
    assert code == 4
    assert out.splitlines()[3:] == ["status = undetermined", f"stage = {stage}", "ansatz = a stand-in ansatz"]
    code, out = run("--format", "machine", "noether", *argv)
    assert code == 0
    assert out == (GOLDEN / "classify" / "l3_cylinder_noether.txt").read_text()


SPECTRAL_FROM_PAIR = {
    "l3_cylinder": ("l3_cylinder", ()),
    "l3_cylinder_d0_f2": ("l3_cylinder", ("--ansatz-degree", "0", "--fourier", "2")),
    "so3_sphere": ("so3_sphere", ()),
    "translations_r2": ("translations_r2", ()),
    "so3_r3_d1": ("so3_r3", ("--ansatz-degree", "1")),
    "translations_r3_d1": ("translations_r3", ("--ansatz-degree", "1")),
}


@pytest.mark.parametrize("golden", sorted(SPECTRAL_FROM_PAIR))
def test_spectral_from_pair_machine_output_pinned(golden, monkeypatch):
    """Pages, total cohomology and abutment of the invariance double complex,
    against files captured before the complex was built on the action table."""
    name, extra = SPECTRAL_FROM_PAIR[golden]
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", "spectral", f"src/lagfloor/fixtures/{name}.toml", "--from-pair", *extra)
    assert code == 0
    assert out == (GOLDEN / "spectral_from_pair" / f"{golden}.txt").read_text()


def test_benchmark_fixture_commands_match_their_digests(monkeypatch):
    """Every command of the benchmark's byte-identity oracle,
    perfbench/golden/fixtures_cli.json, with every --set value of its pool:
    run in process, each gives the recorded exit code and the SHA-256 of
    its machine output.  The file is only read here."""
    golden = json.loads((ROOT / "perfbench" / "golden" / "fixtures_cli.json").read_text())["commands"]
    monkeypatch.chdir(ROOT)
    ran, wrong = 0, []
    for key, pool in golden.items():
        command, name, *extra = key.split()
        for entry in pool:
            flags = ("--set", entry["set"]) if entry["set"] else ()
            code, out = run("--format", "machine", command, f"src/lagfloor/fixtures/{name}.toml", *extra, *flags)
            ran += 1
            if (code, hashlib.sha256(out.encode()).hexdigest()) != (entry["exit"], entry["sha256"]):
                wrong.append((key, entry["set"], code))
    assert (ran, wrong) == (58, [])


@pytest.mark.parametrize("command", ["classify", "noether"])
def test_acceleration_lagrangian_is_a_parse_error(command, tmp_path):
    """A Lagrangian with accelerations exits 2 with an error line, also
    under python -O, where the classifier once reported it as classified."""
    import subprocess
    import sys

    f = tmp_path / "acc.toml"
    f.write_text((FIXTURES / "l3_cylinder.toml").read_text().replace(
        'expr = "a*dphi + b*z*dphi + c*z + d*dphi/dz + (q/2)*dphi^2/dz"\nparams = ["a", "b", "c", "d", "q"]',
        'expr = "ddphi + dz^2/2"\nparams = []',
    ))
    for flags in ((), ("-O",)):
        res = subprocess.run(
            [sys.executable, *flags, "-m", "lagfloor.cli", "--format", "machine", command, str(f)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 2, (flags, res.stdout, res.stderr)
        assert "error = [lagrangian] expr must not depend on accelerations" in res.stdout
        assert "Traceback" not in res.stderr


SPIN1 = """
[algebra]
name = "so3"

[module.spin1]
dim = 3
e1 = [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]
e2 = [["0", "0", "1"], ["0", "0", "0"], ["-1", "0", "0"]]
e3 = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
"""

# abelian(n=2) on Q^2, e1 acting by the nilpotent matrix E_21, e2 by 0 or E_21
NILPOTENT = """
[algebra]
name = "abelian"
params = {n = 2}

[module.nilpotent]
dim = 2
e1 = [["0", "0"], ["1", "0"]]
e2 = [["0", "0"], ["%s", "0"]]
"""

MODULE_PROBLEMS = {"spin1": SPIN1, "nilpotent_e1": NILPOTENT % "0", "nilpotent_e1_e2": NILPOTENT % "1"}


COHOMOLOGY = [("galilean_r4", range(7)), ("poincare_c1", range(7)), ("spin1", range(4)),
              ("nilpotent_e1", range(3)), ("nilpotent_e1_e2", range(3))]


@pytest.mark.parametrize("golden, degrees", COHOMOLOGY)
def test_cohomology_machine_output_pinned(golden, degrees, tmp_path, monkeypatch):
    """Dimensions and representatives of H^q, against files captured before
    the coboundary matrices were stored sparse.  The nilpotent modules have
    dimension 2, so their representatives print a vector per tuple; those
    files were captured before cochains became sparse vectors."""
    degree_flags = [flag for q in degrees for flag in ("--degree", str(q))]
    if golden in MODULE_PROBLEMS:
        monkeypatch.chdir(tmp_path)
        name = golden.partition("_")[0]
        (tmp_path / f"{name}.toml").write_text(MODULE_PROBLEMS[golden])
        argv = [f"{name}.toml", "--coefficients", name]
    else:
        monkeypatch.chdir(ROOT)
        argv = [f"src/lagfloor/fixtures/{golden}.toml"]
    code, out = run("--format", "machine", "cohomology", *argv, *degree_flags)
    assert code == 0
    assert out == (GOLDEN / "cohomology" / f"{golden}.txt").read_text()


SPECTRAL_EXAMPLE = (FIXTURES / "spectral_example.toml").read_text()
EXAMPLE_DIMS = "dims = [[0, 1], [1, 1], [1, 0]]"


@pytest.mark.parametrize(
    "text, command",
    [
        (SPECTRAL_EXAMPLE.replace(EXAMPLE_DIMS, "dims = []"), "spectral"),
        (SPECTRAL_EXAMPLE.replace(EXAMPLE_DIMS, 'dims = [["a", 1]]'), "spectral"),
        (SPECTRAL_EXAMPLE.replace(EXAMPLE_DIMS, "dims = [[0, 1], [1]]"), "spectral"),
        (SPECTRAL_EXAMPLE.replace(EXAMPLE_DIMS, "dims = [[0, 1], [1, 1], [1, -1]]"), "spectral"),
        (SPECTRAL_EXAMPLE + 'd1_7_0 = [["1"]]\n', "spectral"),
        (SPECTRAL_EXAMPLE.replace('d1_1_0 = [["1"]]', 'd1_1_0 = [["1", "2"]]'), "spectral"),
        (SPIN1.replace('e2 = [["0", "0", "1"],', 'e2 = [["0", "1"],'), "cohomology"),
    ],
    ids=["empty-dims", "non-integer-dim", "ragged-dims", "negative-dim", "key-outside-grid", "row-too-long",
         "module-row-length"],
)
def test_malformed_matrices_are_parse_errors(text, command, tmp_path):
    """Shape errors in [double_complex] and [module.*] exit 2 with an error
    line, also under python -O, where no assert would catch them."""
    import subprocess
    import sys

    f = tmp_path / "bad.toml"
    f.write_text(text)
    extra = ("--coefficients", "spin1") if command == "cohomology" else ()
    for flags in ((), ("-O",)):
        res = subprocess.run(
            [sys.executable, *flags, "-m", "lagfloor.cli", "--format", "machine", command, str(f), *extra],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 2, (flags, res.stdout, res.stderr)
        assert "error = " in res.stdout
        assert "Traceback" not in res.stderr


LINE_PAIR = """
[algebra]
dim = 1
basis = ["e1"]

[chart]
coords = [["z", "line"]]

[action]
e1 = ["1"]

[lagrangian]
expr = "dz^2/2"
"""


@pytest.mark.parametrize(
    "text, says",
    [
        (LINE_PAIR.replace('[["z", "line"]]', '[["z", "circle"]]'), "[chart] coordinate 'z' has kind 'circle'"),
        (
            LINE_PAIR.replace('[["z", "line"]]', '[["z", "line"], ["z", "line"]]').replace('["1"]', '["1", "0"]'),
            "[chart] duplicate coordinate names",
        ),
        (LINE_PAIR.replace('e1 = ["1"]', 'e1 = ["dz"]'), "[action] e1: components must be velocity-free"),
        (
            LINE_PAIR + '\n[stability_sections]\ns1 = ["dz"]\n',
            "[stability_sections] s1: components must be velocity-free",
        ),
        # these three once ended in a traceback: dz was read as z's velocity
        *(
            (
                LINE_PAIR.replace('[["z", "line"]]', f'[["z", "line"], ["{name}", "line"]]').replace('["1"]', '["1", "0"]'),
                f"[chart] coordinate name '{name}' clashes with a velocity or acceleration name, or with tau",
            )
            for name in ("dz", "ddz", "tau")
        ),
    ],
    ids=["unknown-kind", "duplicate-name", "velocity-in-action", "velocity-in-section", "velocity-name",
         "acceleration-name", "tau-name"],
)
def test_malformed_chart_or_action_is_a_parse_error(text, says, tmp_path):
    """A bad coordinate kind, a repeated coordinate name, a coordinate
    named like another's velocity or acceleration or like tau, or a
    velocity in an action or stability-section component exits 2 with an
    error line under python and python -O alike.  As asserts, the chart and action
    checks exited 3 (under -O the bad chart was classified), and a velocity
    in a section ended in a KeyError traceback once a section was
    evaluated."""
    import subprocess
    import sys

    f = tmp_path / "bad.toml"
    f.write_text(text)
    for flags in ((), ("-O",)):
        res = subprocess.run(
            [sys.executable, *flags, "-m", "lagfloor.cli", "--format", "machine", "classify", str(f)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 2, (flags, res.stdout, res.stderr)
        assert f"error = {says}" in res.stdout
        assert "Traceback" not in res.stderr


def test_section_that_misses_the_stability_algebra_exits_3(tmp_path):
    """A stability section that does not vanish at the point is an invariant
    violation under python and under python -O alike; with an assert, -O
    once skipped the check and printed a k3 certificate."""
    import subprocess
    import sys

    f = tmp_path / "badsec.toml"
    f.write_text((FIXTURES / "so3_sphere.toml").read_text().replace(
        's1 = ["2*u/(1 + u^2 + v^2)", "2*v/(1 + u^2 + v^2)"',
        's1 = ["2*u/(1 + u^2 + v^2)", "1 + 2*v/(1 + u^2 + v^2)"',
    ))
    for flags in ((), ("-O",)):
        res = subprocess.run(
            [sys.executable, *flags, "-m", "lagfloor.cli", "--format", "machine", "classify", str(f),
             "--set", "m=7,g=2/3"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 3, (flags, res.stdout, res.stderr)
        assert "invariant_violation = section does not vanish at the point" in res.stdout
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("section,command", [
    # vanishes at every point but is not normalized; the certificate -4/3
    # was once printed
    ('s1 = ["2*u", "2*v", "u^2 + v^2 - 1"]', ["classify", "--set", "m=7,g=2/3"]),
    # the same section over v, which has a pole at the first sample point:
    # the other two are compared, where a traceback once came out
    ('s1 = ["2*u/(v*(1 + u^2 + v^2))", "2/(1 + u^2 + v^2)", "(u^2 + v^2 - 1)/(v*(1 + u^2 + v^2))"]',
     ["k-spaces"]),
], ids=["unnormalized", "pole"])
def test_point_dependent_restriction_exits_3(tmp_path, section, command):
    """A stability section whose cocycle values change from point to point
    is refused: the restriction is compared over the sample points."""
    import subprocess
    import sys

    f = tmp_path / "point_dependent.toml"
    text = (FIXTURES / "so3_sphere.toml").read_text()
    s1 = 's1 = ["2*u/(1 + u^2 + v^2)", "2*v/(1 + u^2 + v^2)", "(u^2 + v^2 - 1)/(1 + u^2 + v^2)"]'
    assert s1 in text
    f.write_text(text.replace(s1, section))
    res = subprocess.run(
        [sys.executable, "-m", "lagfloor.cli", "--format", "machine", command[0], str(f), *command[1:]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 3, (res.stdout, res.stderr)
    assert "invariant_violation = cocycle restriction must be point-independent" in res.stdout
    assert "k3_certificate" not in res.stdout
    assert "Traceback" not in res.stderr


RATIONAL_PAIR = """
[algebra]
dim = 1
basis = ["e1"]

[chart]
coords = [["z", "line"]]

[action]
e1 = ["1/(1 + z^2)"]

[lagrangian]
expr = "2*z*dz"
"""


def test_rational_component_pair_returns_promptly(tmp_path):
    """X = 1/(1 + z^2) d/dz with L = d_EL(z^2): classify ends promptly with
    a documented exit code.  It must build no function module: closing one
    over the rational component raises the denominator's power at every
    step and does not end within the cap for minutes."""
    import subprocess
    import sys

    f = tmp_path / "rational.toml"
    f.write_text(RATIONAL_PAIR)
    res = subprocess.run(
        [sys.executable, "-m", "lagfloor.cli", "--format", "machine", "classify", str(f)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode in (0, 3, 4), (res.stdout, res.stderr)
    assert "Traceback" not in res.stdout + res.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("command", [("check-pair",), ("classify",), ("k-spaces",), ("spectral", "--from-pair")],
                         ids=lambda c: c[0])
def test_rational_field_component_is_unsupported_input(command, flags, tmp_path):
    """Monomial coordinates of a rational field component cannot be read:
    the pair's build refuses it, so every pair command, check-pair too,
    exits 4 with an error line, not as a failed certificate."""
    f = tmp_path / "rational.toml"
    f.write_text(RATIONAL_PAIR)
    res = subprocess.run(
        [sys.executable, *flags, "-m", "lagfloor.cli", "--format", "machine", command[0], str(f), *command[1:]],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 4, (res.stdout, res.stderr)
    assert "error = monomial coordinates require polynomial components" in res.stdout
    assert "invariant_violation" not in res.stdout
    assert "Traceback" not in res.stdout + res.stderr



def test_rational_field_component_stops_the_split(tmp_path):
    """The pair's build refuses a rational field component as unsupported
    input (exit 4) before the split can judge weak invariance: dz^2 is not
    weakly invariant under X = 1/(1 + z^2) d/dz, yet classify reports the
    error line, not exit 5."""
    f = tmp_path / "rational.toml"
    f.write_text(RATIONAL_PAIR.replace('expr = "2*z*dz"', 'expr = "dz^2"'))
    code, out = run("--format", "machine", "classify", str(f))
    assert code == 4, out
    assert "error = monomial coordinates require polynomial components" in out
    assert "not_weakly_invariant" not in out

def assert_parse_error(argv, says):
    """``lagfloor argv`` exits 2 with an ``error =`` line, and raises and
    prints no traceback, in process and under python -O."""
    code, out = run("--format", "machine", *argv)
    assert code == 2, out
    assert f"error = {says}" in out
    res = subprocess.run(
        [sys.executable, "-O", "-m", "lagfloor.cli", "--format", "machine", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert f"error = {says}" in res.stdout
    assert "Traceback" not in res.stdout + res.stderr


L3 = (FIXTURES / "l3_cylinder.toml").read_text()
L3_E1 = 'e1 = ["1", "0"]'
TR2 = (FIXTURES / "translations_r2.toml").read_text()
PC1 = (FIXTURES / "poincare_c1.toml").read_text()


@pytest.mark.parametrize(
    "text, says",
    [
        (L3.replace('p1 = {z = "1/2", phi', 'p1 = {z = "1/2" phi'), "Unclosed inline table (at line 20, column 17)"),
        (L3.replace("[points]\np1", "[points]p1"), "Expected newline or end of document after a statement (at line 19,"),
        (L3.replace("degree = 3", "degree = 1.5"), "float 1.5 is not exact"),
        (L3.replace("degree = 3", "degree = 1979-05-27"), "options.degree: 1979-05-27 is a date or time"),
        ('name = "l3"\n' + L3, "key 'name' is outside any [section]"),
        (L3.replace("degree = 3", "degree = 1" + "0" * 5000), "an integer has more than 4300 digits"),
        (L3.replace(L3_E1, "e1 = " + "[" * 5000 + "]" * 5000), "values nested too deeply"),
        (L3.replace(L3_E1, 'e1 = ["' + "(" * 3000 + "1" + ")" * 3000 + '", "0"]'), "parentheses nested deeper than 100"),
        (L3.replace(L3_E1, 'e1 = ["1' + "0" * 5000 + '", "0"]'), "bad integer literal"),
        (L3.replace(L3_E1, "e1 = [1, 0]"), "expected an expression string, got 1"),
        (L3.replace('name = "l3"', "dim = 1\nbasis = [1]"), "[algebra] needs name=..., or dim and a basis"),
        (L3.replace('name = "l3"', 'name = "abelian"\nparams = 3'), "[algebra] params must be a table"),
        (L3.replace('params = ["a", "b", "c", "d", "q"]', "params = 5"), "[lagrangian] params must be a list of names"),
        (L3.replace('"d", "q"]', '"d", "q", "2"]'), "[lagrangian] params must be a list of names"),
        (L3.replace("transitive = true", 'transitive = "false"'), "[action] transitive must be true or false"),
    ],
    ids=["missing-comma", "header-and-key", "float", "date", "top-level-key", "long-integer", "deep-array",
         "deep-expression", "long-integer-in-expression", "expression-not-a-string", "basis-not-names",
         "algebra-params-not-a-table", "lagrangian-params-not-names", "lagrangian-param-not-a-name",
         "transitive-not-a-boolean"],
)
def test_malformed_problem_file_is_a_parse_error(text, says, tmp_path):
    f = tmp_path / "bad.toml"
    f.write_text(text)
    assert_parse_error(("classify", str(f), "--set", "a=1,b=0,c=0,d=0,q=0"), says)


@pytest.mark.parametrize(
    "command, text, old, new, says",
    [("k-spaces", TR2, "degree = 3", "degre = 1", "[options] unknown key 'degre'"),
     ("check-pair", PC1, 'params = {c = "1"}', "parms = {c = 2}", "[algebra] unknown key 'parms'"),
     ("classify", L3, L3_E1, L3_E1 + '\ne4 = ["0", "1"]', "[action] unknown key 'e4'")],
    ids=["options", "algebra", "action"],
)
def test_unknown_key_is_a_parse_error(command, text, old, new, says, tmp_path):
    """A misspelt key in [options], [algebra] or [action] once was ignored:
    the command ran at the default degree, at c = 1, or without the key."""
    assert old in text
    f = tmp_path / "typo.toml"
    f.write_text(text.replace(old, new))
    extra = ("--set", "a=1,b=0,c=0,d=0,q=0") if command == "classify" else ()
    assert_parse_error((command, str(f), *extra), says)


@pytest.mark.parametrize(
    "command, old, new",
    [("k-spaces", "[options]\ndegree = 3", "[option]\ndegree = 1"),
     ("check-pair", "[points]", "[point]")],
    ids=["options", "points"],
)
def test_unknown_section_is_a_parse_error(command, old, new, tmp_path):
    """A misspelt section once was ignored: with [option], k-spaces ran at
    the default degree 3 and fourier 3 where the file asked for 1 and 0."""
    assert old in TR2
    f = tmp_path / "typo.toml"
    f.write_text(TR2.replace(old, new))
    assert_parse_error((command, str(f)), f"unknown section {new.splitlines()[0]}")


@pytest.mark.parametrize("command", ["classify", "noether"])
def test_set_name_given_twice_is_a_parse_error(command):
    """A parameter named twice in --set is ambiguous: no value wins, and the
    command exits 2 before it builds the Lagrangian."""
    argv = (command, fx("l3_cylinder.toml"), "--set", "a=1,b=0,c=0,d=0,q=0,a=2")
    assert_parse_error(argv, "--set a is given twice")


@pytest.mark.parametrize("argv", [("classify", "--set", "m=1,g=2"), ("k-spaces",)], ids=["classify", "k-spaces"])
def test_a_point_missing_a_coordinate_is_a_parse_error(argv, tmp_path):
    """Every [points] entry gives every chart coordinate: a point without v
    ended in a KeyError traceback once a frame was evaluated there."""
    f = tmp_path / "sphere.toml"
    text = (FIXTURES / "so3_sphere.toml").read_text()
    assert 'p1 = {u = "1", v = "0"}' in text
    f.write_text(text.replace('p1 = {u = "1", v = "0"}', 'p1 = {u = "1"}'))
    assert_parse_error((argv[0], str(f), *argv[1:]), "points.p1: missing coordinate 'v'")


@pytest.mark.parametrize("argv", [["classify"], ["noether"], ["check-algebra"], ["cohomology"], ["k-spaces"],
                                  ["spectral", "--from-pair"]], ids=lambda argv: argv[0])
def test_a_zero_dimensional_algebra_is_a_parse_error(argv, tmp_path):
    """[algebra] dim is at least 1, as abelian's n is: classify and noether
    ended in a ValueError traceback on a zero-dimensional algebra."""
    f = tmp_path / "zero.toml"
    text = LINE_PAIR.replace('dim = 1\nbasis = ["e1"]', "dim = 0\nbasis = []").replace('e1 = ["1"]\n', "")
    assert "dim = 0" in text and "e1" not in text
    f.write_text(text)
    assert_parse_error((argv[0], str(f), *argv[1:]), "[algebra] needs dim >= 1")



@pytest.mark.parametrize(
    "command, name",
    [("classify", "q1"), ("noether", "q1"), ("classify", "dq2"), ("noether", "ddq1"), ("classify", "tau")],
)
def test_a_parameter_named_like_a_chart_symbol_is_a_parse_error(command, name, tmp_path):
    """The parser reads a parameter before any other meaning of its name,
    so a parameter q1 would replace the coordinate q1 in the Lagrangian
    but not its velocity dq1: refused, as are velocities, accelerations
    and tau."""
    f = tmp_path / "tr2.toml"
    f.write_text(TR2.replace('params = ["m", "B", "E1", "E2"]', f'params = ["m", "B", "E1", "E2", "{name}"]'))
    assert_parse_error((command, str(f), "--set", f"m=1,B=0,E1=1,E2=0,{name}=5"),
                       f"[lagrangian] parameter '{name}' is a coordinate, velocity, acceleration or tau")


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_file_is_a_parse_error(kind, tmp_path):
    if kind == "directory":
        path, says = tmp_path, "[Errno 21] Is a directory"
    else:
        path = tmp_path / "latin1.toml"
        says = f"{path} is not UTF-8 text"
        path.write_bytes('[chart]\n# caf\xe9\n'.encode("latin-1"))
    assert_parse_error(("check-algebra", str(path)), says)


def test_negative_cohomology_degree_is_a_parse_error():
    assert_parse_error(("cohomology", fx("so3_r3.toml"), "--degree", "-1"), "--degree must be at least 0")


@pytest.mark.parametrize("r", ["-1", "-5"])
def test_negative_spectral_page_is_a_parse_error(r):
    """E_inf comes only with the default pages; no negative R stands for it."""
    assert_parse_error(("spectral", fx("spectral_example.toml"), "--page", r), f"--page must be at least 0, got {r}")


def test_spectral_reports_an_invalid_explicit_complex(tmp_path):
    """A [double_complex] file is validated; d1 d2 != d2 d1 exits 3."""
    f = tmp_path / "dc.toml"
    f.write_text(
        '[double_complex]\ndims = [[1, 1], [1, 1]]\n'
        'd1_0_0 = [["1"]]\nd1_1_0 = [["2"]]\nd2_0_0 = [["1"]]\nd2_0_1 = [["1"]]\n'
    )
    code, out = run("--format", "machine", "spectral", str(f))
    assert code == 3, out
    assert "valid = violated" in out and "violation = " in out


FUZZ_TARGETS = [
    ("check-pair", "l3_cylinder"),
    ("check-pair", "so3_r3"),
    ("check-pair", "translations_r2"),
    ("spectral", "spectral_example"),
]


@st.composite
def mutated_fixtures(draw):
    """A command and a fixture with one character deleted, or one line deleted or duplicated."""
    command, name = draw(st.sampled_from(FUZZ_TARGETS))
    text = (FIXTURES / f"{name}.toml").read_text()
    kind = draw(st.sampled_from(["delete-char", "delete-line", "duplicate-line"]))
    if kind == "delete-char":
        i = draw(st.integers(0, len(text) - 1))
        return command, text[:i] + text[i + 1:]
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete-line":
        return command, "".join(lines[:i] + lines[i + 1:])
    return command, "".join(lines[:i + 1] + lines[i:])


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_end_in_a_documented_exit_code(tmp_path_factory, case):
    command, text = case
    f = tmp_path_factory.getbasetemp() / "mutated.toml"
    f.write_text(text)
    code, out = run("--format", "machine", command, str(f))
    assert code in (0, 2, 3, 4, 5), out


def run_under_O(*argv, script=None):
    """``lagfloor --format machine argv`` under python -O, or ``script`` with
    argv as its arguments; asserts that nothing printed a traceback."""
    head = ["-c", script] if script else ["-m", "lagfloor.cli"]
    res = subprocess.run(
        [sys.executable, "-O", *head, "--format", "machine", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert "Traceback" not in res.stdout + res.stderr
    return res.returncode, res.stdout


def run_timed(*argv):
    """``run`` in machine format, with the CPU time it took."""
    start = time.process_time()
    code, out = run("--format", "machine", *argv)
    return code, out, time.process_time() - start


# one f-degree raise leaves K3 nothing to compare, so it never stabilizes
K3_UNSTABLE = """
import sys
from lagfloor import hierarchy
from lagfloor.cli import main
hierarchy.K3_F_RAISES = (1,)
sys.exit(main(sys.argv[1:]))
"""


def test_k3_that_never_stabilizes_is_undetermined(monkeypatch):
    """k-spaces exits 4 with k3_stable = false and the last ansatz tried, and
    reports no dimension, in process and under python -O."""
    monkeypatch.setattr(hierarchy, "K3_F_RAISES", (1,))
    argv = ("k-spaces", fx("l3_cylinder.toml"))
    code, out = run("--format", "machine", *argv)
    assert code == 4, out
    assert out == (
        f"command = k-spaces\nfile = {fx('l3_cylinder.toml')}\n"
        "k3_stable = false\nansatz = degree 4, fourier 3\n"
    )
    assert run_under_O(*argv, script=K3_UNSTABLE) == (4, out)


@pytest.mark.parametrize("extra, cells", [((), 251904), (("--ansatz-degree", "1"), 31744)])
def test_oversized_invariance_complex_exits_4_before_it_is_built(extra, cells):
    """The Galilean invariance complex is refused by its size once its three
    bases are known: exit 4 with the cell count, in under 1 s, also under
    python -O."""
    argv = ("spectral", fx("galilean_r4.toml"), "--from-pair", *extra)
    code, out, seconds = run_timed(*argv)
    assert code == 4, out
    assert f"cells_needed = {cells}\nerror = the invariance complex needs {cells} cells" in out
    assert cells > hierarchy.MAX_COMPLEX_CELLS
    assert seconds < 1
    assert run_under_O(*argv) == (4, out)


def test_oversized_explicit_complex_exits_4_before_any_page(tmp_path):
    """A [double_complex] file is bounded by the cell count --from-pair
    uses: its summed dims above MAX_COMPLEX_CELLS exit 4 with the count, in
    under 1 s, also under python -O."""
    cells = hierarchy.MAX_COMPLEX_CELLS + 1
    f = tmp_path / "big.toml"
    f.write_text(f"[double_complex]\ndims = [[{cells}]]\n")
    code, out, seconds = run_timed("spectral", str(f))
    assert code == 4, out
    assert out == (f"command = spectral\nfile = {f}\ncells_needed = {cells}\n"
                   f"error = the double complex needs {cells} cells, above the limit of {cells - 1}\n")
    assert seconds < 1
    assert run_under_O("spectral", str(f)) == (4, out)


def test_oversized_power_in_a_lagrangian_is_a_parse_error(tmp_path):
    """A power of a many-term base is refused by its expansion bound before
    it is expanded: exit 2 in under 1 s, with the bound in the error line."""
    text = (FIXTURES / "translations_r2.toml").read_text()
    old = 'expr = "m*(dq1^2 + dq2^2)/2 + B*(q1*dq2 - q2*dq1) + E1*q1 + E2*q2"'
    assert old in text
    f = tmp_path / "power.toml"
    f.write_text(text.replace(old, 'expr = "m*(dq1^2 + dq2^2)/2 + (1 + q1 + q2)^300"'))
    argv = ("classify", str(f), "--set", "m=1,B=2,E1=1,E2=3")
    code, out, seconds = run_timed(*argv)
    assert code == 2, out
    assert seconds < 1
    assert_parse_error(argv, "a 3-term base to the power 300 expands to up to 45451 terms, above the limit of 1000")


def test_oversized_product_in_a_lagrangian_is_a_parse_error(tmp_path):
    """A product of many-term factors is refused by its term-count bound
    before it is expanded, as a power is: exit 2 in under 1 s, with the
    bound in the error line."""
    text = (FIXTURES / "translations_r2.toml").read_text()
    old = 'expr = "m*(dq1^2 + dq2^2)/2 + B*(q1*dq2 - q2*dq1) + E1*q1 + E2*q2"'
    assert old in text
    f = tmp_path / "product.toml"
    product = "*".join(["(1 + q1 + q2)"] * 60)
    f.write_text(text.replace(old, f'expr = "m*(dq1^2 + dq2^2)/2 + {product}"'))
    argv = ("classify", str(f), "--set", "m=1,B=2,E1=1,E2=3")
    code, out, seconds = run_timed(*argv)
    assert code == 2, out
    assert seconds < 1
    assert_parse_error(argv, "a product expands to up to 1053 terms, above the limit of 1000")


@pytest.mark.parametrize(
    "argv, count",
    [
        (("k-spaces", fx("translations_r3.toml"), "--ansatz-degree", "1000000000"), 166666667666666668500000001),
        (("classify", fx("l3_cylinder.toml"), "--set", "a=1,b=0,c=0,d=0,q=0", "--fourier", "1000000000"), 8000000004),
    ],
    ids=["degree", "fourier"],
)
def test_oversized_ansatz_exits_4_before_it_is_listed(argv, count):
    """An ansatz of more than MAX_ANSATZ_MONOMIALS monomials is refused by
    its count, before any monomial is listed: exit 4 with the count, in
    under 1 s, also under python -O."""
    code, out, seconds = run_timed(*argv)
    assert code == 4, out
    assert f" has {count} monomials, above the limit of {MAX_ANSATZ_MONOMIALS}" in out
    assert out.splitlines()[-1].startswith("error = the ansatz at ")
    assert seconds < 1
    assert run_under_O(*argv) == (4, out)


@pytest.mark.parametrize("command", ["check-algebra", "check-pair", "cohomology"])
@pytest.mark.parametrize("flag", ["--ansatz-degree", "--fourier", "--closure-cap"])
def test_truncation_flags_only_on_the_commands_that_read_them(command, flag):
    """check-algebra, check-pair and cohomology read no truncation, so the
    flags are usage errors there."""
    with pytest.raises(SystemExit) as exc:
        run("--format", "machine", command, fx("so3_r3.toml"), flag, "1")
    assert exc.value.code == 2


def einf_rows(golden, r):
    """The E_inf rows of a golden output, labelled as page r."""
    text = (GOLDEN / golden).read_text()
    return [line.replace("einf_", f"e{r}_") for line in text.splitlines() if line.startswith("einf_")]


@pytest.mark.parametrize(
    "argv, want",
    [
        (("cohomology", fx("galilean_r4.toml"), "--degree", "1000000000"), ["dim_h1000000000 = 0"]),
        (
            ("spectral", fx("spectral_example.toml"), "--page", "1000000000"),
            einf_rows("classify/spectral_example.txt", 1000000000),
        ),
        (
            ("spectral", fx("l3_cylinder.toml"), "--from-pair", "--page", "1000000000"),
            einf_rows("spectral_from_pair/l3_cylinder.txt", 1000000000),
        ),
    ],
    ids=["degree", "page", "page-from-pair"],
)
def test_huge_degree_and_page_are_cheap(argv, want):
    """H^q above dim G is 0 without listing any cochain, and a page past the
    stable one prints E_inf under its own label: both answer in under 1 s,
    also under python -O."""
    code, out, seconds = run_timed(*argv)
    assert code == 0, out
    assert want and all(line in out.splitlines() for line in want), out
    assert seconds < 1
    assert run_under_O(*argv) == (0, out)


@pytest.mark.parametrize(
    "argv",
    [
        ("k-spaces", fx("translations_r2.toml"), "--ansatz-degree=--"),
        ("spectral", fx("spectral_example.toml"), "--page=--"),
        ("cohomology", fx("so3_r3.toml"), "--degree=--"),
        ("classify", fx("translations_r2.toml"), "--set=--"),
    ],
    ids=["ansatz-degree", "page", "degree", "set"],
)
def test_flag_given_as_double_dash_is_a_usage_error(argv):
    """argparse hands "--flag=--" over as an empty list; it is rejected as a
    missing value (exit 2), where the integer flags once ended in a
    TypeError traceback."""
    with pytest.raises(SystemExit) as exc:
        run("--format", "machine", *argv)
    assert exc.value.code == 2
    assert run_under_O(*argv)[0] == 2


SMALL_INTS = st.integers(-3, 2).map(str)
MALFORMED = st.sampled_from(["", "x", "1.5", "2/3", "1e3", "--", "0x10", "+"])
HUGE = st.sampled_from(["1000000000", "-1000000000"]) | st.integers(-3, 10**9).map(str)
SET_STRINGS = st.sampled_from(["m", "m=", "=1", "m=x", "m=1/0", ",", "x=1", "m=1,B=2,E1=1,E2=3,z=4"]) | st.text(max_size=8)
FLAG_COMMANDS = {
    "check-pair": (),
    "cohomology": ("--degree",),
    "k-spaces": (),
    "spectral": ("--page",),
    "spectral --from-pair": ("--page",),
    "classify": ("--set",),
}


@st.composite
def flagged_commands(draw):
    """A command on translations_r2 or spectral_example with drawn truncation
    flags and drawn values for its own flags, negative and malformed ones too."""
    command = draw(st.sampled_from(sorted(FLAG_COMMANDS)))
    argv = [*command.split()[:1], fx(draw(st.sampled_from(["translations_r2.toml", "spectral_example.toml"])))]
    argv += command.split()[1:]
    for flag in ("--ansatz-degree", "--fourier"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(HUGE | SMALL_INTS | MALFORMED)}")
    for flag in FLAG_COMMANDS[command]:
        values = SET_STRINGS if flag == "--set" else HUGE | SMALL_INTS | MALFORMED
        for value in draw(st.lists(values, max_size=2)):
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=120, deadline=None)
@given(flagged_commands())
def test_flag_values_end_in_a_documented_exit_code(argv):
    """argparse rejects a malformed integer by exiting 2; every other value
    reaches the command, which ends in a documented exit code."""
    try:
        code, out = run("--format", "machine", *argv)
    except SystemExit as exc:
        code, out = exc.code, ""
    assert code in (0, 2, 3, 4, 5), (argv, out)


TRUNCATIONS = st.integers(-3, 3) | st.sampled_from([10**9, -(10**9)]) | st.integers(10**6, 10**12)
PARAMETERS = {"l3_cylinder.toml": ("a", "b", "c", "d", "q"), "translations_r2.toml": ("m", "B", "E1", "E2")}
PARAMETER_VALUES = st.sampled_from(["0", "1", "-1", "2", "2/3", "-5/2"])
# runs each argv given as a JSON list, printing only its exit code
EXIT_CODES = """
import contextlib, io, json, sys
from lagfloor.cli import main
for argv in json.loads(sys.argv[-1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--format", "machine", *argv])
    except SystemExit as exc:
        code = exc.code
    print(code)
"""


@st.composite
def truncated_runs(draw):
    """noether or classify on a valid parameter set, with small or huge
    --ansatz-degree and --fourier values."""
    name = draw(st.sampled_from(sorted(PARAMETERS)))
    values = ",".join(f"{k}={draw(PARAMETER_VALUES)}" for k in PARAMETERS[name])
    argv = [draw(st.sampled_from(["classify", "noether"])), fx(name), f"--set={values}"]
    for flag in ("--ansatz-degree", "--fourier"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(TRUNCATIONS)}")
    return argv


@settings(max_examples=6, deadline=None)
@given(st.lists(truncated_runs(), min_size=1, max_size=10))
def test_noether_and_classify_under_drawn_truncations(runs):
    """Every run ends in a documented exit code with no traceback, and the
    same one under python -O."""
    codes = []
    for argv in runs:
        try:
            code, _ = run("--format", "machine", *argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
    assert all(code in (0, 2, 3, 4, 5) for code in codes), list(zip(runs, codes))
    returncode, out = run_under_O(json.dumps(runs), script=EXIT_CODES)
    assert returncode == 0
    assert [int(c) for c in out.split()] == codes
