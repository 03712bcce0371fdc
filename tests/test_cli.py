import io
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lagfloor.cli import main
from lagfloor.problemfile import (
    ProblemFileError,
    build_algebra,
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


# -- problem file round-trips ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_fixture_roundtrip(name):
    pf = load_problem_file(fx(name))
    again = parse_problem_file(pf.dumps())
    assert again.sections == pf.sections
    assert again.dumps() == pf.dumps()


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
    for name in ("l3_cylinder.toml", "so3_sphere.toml", "galilean_r4.toml", "poincare_c1.toml"):
        code, out = run("check-pair", fx(name))
        assert code == 0, out


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


def test_check_pair_invalid_brackets_exits_3(tmp_path):
    f = tmp_path / "pair.toml"
    f.write_text(
        """
[algebra]
name = "l3"
[chart]
coords = [["z", "line"], ["phi", "angle"]]
[action]
e1 = ["1", "0"]
e2 = ["0", "1"]
e3 = ["0", "z"]
"""
    )
    code, out = run("check-pair", str(f))
    assert code == 3
    assert "violated" in out


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


@pytest.mark.parametrize(
    "name", ["l3_cylinder", "translations_r3", "so3_sphere", "galilean_r4", "poincare_c1"]
)
def test_k_spaces_machine_output_pinned(name, monkeypatch):
    """Full machine output, representatives included, against files captured
    before the K-spaces were rebuilt on the action table."""
    monkeypatch.chdir(ROOT)
    code, out = run("--format", "machine", "k-spaces", f"src/lagfloor/fixtures/{name}.toml")
    assert code == 0
    assert out == (GOLDEN / "k_spaces" / f"{name}.txt").read_text()
