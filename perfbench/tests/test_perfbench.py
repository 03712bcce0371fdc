"""Tests of the benchmark itself: wrappers, oracles, determinism, guards.

    python3 -m pytest -q perfbench/tests

The traced runs use ``--limit`` to keep each workload to a few ops.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# workload -> (--limit, metrics that must be nonzero there)
EXERCISED = {
    "fixtures_cli": (4, [
        "expr.ops", "calculus.lie_derivative_calls", "calculus.self_s", "pairs.pi_map_calls",
        "hierarchy.k3_space_s", "exprspace.systems", "problemfile.self_s", "cli.import_s",
        "linalg.self_s", "linalg.rref_calls",
    ]),
    "classify_stream": (20, [
        "pairs.closure_module_s", "hierarchy.phi3_s", "hierarchy.inv_forms_cache_hit_ratio",
        "cecohom.diff_cache_hit_ratio", "calculus.find_potential_found_ratio", "problemfile.self_s",
    ]),
    "linalg_spectral": (6, [
        "linalg.self_s", "linalg.row_reduce_s", "linalg.rref_calls", "linalg.rref_cells",
        "linalg.max_coeff_bits", "spectral.self_s", "cli.import_s",
    ]),
}
# layers an expression-only change must leave flat on linalg_spectral
FLAT_ON_LINALG = ["calculus.lie_derivative_calls", "pairs.pi_map_calls", "hierarchy.k3_space_s", "exprspace.systems"]


def run_bench(workload, seed, trace, limit=None, env=None, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of each workload with one seed, plus the digests."""
    out = {}
    for wl, (limit, _) in EXERCISED.items():
        runs = []
        for _ in range(2):
            res = result_of(run_bench(wl, 7, 1, limit))
            run_dir = ROOT / ".perfbench" / f"{wl}-seed7-trace1"
            digests = [json.loads((run_dir / side / "result.json").read_text())["digest"]
                       for side in ("plain", "traced")]
            runs.append((res, digests))
        out[wl] = runs
    return out


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_layer_metrics_nonzero_where_exercised(traced_twice, workload):
    res, _ = traced_twice[workload][0]
    assert res["correct"] and res["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in bench["per_layer"]}
    zero = [m for m in EXERCISED[workload][1] if not res["metrics"][m]["value"]]
    assert not zero, f"zero on {workload}: {zero}"
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_expr_layers_flat_on_linalg(traced_twice):
    res, _ = traced_twice["linalg_spectral"][0]
    assert all(res["metrics"][m]["value"] == 0 for m in FLAT_ON_LINALG)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_outputs_equal_untraced(traced_twice, workload):
    for _, (plain, traced) in traced_twice[workload]:
        assert plain == traced


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_across_traced_runs(traced_twice, workload):
    (a, da), (b, db) = traced_twice[workload]
    assert da == db
    for name, m in a["metrics"].items():
        if m["unit"] in ("count", "bits") or name.endswith("hit_ratio") or name.endswith("found_ratio"):
            assert m["value"] == b["metrics"][name]["value"], name


def test_end_to_end_metrics_and_units():
    res = result_of(run_bench("classify_stream", 3, 0, limit=6))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert res["correct"] and res["attempted"] >= 6 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_python_optimize():
    proc = run_bench("classify_stream", 1, 0, limit=1, env={**os.environ, "PYTHONOPTIMIZE": "1"})
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_bench("fixtures_cli", 1, 0, env=env, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


# -- the oracles reject wrong answers ------------------------------------------

def test_fixture_oracle_rejects_wrong_dims():
    good = "command = k-spaces\nk0 = 1\nk1 = 0\nk2 = 1\nk3 = 0\nk4 = 0\n"
    assert workloads.fixture_oracle("k-spaces", "galilean_r4", "", 0, good) == []
    assert workloads.fixture_oracle("k-spaces", "galilean_r4", "", 0, good.replace("k1 = 0", "k1 = 1"))
    assert workloads.fixture_oracle("k-spaces", "galilean_r4", "", 3, good)


def test_charge_oracle():
    got = ["dq1 - 4*q2 - 3*tau", "dq2 + 4*q1 + tau"]
    want = workloads.translation_charges(1, {(0, 1): 2}, [3, -1])
    assert [workloads.same_expression(g, w) for g, w in zip(got, want)] == [True, True]
    assert not workloads.same_expression(got[0], want[1])


def test_stream_rules():
    F = Fraction
    l3 = {"a": F(1), "b": F(0), "c": F(0), "d": F(2), "q": F(0)}
    assert workloads.stream_expectation("l3", l3) == {"floor": 3, "sign": "-"}
    assert workloads.stream_expectation("sph", {"m": F(1), "g": F(2)})["cert"] == ["-2"]


def test_total_dims_oracle_on_a_zigzag():
    from lagfloor.linalg import Mat

    one = Mat.from_rows([[1]])
    dims = [[0, 1], [1, 1], [1, 0]]
    d1 = {(1, 0): one}
    d2 = {(0, 1): one, (1, 0): one}
    assert workloads.total_dims_oracle(dims, d1, d2) == [0, 0, 0, 0]
    assert workloads.total_dims_oracle([[1, 1]], {}, {}) == [1, 1]


def test_ce_oracle_matches_hand_values():
    dims = workloads.ce_dims_oracle("galilean", {})
    assert dims[1] == 1 and dims[2] == 1
    assert workloads.ce_dims_oracle("so3", {})[1] == 0
