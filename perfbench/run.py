"""lagfloor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: fixtures_cli, classify_stream,
linalg_spectral (see NOTES.md).  Every process is a fresh interpreter that
imports lagfloor from ``src/`` of this checkout.

``--trace 0`` sets the workload up several times (setup_s is the median),
then measures whole passes for about S seconds, with no spans, and reports
the end-to-end metrics.  ``--trace 1`` runs the workload's fixed op list
twice, once plain and once under spans, and reports the per-layer metrics
and the tracing overhead; the two runs must give byte-equal outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give each
metric with its unit, fail_frac and the environment.  Exit code 0 means a
result was printed; any error exits nonzero with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import clock  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

RUN_LIMIT_S = 175  # the whole run, every process included
SETUP_RUNS = {"fixtures_cli": 9, "classify_stream": 3, "linalg_spectral": 3}
EXIT_ERROR = 1
EXIT_ENV = 2


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def worker(self, mode, tag, traced=False):
        """Start one worker; returns (reference seconds until it was ready, its report)."""
        a = self.args
        out = self.dir / tag / "result.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
                "--mode", mode, "--out", str(out), "--seconds", str(a.seconds)]
        if traced:
            argv.append("--traced")
        if a.limit is not None:
            argv += ["--limit", str(a.limit)]
        with open(out.parent / "stderr.txt", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(pure=bool(a.trace)), stdout=subprocess.PIPE,
                                    stderr=err, start_new_session=True)
            try:
                line = proc.stdout.readline()
                setup_raw_s = perf_counter() - t0
                proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - self.start)))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"{mode} worker ran past the {RUN_LIMIT_S} s limit")
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            tail = (out.parent / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
        with open(out.parent / "setup_speed.json") as fh:
            setup_s = clock.scale_sampled(setup_raw_s, json.load(fh))
        if mode == "setup":
            return setup_s, None
        with open(out) as fh:
            return setup_s, json.load(fh)

    def end_to_end(self):
        setups = [self.worker("setup", f"setup{i}")[0] for i in range(SETUP_RUNS[self.args.workload] - 1)]
        setup_s, rep = self.worker("run", "run")
        setups.append(setup_s)
        lat = sorted(rep["latencies"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(rep["passes"]), "s"),
            "ops_per_s": (len(lat) / sum(rep["passes"]), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0], "s"),
            "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        }
        info = {"ops": len(lat), "passes": len(rep["passes"]), "setups": len(setups),
                "raw_wall_s": round(sum(rep["raw_latencies"]) / len(rep["passes"]), 4),
                "raw_op_p50_s": round(statistics.median(rep["raw_latencies"]), 4)}
        return rep, metrics, info

    def per_layer(self):
        from tracer import layer_metrics

        _, plain = self.worker("fixed", "plain")
        _, traced = self.worker("fixed", "traced", traced=True)
        wall_plain, wall_traced = sum(plain["latencies"]), sum(traced["latencies"])
        layers = layer_metrics(traced["summaries"], traced["import_s"], wall_traced, wall_plain)
        metrics = {k: (v, unit) for k, (unit, v) in layers.items()}
        rep = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "env": traced["env"],
        }
        if plain["digest"] != traced["digest"]:
            rep["problems"].append("traced outputs differ from untraced outputs")
        if traced["env"]["kernel_impl"] != "python":  # a compiled row_reduce would get no span
            rep["problems"].append(f"traced run used the {traced['env']['kernel_impl']} kernel, not the Python one")
        info = {"ops": traced["attempted"], "spans": sum(s["span_count"] for s in traced["summaries"])}
        return rep, metrics, info


def check_environment() -> str | None:
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return "python -O strips lagfloor's assert certificates (about 40% of its runtime); run without it"
    if not (ROOT / "src" / "lagfloor" / "__init__.py").is_file():
        return f"no lagfloor sources under {ROOT / 'src'}; run from the root of a lagfloor checkout"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit", type=int, default=None, help="only the first N ops of a pass (tests)")
    args = ap.parse_args(argv)
    problem = check_environment()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return EXIT_ENV
    runner = Runner(args)
    try:
        rep, metrics, info = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_ERROR
    failed = rep["failed"] + (1 if rep["problems"] and not rep["failed"] else 0)
    result = {
        "correct": not rep["problems"],
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(runner.dir / "result.json", "w") as fh:
        json.dump({**result, "env": rep["env"], "info": info, "problems": rep["problems"]}, fh, indent=1)
    print(f"env = {json.dumps(rep['env'], sort_keys=True)}")
    print(f"workload = {args.workload}  seed = {args.seed}  " + "  ".join(f"{k} = {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / rep['attempted']:.6g} (failed or wrong ops / attempted)")
    for p in rep["problems"]:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
