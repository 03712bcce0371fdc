"""One benchmark process: set a workload up, then run its ops in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|fixed
        --out FILE [--seconds S] [--traced] [--limit N]

The worker prints ``ready`` once set-up is done (imports, inputs drawn from
the seed, warm-up), so that the parent can time set-up from spawn to that
line; the reference-kernel timings taken during set-up go to
``setup_speed.json`` beside ``--out``.  ``setup`` mode stops there.  ``run`` mode repeats whole passes of the
workload's ops while another pass still fits in ``--seconds``, at least one.
``fixed`` mode runs the workload's fixed op list once, optionally under
spans (``--traced``).  Oracles run after the timed loop.  The result goes to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import clock

EXIT_ENV = 70
MAX_PROBLEMS = 20


def peak_rss_so_far_mb() -> float:
    """The high-water resident set of this process and of its finished
    children (the fixtures_cli commands), whichever is larger.

    It is read at the end of the first pass, before any oracle runs: the
    oracles import sympy, and lagfloor's CE differential cache keeps every
    pass's GModule alive, so a later reading would grow with the pass count.
    """
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_ops(wl, ops, tracer, trace_dir, speed_path):
    """Run ops one after another; returns raw latencies, latencies to report
    and results.

    With ``speed_path`` (``run`` mode) the reference kernel is sampled inside
    the thread doing the work: here for in-process workloads, in the
    command's process for fixtures_cli, and the reported latencies are in
    reference seconds (see clock.py).  Without it (``fixed`` mode, traced or
    not) no kernel runs and the reported latencies are the raw ones, as are
    those of a command that died before writing its timings.
    """
    raw, reported, results = [], [], []
    for i, op in enumerate(ops):
        prefix = str(trace_dir / f"op{i}") if (tracer is None and trace_dir) else None
        sampler = clock.Sampler() if speed_path and not wl.in_child else None
        if tracer is not None:
            tracer.op_id = i
            tracer.on = True
        if sampler:
            sampler.start()
        elif speed_path:
            speed_path.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            res, err = wl.run_op(op, prefix, speed_path), None
        except Exception:
            res, err = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if sampler:
            sampler.stop()
        if tracer is not None:
            tracer.on = False
        raw.append(dt)
        if sampler:
            reported.append(clock.scale_sampled(dt, sampler.report()))
        elif speed_path and speed_path.exists():
            with open(speed_path) as fh:
                reported.append(clock.scale_sampled(dt, json.load(fh)))
        else:
            reported.append(dt)
        results.append((op, res, err))
    return raw, reported, results


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "fixed"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return EXIT_ENV
    out_path = Path(args.out)
    setup_sampler = clock.Sampler()
    setup_sampler.start()

    t0 = perf_counter()
    import lagfloor
    import lagfloor.cli  # noqa: F401 - the whole package, as the command loads it

    import_s = perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(lagfloor.__file__).resolve().parent.parent != src:
        print(f"perfbench: lagfloor was imported from {lagfloor.__file__}, not from {src}", file=sys.stderr)
        return EXIT_ENV

    from workloads import WORKLOADS, output_digest

    tracer = None
    if args.traced and not WORKLOADS[args.workload].in_child:
        from tracer import Tracer, install

        tracer = install(Tracer())
    wl = WORKLOADS[args.workload](args.seed, args.limit)
    setup_sampler.stop()
    with open(out_path.parent / "setup_speed.json", "w") as fh:
        json.dump(setup_sampler.report(), fh)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    trace_dir = out_path.parent / "spans" if args.traced else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    fixed = args.mode == "fixed"
    ops = wl.fixed_ops() if fixed else wl.ops

    speed_path = None if fixed else out_path.parent / "speed.json"
    raw, latencies, results, passes = [], [], [], []
    start = perf_counter()
    longest = 0.0
    while True:
        t_pass = perf_counter()
        r, lat, res = run_ops(wl, ops, tracer, trace_dir, speed_path)
        longest = max(longest, perf_counter() - t_pass)
        passes.append(sum(lat))
        raw += r
        latencies += lat
        results += res
        if len(passes) == 1:
            peak_rss_mb = peak_rss_so_far_mb()
        if fixed or perf_counter() - start + longest > args.seconds:
            break

    problems, failed = [], 0
    for op, res, err in results:
        found = [err] if err else wl.check_op(op, res)
        if found:
            failed += 1
            problems += [f"{json.dumps(op, default=str)[:200]}: {p}" for p in found]
    report = {
        "import_s": import_s,
        "latencies": latencies,
        "raw_latencies": raw,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "digest": output_digest(wl.result_text(out) if out is not None else "error" for _, out, _ in results),
        "env": {
            "python": sys.version.split()[0],
            "kernel_impl": getattr(lagfloor, "KERNEL_IMPL", "none"),
            "LAGFLOOR_PURE": os.environ.get("LAGFLOOR_PURE", ""),
            "nproc": os.cpu_count(),
        },
    }
    if tracer is not None:
        report["summaries"] = [tracer.summary()]
        tracer.dump(str(trace_dir / "spans"))
    elif trace_dir is not None:
        report["summaries"] = []
        for i in range(len(results)):
            with open(trace_dir / f"op{i}.summary.json") as fh:
                report["summaries"].append(json.load(fh))
        report["import_s"] = sum(s["import_s"] for s in report["summaries"])
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
