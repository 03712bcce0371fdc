"""One `lagfloor` command in a fresh interpreter: ``lagfloor.cli.main(argv)``.

    python3 perfbench/cli_child.py [--trace PREFIX] [--speed FILE] -- <lagfloor arguments>

The exit code and standard output are the command's own.  With ``--trace``
the command runs under the span recorder; the per-layer summary goes to
``PREFIX.summary.json`` and the raw spans to ``PREFIX.json``/``PREFIX.bin``.
With ``--speed`` the reference kernel is timed in this process while the
command runs (see clock.py), and the timings go to FILE.
"""

import json
import sys
from time import perf_counter

EXIT_ENV = 70


def main(argv):
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O (it strips lagfloor's assert certificates)",
              file=sys.stderr)
        return EXIT_ENV
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    trace_prefix = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    speed_path = opts[opts.index("--speed") + 1] if "--speed" in opts else None

    if speed_path is not None:
        from clock import Sampler

        sampler = Sampler()
        sampler.start()
        try:
            import lagfloor.cli

            return lagfloor.cli.main(cli_args)
        finally:
            sampler.stop()
            with open(speed_path, "w") as fh:
                json.dump(sampler.report(), fh)

    t0 = perf_counter()
    import lagfloor.cli

    import_s = perf_counter() - t0
    if trace_prefix is None:
        return lagfloor.cli.main(cli_args)

    from tracer import Tracer, install

    tracer = install(Tracer())
    tracer.op_id = 0
    tracer.on = True
    try:
        code = lagfloor.cli.main(cli_args)
    finally:
        tracer.on = False
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(trace_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        tracer.dump(trace_prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
