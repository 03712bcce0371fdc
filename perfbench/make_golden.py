"""Write golden/fixtures_cli.json: the reference machine output of each command.

    python3 perfbench/make_golden.py

Run it on the reference commit only.  For every fixture command it records
the exit code and the SHA-256 of the machine-format standard output; a
command whose ``--set`` values the seed draws gets a pool of value sets,
each with its own digest.  fixtures_cli then requires byte-identical
output against these digests.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    FIXTURE_COMMANDS,
    GOLDEN,
    FixturesCli,
    command_key,
    fixture_oracle,
    frac_str,
    nonzero_rational,
)

POOL_SIZE = 8


def main():
    commands = {}
    for cmd, fixture, extra, params in FIXTURE_COMMANDS:
        key = command_key(cmd, fixture, extra)
        rng = random.Random(f"pool:{key}")
        sets = [",".join(f"{p}={frac_str(nonzero_rational(rng))}" for p in params) for _ in range(POOL_SIZE)] \
            if params else [""]
        pool = []
        for set_str in sets:
            op = {"cmd": cmd, "fixture": fixture, "extra": list(extra), "set": set_str}
            code, text = FixturesCli.run_op(op)
            problems = fixture_oracle(cmd, fixture, set_str, code, text)
            if problems:
                sys.exit(f"{key} --set {set_str}: {problems}")
            pool.append({"set": set_str, "exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()})
            print(f"{key} {set_str}: exit {code}", flush=True)
        commands[key] = pool
    with open(GOLDEN, "w") as fh:
        json.dump({"commands": commands}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
