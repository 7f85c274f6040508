#!/usr/bin/env python3
"""Gate simulator throughput against a parent checkout on the same host.

Usage: python3 tools/perf_ab.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs `python3 perfbench/run.py --workload fig6 --seed N --seconds 10
--trace 0` in each checkout as three pairs (seeds 1-3, the side that
runs first alternating), prints each pair, each run's perfbench record
line as {"side": ..., "record": {...}}, and the medians. perfbench
builds each checkout on its first run, outside the timed part.

Exit status: 0 every run passed and the change's median sim_insts_per_s
is at most 15% below the parent's; 1 a run failed (a build error
included), reported "correct": false, or the change is slower than
that; 2 bad usage.
"""

import json
import os
import statistics
import subprocess
import sys

MAX_REGRESS = 0.15
METRIC = "sim_insts_per_s"


def perfbench(checkout, seed):
    """One timed fig6 pass: (record, sim_insts_per_s), or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "fig6", "--seed", str(seed), "--seconds", "10",
         "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = proc.returncode == 0 and result["correct"] is True
        value = float(result["metrics"][METRIC]["value"])
    except (IndexError, KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-2000:])
        print("FAIL: %s seed %d exited %d without a correct result"
              % (checkout, seed, proc.returncode))
        return None
    return record, value


def main(argv):
    if len(argv) != 3 or not all(
            os.path.isfile(os.path.join(d, "perfbench", "run.py"))
            for d in argv[1:]):
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    sides = {"parent": argv[1], "change": argv[2]}
    speeds = {"parent": [], "change": []}
    for seed in (1, 2, 3):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            run = perfbench(sides[side], seed)
            if run is None:
                return 1
            record, value = run
            speeds[side].append(value)
            print(json.dumps(dict(side=side, **record)), flush=True)
        parent, change = speeds["parent"][-1], speeds["change"][-1]
        print("pair %d (%s first): parent %.3f, change %.3f M insts/s, "
              "change/parent %.3f" % (seed, order[0], parent / 1e6,
                                      change / 1e6, change / parent),
              flush=True)
    parent = statistics.median(speeds["parent"])
    change = statistics.median(speeds["change"])
    ok = change >= (1.0 - MAX_REGRESS) * parent
    print("%s: median %s parent %.3f, change %.3f M insts/s, "
          "change/parent %.3f, bound %.2f"
          % ("ok" if ok else "FAIL", METRIC, parent / 1e6, change / 1e6,
             change / parent, 1.0 - MAX_REGRESS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
