#!/usr/bin/env python3
"""Checks the simulator's bit-identity invariant through the benchmark.

    python3 perfbench/test_sim_digest.py [--scale 16] [--workloads W ...]

For each workload it runs the benchmark twice with GPUJOIN_SIM_THREADS=4
and once with GPUJOIN_SIM_THREADS=1, one pass each, and requires the same
sim_digest (a hash of every simulated cycle count, KernelStats counter,
peak device byte count and output digest) and the same sim-clock metrics
from all three. Exits 0 when every workload agrees. A smaller
--scale keeps the single-threaded runs short; the invariant holds at any
scale.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_METRICS = ("sim_mtuples_s", "query_sim_ms_p50", "query_sim_ms_tail",
               "makespan_sim_ms", "peak_device_mb")


def run(workload, scale, threads, seed):
    env = dict(os.environ, GPUJOIN_SCALE=str(scale),
               GPUJOIN_SIM_THREADS=str(threads))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setups", "1", "--trace", "0"],
        env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
        raise SystemExit("%s failed (threads=%d)" % (workload, threads))
    digest = re.search(r"^\[check\] sim_digest (\S+)$", out.stdout, re.M).group(1)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return digest, {k: metrics[k]["value"] for k in SIM_METRICS}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+",
                   default=["tpc-join", "groupby-sweep", "service-mix"])
    args = p.parse_args()
    ok = True
    for w in args.workloads:
        runs = [run(w, args.scale, t, args.seed) for t in (4, 4, 1)]
        same = all(r == runs[0] for r in runs)
        print("%-14s sim_digest %s  threads 4/4/1 %s" %
              (w, runs[0][0], "identical" if same else "DIFFER"))
        if not same:
            ok = False
            for t, r in zip((4, 4, 1), runs):
                print("  threads=%d %s %s" % (t, r[0], r[1]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
