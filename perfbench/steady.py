#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are, and record it.

    python3 perfbench/steady.py --runs 10 --first-seed 101 [--workload W ...]
        [--record perfbench/steadiness.json] [--unseen-seed 9001]

Runs `perfbench/run.py --trace 0` once per seed on each workload (seeds
first-seed, first-seed+1, ...), then reports for every end-to-end metric
its median, quartiles and spread: the inter-quartile distance as a share
of the median, as statistics.quantiles(values, n=4) gives the quartiles.
A spread must stay under a third of the metric's bound in
BENCHMARK.json. A run whose output checks failed still gives its
figures, and is listed. With --unseen-seed, each workload also runs
once on that seed, and the result is set against the quartiles. With
--record the figures are written to a JSON file. The exit status is 0
only when every spread is steady and every run passed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    if "metrics" not in out:
        raise SystemExit("%s seed %d gave no result (exit %d)"
                         % (workload, seed, r.returncode))
    failed = None
    if r.returncode != 0 or not out["correct"]:
        failed = {"seed": seed, "exit": r.returncode, "failed": out["failed"],
                  "attempted": out["attempted"]}
    return ({k: v["value"] for k, v in out["metrics"].items()}, failed,
            time.monotonic() - t0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--unseen-seed", type=int)
    ap.add_argument("--record")
    args = ap.parse_args()
    bench = spec.read("BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"runs": args.runs, "seeds": [args.first_seed,
                                           args.first_seed + args.runs - 1],
              "workloads": {}}
    ok = True
    for w in workloads:
        values = {m: [] for m in bounds}
        walls = []
        failed_runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            got, failed, wall = run(w, seed, args.seconds)
            walls.append(wall)
            if failed:
                failed_runs.append(failed)
            for m in bounds:
                values[m].append(got[m])
            print("%s seed %d (%.0f s)%s: %s"
                  % (w, seed, wall, " CHECKS FAILED" if failed else "",
                     json.dumps(got)), file=sys.stderr)
        ok = ok and not failed_runs
        rec = {"run_wall_s_max": max(walls), "failed_runs": failed_runs,
               "metrics": {}}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            sp = stats.spread(vs)
            steady = sp < bounds[m] / 3
            ok = ok and steady
            rec["metrics"][m] = {"median": statistics.median(vs), "q1": q1,
                                 "q3": q3, "spread": sp, "bound": bounds[m],
                                 "steady": steady, "values": vs}
            print("%-12s %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f)%s" % (w, m, statistics.median(vs), q1, q3, sp,
                                      bounds[m], "" if steady else "  UNSTEADY"))
        if failed_runs:
            print("%-12s %d of %d runs failed their output checks: seeds %s"
                  % (w, len(failed_runs), args.runs,
                     ", ".join(str(f["seed"]) for f in failed_runs)))
        if args.unseen_seed is not None:
            got, failed, _ = run(w, args.unseen_seed, args.seconds)
            ok = ok and not failed
            rec["unseen"] = {"seed": args.unseen_seed, "metrics": got,
                             "failed": failed}
            for m, v in got.items():
                med = rec["metrics"][m]["median"]
                print("%-12s %-16s unseen seed %d: %.6g (%+.2f%% of median)"
                      % (w, m, args.unseen_seed, v, 100 * (v / med - 1)))
        record["workloads"][w] = rec
        sys.stdout.flush()
    if args.record:
        with open(args.record, "w") as f:
            f.write(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
