#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload map-ft324 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload daemon-now --seed 1   # held out

Run from the root of a checkout. The script builds
perfbench/ocaml/perfbench.exe with dune, runs the workload in one child
process on one thread, checks its outputs, and prints a table of the
workload's metrics followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 the workload runs twice, once
untraced and once with spans recorded around every call into a layer;
the metrics are the per-layer metrics, the traced run must reproduce
the untraced run's deterministic values exactly, and the difference in
latency is reported as the tracing overhead. Spans are written to
.perfbench/spans-<workload>-<seed>.jsonl.

Exit status: 0 when every output check passed, 1 when one failed (the
JSON line is still printed), 2 or more when the benchmark could not run.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402

TARGET = "./perfbench/ocaml/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "ocaml", "perfbench.exe")
WORK = ".perfbench"
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

# Reference time of the calibration kernel (ms): each timed sample is
# scaled by CAL_REF_MS over the kernel time measured around it, i.e.
# reported as it would read on this repo's reference host at its quiet
# speed.
CAL_REF_MS = 30.0

# The span that encloses each operation, for the coverage figure.
OP_SPAN = {"map-ft324": "map", "shard-ft324": "shard", "serve-ft1k": "serve.batch"}


class Abort(Exception):
    def __init__(self, msg, code=2):
        super().__init__(msg)
        self.code = code


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "ocaml", "dune")):
        if not os.path.exists(need):
            raise Abort("run from the root of a checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise Abort("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", TARGET],
                       stdout=sys.stderr, stderr=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0 or not os.path.exists(EXE):
        raise Abort("build failed", 3)


def run_child(workload, seed, seconds, traced, deadline):
    """One workload process; returns its JSON record."""
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, "tmp-%s-%d" % (workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--tmp", tmp]
    if traced:
        cmd += ["--trace", "--spans",
                os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise Abort("%s did not finish in time" % workload, 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.returncode != 0:
        raise Abort("%s exited with %d" % (workload, r.returncode), 4)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise Abort("%s printed nothing" % workload, 4)
    return json.loads(lines[-1])


# ---------------------------------------------------------------------
# Metrics


def speed(out):
    """How much slower than the reference the host ran during the
    operations: the median calibration-kernel time over the reference."""
    return statistics.median(out["samples"]["cal_ms"]) / CAL_REF_MS


def slowdown(out, t0, dur):
    """How much slower than the reference the host ran around the piece
    of work that started at t0 and lasted dur seconds: the mean of the
    kernel runs just before and just after it, over the reference."""
    at, ms = out["samples"]["cal_t"], out["samples"]["cal_ms"]
    i = bisect.bisect_right(at, t0) - 1
    j = bisect.bisect_left(at, t0 + dur)
    near = ([ms[i]] if i >= 0 else []) + ([ms[j]] if j < len(at) else [])
    return statistics.fmean(near) / CAL_REF_MS


def setup_s(out):
    """The median set-up sample, each scaled by the kernel time measured
    around it."""
    return statistics.median(s * CAL_REF_MS / k
                             for s, k in zip(out["setup_s"], out["setup_cal_ms"]))


def end_to_end(out):
    lat = [ms / slowdown(out, t, ms / 1e3) for ms, t in zip(out["op_ms"], out["op_t"])]
    busy = sum(s / slowdown(out, t, s) for _, s, t in out["work_parts"])
    return {
        "setup_s": setup_s(out),
        "latency_ms_p50": stats.summarize(lat)["median"],
        "work_per_s": out["work"] / busy,
        "heap_peak_mb": out["heap_peak_mb"],
    }


def failed_frac(out):
    return out["failed"] / max(1, out["attempted"])


def workload_rows(workload, out):
    """The workload's own metrics, named as a user of that path would:
    (name, unit, better, value, note)."""
    lat = stats.summarize(out["op_ms"])
    v = out["values"]
    rows = [("setup_s", "s", "lower", statistics.median(out["setup_s"]),
             "n=%d" % len(out["setup_s"]))]

    def tail_rows(name):
        rows.append(("%s_p50" % name, "ms", "lower", lat["median"], "n=%d" % lat["n"]))
        if lat["tail_pct"] in (None, 50.0):
            rows.append(("%s_tail" % name, "ms", "lower", None,
                         "n=%d: too few samples for a tail above p50" % lat["n"]))
        else:
            rows.append(("%s_%s" % (name, stats.pct_label(lat["tail_pct"])),
                         "ms", "lower", lat["tail"],
                         "n=%d, %d beyond" % (lat["n"], stats.beyond(lat["n"], lat["tail_pct"]))))

    if workload in ("map-ft324", "shard-ft324"):
        rows.append(("wall_s", "s", "lower", lat["median"] / 1e3, "n=%d" % lat["n"]))
        rows.append(("probes", "count", "lower", v["probes"], "deterministic"))
        rows.append(("sim_ms", "ms", "lower", v["sim_ms"], "simulated"))
    elif workload == "serve-ft1k":
        rows.append(("lookups_per_s", "1/s", "higher", out["work"] / out["busy_s"],
                     "%d queries" % out["work"]))
        tail_rows("batch_ms")
    elif workload == "daemon-now":
        rows.append(("probes", "count", "lower", v["probes"], "first run, deterministic"))
        tail_rows("remap_ms")
        conv = out["samples"].get("converge_sim_ms", [])
        rows.append(("converge_sim_ms_p50", "ms", "lower",
                     statistics.median(conv) if conv else None,
                     "simulated, n=%d" % len(conv)))
        rows.append(("delta_bytes", "B", "lower", v["delta_bytes"],
                     "first run, deterministic"))
    rows.append(("heap_peak_mb", "MB", "lower", out["heap_peak_mb"], ""))
    rows.append(("failed_frac", "ratio", "lower", failed_frac(out),
                 "%d/%d" % (out["failed"], out["attempted"])))
    return rows


def per_layer(workload, plain, traced, bench):
    """Per-layer metrics from the traced run, plus the workload-level
    figures of the untraced run (run.*) and the tracing overhead."""
    layers = dict(traced["layers"])
    lat = stats.summarize(plain["op_ms"])
    v = plain["values"]
    # Both runs' latencies at reference host speed, so that drift between
    # the two runs does not pass for tracing overhead.
    layers["trace.overhead_frac"] = (
        end_to_end(traced)["latency_ms_p50"] / end_to_end(plain)["latency_ms_p50"]
        - 1.0)
    root = OP_SPAN.get(workload)
    if root is not None and root in traced["spans"]:
        s = traced["spans"][root]
        layers["trace.span_coverage"] = (s["total_s"] - s["self_s"]) / traced["busy_s"]
    layers["run.latency_samples"] = lat["n"]
    layers["run.raw_latency_ms_p50"] = lat["median"]
    layers["run.cal_ms"] = statistics.median(plain["samples"]["cal_ms"])
    if workload in ("serve-ft1k", "daemon-now") and lat["tail_pct"] is not None:
        layers["run.latency_ms_tail"] = lat["tail"]
        layers["run.latency_tail_pct"] = lat["tail_pct"]
    if "probes" in v:
        layers["run.probes"] = v["probes"]
    if "sim_ms" in v:
        layers["run.sim_ms"] = v["sim_ms"]
    conv = plain["samples"].get("converge_sim_ms")
    if conv:
        layers["run.converge_sim_ms_p50"] = statistics.median(conv)
    if "delta_bytes" in v:
        layers["run.delta_bytes"] = v["delta_bytes"]
    layers["run.failed_frac"] = failed_frac(plain)
    design = {m["name"]: m for m in spec.PER_LAYER}
    metrics = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name in layers:
            metrics[name] = layers[name]
        elif workload in design.get(name, {}).get("workloads", ()):
            raise Abort("%s: per-layer metric %s was not measured" % (workload, name), 5)
        else:
            metrics[name] = 0  # the layer is bypassed on this workload
    return metrics


def compare_det(plain, traced):
    """Deterministic values the traced run must reproduce exactly."""
    bad = []
    for k, want in sorted(plain["det"].items()):
        got = traced["det"].get(k)
        if got != want:
            bad.append("traced run changed %s: %r -> %r" % (k, want, got))
    return len(plain["det"]), bad


def fmt(x):
    if x is None:
        return "-"
    if isinstance(x, float) and not x.is_integer():
        return "%.6g" % x
    return "%d" % x


def run_workload(workload, seed, seconds, trace, bench):
    deadline = time.monotonic() + DEADLINE_S
    plain = run_child(workload, seed, seconds, False, deadline)
    attempted, failed = plain["attempted"], plain["failed"]
    failures = list(plain["failures"])
    print("== %s  seed %d  %.1f s measured, %d operations; host speed "
          "%.3fx the reference (calibration kernel %.2f ms, reference %.0f ms)"
          % (workload, seed, plain["busy_s"], len(plain["op_ms"]),
             1 / speed(plain), statistics.median(plain["samples"]["cal_ms"]),
             CAL_REF_MS))
    for name, unit, better, value, note in workload_rows(workload, plain):
        print("  %-22s %14s %-6s %-6s %s" % (name, fmt(value), unit, better, note))
    print("  details: " + ", ".join("%s=%s" % (k, fmt(v))
                                    for k, v in sorted(plain["values"].items())))
    if trace:
        traced = run_child(workload, seed, seconds, True, deadline)
        n, bad = compare_det(plain, traced)
        attempted += traced["attempted"] + n
        failed += traced["failed"] + len(bad)
        failures += traced["failures"] + bad
        metrics = per_layer(workload, plain, traced, bench)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print("  traced: overhead %+.2f%%, %d spans aggregated, %d events dropped"
              % (100 * metrics["trace.overhead_frac"],
                 sum(s["count"] for s in traced["spans"].values()),
                 traced["spans_dropped"]))
        for name in sorted(metrics):
            print("  %-30s %14s %s" % (name, fmt(metrics[name]), units[name]))
    else:
        metrics = end_to_end(plain)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for f in failures:
        print("  CHECK FAILED: %s" % f)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json or a held-out "
                    "one, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.exists("BENCHMARK.json"):
            raise Abort("run from the root of a checkout: BENCHMARK.json is missing")
        bench = spec.read("BENCHMARK.json")
        names = [w["name"] for w in bench["workloads"]]
        # A held-out workload (spec.HELD_OUT) is not in BENCHMARK.json,
        # but runs by name and under 'all', with every metric of the
        # benchmark's definition.
        held = [w for w in spec.HELD_OUT if w not in names]
        todo = names + held if args.workload == "all" else [args.workload]
        for w in todo:
            if w not in names + held:
                raise Abort("unknown workload %s (have %s)"
                            % (w, ", ".join(names + held)))
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        build()
        results = {}
        for w in todo:
            if w in held:
                print("perfbench: %s is held out of BENCHMARK.json: %s"
                      % (w, spec.HELD_OUT[w]), file=sys.stderr)
            results[w] = run_workload(w, args.seed, seconds, args.trace,
                                      spec.benchmark_json(held_out=True)
                                      if w in held else bench)
    except Abort as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return e.code
    sys.stdout.flush()
    if len(todo) == 1:
        print(json.dumps(results[todo[0]]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
