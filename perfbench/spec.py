"""The benchmark's definition, and the writer and reader of BENCHMARK.json.

`python3 perfbench/spec.py` rewrites BENCHMARK.json at the repo root
and perfbench/design.json from the tables below. BENCHMARK.json holds
only what its fixed format allows (command, paths, run length,
workloads with a one-line reason, metrics with unit, direction and
bound), and leaves out the workloads in HELD_OUT. design.json keeps the
rest: each workload's loop type, caller count, seed use and the layers
it exercises or bypasses, the held-out workloads and why, and for each
per-layer metric the end-to-end metric and workload it should move.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DESIGN_JSON = os.path.join(HERE, "design.json")

COMMAND = ["python3", "perfbench/run.py"]
FT324 = "levels=3,radix=12,edge=54,hosts=6"
PATHS = ["perfbench"]
RUN_SECONDS = 30
# Epochs of each daemon run (perfbench.ml's daemon_epochs; a test checks they agree).
DAEMON_EPOCHS = 10

LAYERS = {
    "fabric": "San_fabric",
    "simnet": "San_simnet",
    "mapper": "San_mapper",
    "topology": "San_topology",
    "routing": "San_routing",
    "service": "San_service",
    "why": "San_why",
    "obs": "San_obs",
    "shard": "San_shard",
}

NOT_ON_A_WORKLOAD = {
    "San_myricom": "no workload calls it",
    "San_cover": "no workload calls it",
    "San_check": "no workload calls it",
    "San_slo": "no workload calls it directly; the daemon and the shard "
    "runner use its digests internally, which are not timed apart",
    "San_telemetry": "no workload calls it directly; the daemon feeds its "
    "health window internally, which is not timed apart",
}

WORKLOADS = [
    {
        "name": "map-ft324",
        "why": "closed loop, 1 caller: san_map map on ft-324, a 3-tier fat-"
        "tree (oracle depth, Berkeley map, Iso.check, export); the oracle, "
        "simnet and mapper work, routing none",
        "loop": "closed",
        "callers": 1,
        "seed": "fabric seed, as `san_map map -t fabric:" + FT324 + " "
        "--seed N`; the spec has no irregularity, so every seed yields the "
        "same wiring; the mapper is the first host",
        "fabric": "ft-324 = " + FT324 + ": 324 hosts, 135 switches, three "
        "tiers, radix 12. ft-1k maps take 9 s each, and this host's speed "
        "drifts on that time scale, so a 20 s run of ft-1k maps gave "
        "spreads of 0.16-0.19; a ft-324 map takes about 1.5 s, half of "
        "it in the oracle, as on ft-1k",
        "operation": "one map: oracle depth, exploration, finish, "
        "Iso.check against N - F, JSON and DOT export",
        "work_unit": "probes",
        "exercises": ["fabric", "topology", "simnet", "mapper"],
        "bypasses": ["routing", "service", "why", "obs", "shard"],
        "settings": "ledger and observability off (the CLI default)",
    },
    {
        "name": "shard-ft324",
        "why": "closed loop, 1 caller: 4-shard Runner.run on ft-324 plus "
        "Iso.check; same probe and model layers as map-ft324 but depth "
        "comes from the region plan, so no oracle",
        "loop": "closed",
        "callers": 1,
        "fabric": "ft-324, as map-ft324; at 459 nodes it is above the "
        "planner's 300-node limit for per-root oracle depths, so depths "
        "come from the region radius as on ft-1k",
        "seed": "fabric seed, as for map-ft324; the region plan keeps the "
        "CLI's default seed 1, because plan costs differ by up to a third "
        "between plan seeds and would swamp a change's effect",
        "operation": "one sharded map: plan, four shard maps, merge, "
        "Iso.check of the merged map against N - F",
        "work_unit": "probes",
        "exercises": ["fabric", "topology", "simnet", "mapper", "shard"],
        "bypasses": ["routing", "service", "why", "obs"],
        "settings": "ledger and observability off",
    },
    {
        "name": "serve-ft1k",
        "why": "closed loop, 1 caller: 10k-query Serve.batch calls on "
        "ft-1k from a hot set that fits the 64-table cache, new tables "
        "in 1 batch of 10; routing reads only",
        "loop": "closed",
        "callers": 1,
        "seed": "the hot set (16 destinations), the 96 outside "
        "destinations, the query stream and the trickle of outside "
        "destinations",
        "operation": "one Serve.batch of 10,000 queries",
        "work_unit": "lookups",
        "exercises": ["fabric", "routing"],
        "bypasses": ["simnet", "mapper", "topology oracle", "service",
                     "why", "obs", "shard"],
        "settings": "cache_limit 64; 16 hot destinations; one of 96 "
        "outside destinations in about one batch in ten",
    },
    {
        "name": "daemon-now",
        "why": "closed loop, 1 caller: Daemon.run on the paper's NOW "
        "under the seeded rolling scenario, ledger, obs and flight "
        "recorder on; routing writes, why and obs run",
        "loop": "closed",
        "callers": 1,
        "seed": "draws the config seed of each successive %d-epoch run, "
        "as `san_map daemon -t now-cab --epochs %d --scenario rolling "
        "--seed S`; the seed picks the switches the rolling upgrade pulls"
        % (DAEMON_EPOCHS, DAEMON_EPOCHS),
        "operation": "one remap epoch (verify, Berkeley remap, routes, "
        "delta distribution); %d-epoch runs repeat, each from a cold start"
        % DAEMON_EPOCHS,
        "work_unit": "probes",
        "exercises": ["fabric", "topology", "simnet", "mapper", "routing",
                      "service", "why", "obs"],
        "bypasses": ["shard"],
        "settings": "the CLI defaults: ledger, observability and flight "
        "recorder on; recordings go to a scratch directory",
    },
]

ALL = [w["name"] for w in WORKLOADS]

# Workloads that run by name but are left out of BENCHMARK.json, with
# the reason. The benchmark format admits only workloads on which no
# operation fails.
HELD_OUT = {
    "daemon-now": "fails its final-map check on nearly every run because "
    "of a daemon defect: under the rolling scenario the daemon sometimes "
    "does not notice a switch put back, so its final map misses the "
    "hosts behind it, or holds only the leader when the pulled switch "
    "was the leader's own (san_map daemon -t now-cab --scenario rolling "
    "--epochs 10 ends at coverage 1/1 with --seed 12 and 95/95 with "
    "--seed 314062286). The check stands; the workload goes back into "
    "BENCHMARK.json once the daemon is fixed",
}
LISTED = [w for w in ALL if w not in HELD_OUT]

NORMALIZED = (
    "; each timed piece scaled by 30 ms over the mean of the "
    "calibration-kernel runs just before and after it, so host speed "
    "drift cancels (the raw median is run.raw_latency_ms_p50)")

END_TO_END = [
    {
        "name": "setup_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "meaning": "median set-up sample, each scaled by 30 ms over the "
        "calibration-kernel time around it: a fabric build (map, shard: 25 "
        "samples of thirty builds); for serve a fabric build, Serve.create "
        "and warming the hot set (15 samples); for the daemon the NOW "
        "build and cold-start epoch of every run but the first. Samples "
        "are taken after the heap figure is read",
    },
    {
        "name": "latency_ms_p50",
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "meaning": "median host latency of the workload's operation: a "
        "verified, exported map (map-ft324), a verified sharded map "
        "(shard-ft324), a 10k-query batch (serve-ft1k), a remap epoch "
        "(daemon-now)" + NORMALIZED,
    },
    {
        "name": "work_per_s",
        "unit": "1/s",
        "better": "higher",
        "bound": 0.25,
        "meaning": "work units per host second over every timed "
        "operation: probes (map, shard, daemon steady-state epochs) or "
        "answered lookups (serve)" + NORMALIZED,
    },
    {
        "name": "heap_peak_mb",
        "unit": "MB",
        "better": "lower",
        "bound": 0.25,
        "meaning": "Gc top heap after one set-up and a fixed number of "
        "operations, before any calibration kernel or set-up sample runs: "
        "1 map, 1 sharded map, 500 batches; on the daemon, after the "
        "first run's cold-start epoch, because the peak of a run's remaps "
        "depends on which switches its schedule pulls",
    },
]


def _pl(name, unit, better, where, moves, still=(), meaning=""):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "workloads": list(where),
        "moves": [{"metric": m, "workload": w} for m, w in moves],
        "no_change_on": list(still),
        "meaning": meaning,
    }


MDS = ("map-ft324", "daemon-now")
PER_LAYER = [
    _pl("fabric.build_s", "s", "lower", ALL,
        [("setup_s", w) for w in ALL],
        meaning="fabric (or NOW) build time, median"),
    _pl("topology.oracle_s", "s", "lower", MDS,
        [("latency_ms_p50", "map-ft324"), ("latency_ms_p50", "daemon-now")],
        ["shard-ft324", "serve-ft1k"],
        "Berkeley.resolve_depth Oracle (Core_set.search_depth) per map; "
        "on the daemon, one replay on the unchanged NOW"),
    _pl("topology.iso_s", "s", "lower", ("map-ft324", "shard-ft324",
                                         "daemon-now"),
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "Iso.check against N - F per map"),
    _pl("topology.export_s", "s", "lower", MDS,
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "Serial JSON and DOT export per map"),
    _pl("simnet.probe_s", "s", "lower", MDS,
        [("latency_ms_p50", "map-ft324"), ("work_per_s", "map-ft324")],
        ["serve-ft1k"],
        "time inside sv_host_probe/sv_switch_probe per map"),
    _pl("simnet.probes", "count", "lower", ("map-ft324", "shard-ft324",
                                            "daemon-now"),
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "probes per map (deterministic)"),
    _pl("simnet.hit_ratio", "ratio", "higher", ("map-ft324", "shard-ft324",
                                                "daemon-now"),
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "probes answered / probes sent"),
    _pl("mapper.explore_self_s", "s", "lower", MDS,
        [("latency_ms_p50", "map-ft324"), ("latency_ms_p50", "shard-ft324"),
         ("latency_ms_p50", "daemon-now")], ["serve-ft1k"],
        "explore_service minus its probe calls: engine and model"),
    _pl("mapper.finish_s", "s", "lower", MDS,
        [("latency_ms_p50", "map-ft324"), ("latency_ms_p50", "daemon-now")],
        ["serve-ft1k"], "Berkeley.finish: prune and export the model"),
    _pl("mapper.explorations", "count", "lower", MDS,
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "switch explorations per map (deterministic)"),
    _pl("mapper.live_created_ratio", "ratio", "higher", MDS,
        [("latency_ms_p50", "map-ft324")], ["serve-ft1k"],
        "live model vertices / vertices created: replicate waste"),
    _pl("mapper.alloc_words_per_probe", "words", "lower", MDS,
        [("latency_ms_p50", "map-ft324"), ("latency_ms_p50", "shard-ft324"),
         ("latency_ms_p50", "daemon-now")], ["serve-ft1k"],
        "minor-heap words allocated by exploration and finish per probe "
        "(deterministic)"),
    _pl("mapper.verify_ms", "ms", "lower", ("daemon-now",),
        [("work_per_s", "daemon-now")], ["map-ft324", "shard-ft324"],
        "Incremental.run replay on the unchanged NOW: a verify-only epoch"),
    _pl("routing.lookup_ns", "ns", "lower", ("serve-ft1k",),
        [("work_per_s", "serve-ft1k"), ("latency_ms_p50", "serve-ft1k")],
        ["map-ft324", "shard-ft324", "daemon-now"],
        "Serve.batch time per query once the batch's tables are warm"),
    _pl("routing.warm_hit_ratio", "ratio", "higher", ("serve-ft1k",),
        [("work_per_s", "serve-ft1k"), ("latency_ms_p50", "serve-ft1k")],
        ["map-ft324", "shard-ft324", "daemon-now"],
        "queries whose table was resident / queries"),
    _pl("routing.compile_ms", "ms", "lower", ("serve-ft1k",),
        [("work_per_s", "serve-ft1k"), ("heap_peak_mb", "serve-ft1k")],
        ["map-ft324", "shard-ft324"],
        "Serve.warm over each batch's destinations in first-touch order "
        "(before the batch), per table it compiled; warm calls on resident "
        "tables are hash lookups and are included"),
    _pl("routing.compiles", "count", "lower", ("serve-ft1k",),
        [("work_per_s", "serve-ft1k")], ["map-ft324", "shard-ft324"],
        "tables compiled in the first 500 batches (deterministic)"),
    _pl("routing.pool_cells", "count", "lower", ("serve-ft1k",),
        [("heap_peak_mb", "serve-ft1k")], ["map-ft324", "shard-ft324"],
        "shared route-pool cells after 500 batches (deterministic)"),
    _pl("routing.routes_compute_ms", "ms", "lower", ("daemon-now",),
        [("latency_ms_p50", "daemon-now")], ["map-ft324", "shard-ft324"],
        "Routes.compute replay on the NOW map; Paths is shared with "
        "serve's compile path"),
    _pl("routing.distribute_ms", "ms", "lower", ("daemon-now",),
        [("latency_ms_p50", "daemon-now")], ["map-ft324", "shard-ft324",
                                             "serve-ft1k"],
        "Distribute.simulate replay on the NOW map"),
    _pl("service.remaps", "count", "lower", ("daemon-now",),
        [("latency_ms_p50", "daemon-now")], ["map-ft324"],
        "remap epochs in the first %d-epoch run (deterministic)"
        % DAEMON_EPOCHS),
    _pl("service.delta_ratio", "ratio", "lower", ("daemon-now",),
        [("run.delta_bytes", "daemon-now")], ["map-ft324"],
        "delta bytes / full bytes"),
    _pl("service.dist_messages", "count", "lower", ("daemon-now",),
        [("run.converge_sim_ms_p50", "daemon-now")], ["map-ft324"],
        "worms injected by distribution in the first daemon run"),
    _pl("service.hosts_missed", "count", "lower", ("daemon-now",),
        [("run.converge_sim_ms_p50", "daemon-now")], ["map-ft324"],
        "route slices that never arrived, summed over epochs"),
    _pl("service.final_map_host_frac", "ratio", "higher", ("daemon-now",),
        [], ["map-ft324"],
        "hosts in the daemon's final map / hosts of the NOW, averaged "
        "over the run's daemon runs; a run whose leader the rolling "
        "upgrade cut off ends with a 1-host map, because the daemon never "
        "notices the switch come back, and fails the final-map check"),
    _pl("why.overhead_frac", "ratio", "lower", ("daemon-now",),
        [("latency_ms_p50", "daemon-now")], ["map-ft324"],
        "median remap epoch with the ledger on over one with it off, "
        "minus 1"),
    _pl("obs.overhead_frac", "ratio", "lower", ("daemon-now",),
        [("latency_ms_p50", "daemon-now")], ["map-ft324"],
        "median remap epoch with observability on over one with it off, "
        "minus 1"),
    _pl("shard.plan_s", "s", "lower", ("shard-ft324",),
        [("latency_ms_p50", "shard-ft324")], ["map-ft324"],
        "Region.plan replay"),
    _pl("shard.merge_s", "s", "lower", ("shard-ft324",),
        [("latency_ms_p50", "shard-ft324")], ["map-ft324"],
        "coordinator merge time (merge_ns)"),
    _pl("shard.max_shard_probes", "count", "lower", ("shard-ft324",),
        [("latency_ms_p50", "shard-ft324")], ["map-ft324"],
        "probes of the busiest shard (deterministic); under domains the "
        "wall should follow it"),
    _pl("shard.balance", "ratio", "lower", ("shard-ft324",),
        [("latency_ms_p50", "shard-ft324")], ["map-ft324"],
        "max / mean shard probes"),
    _pl("shard.probe_overhead", "ratio", "lower", ("shard-ft324",),
        [("work_per_s", "shard-ft324"), ("run.probes", "shard-ft324")],
        ["map-ft324"],
        "sharded probes / probes of a solo map from the first host"),
    _pl("gc.alloc_words", "words", "lower", ALL,
        [("latency_ms_p50", w) for w in ALL]
        + [("heap_peak_mb", w) for w in ALL],
        meaning="minor-heap words per operation (per %d-epoch run on the "
        "daemon)" % DAEMON_EPOCHS),
    _pl("gc.major_collections", "count", "lower", ALL,
        [("latency_ms_p50", w) for w in ALL],
        meaning="major collections per operation"),
    _pl("trace.overhead_frac", "ratio", "lower", ALL, [],
        meaning="traced latency_ms_p50 over untraced, minus 1"),
    _pl("trace.span_coverage", "ratio", "higher", ("map-ft324", "shard-ft324",
                                                   "serve-ft1k"), [],
        meaning="self time of the layer spans inside each operation / "
        "traced operation time"),
    _pl("run.probes", "count", "lower", ("map-ft324", "shard-ft324",
                                         "daemon-now"),
        [("latency_ms_p50", "map-ft324"), ("latency_ms_p50", "shard-ft324")],
        meaning="probes per map, per sharded map, per daemon run "
        "(deterministic for a seed)"),
    _pl("run.sim_ms", "sim_ms", "lower", ("map-ft324", "shard-ft324"), [],
        meaning="simulated mapper time; for shard the slowest shard's "
        "simulated time (wall_ns less the host-timed merge). A "
        "simulator-only speed-up leaves it unchanged"),
    _pl("run.latency_ms_tail", "ms", "lower", ("serve-ft1k", "daemon-now"),
        [], meaning="latency at run.latency_tail_pct, the highest "
        "percentile with at least 10 samples beyond it"),
    _pl("run.latency_tail_pct", "pct", "higher", ("serve-ft1k",
                                                  "daemon-now"), [],
        meaning="the percentile run.latency_ms_tail reports"),
    _pl("run.latency_samples", "count", "higher", ALL, [],
        meaning="operations timed in the untraced run"),
    _pl("run.raw_latency_ms_p50", "ms", "lower", ALL, [],
        meaning="latency_ms_p50 as measured, before scaling by host speed"),
    _pl("run.cal_ms", "ms", "lower", ALL, [],
        meaning="median time of the calibration kernel among the untraced "
        "run's operations; 30 ms is the reference"),
    _pl("run.converge_sim_ms_p50", "sim_ms", "lower", ("daemon-now",), [],
        meaning="median simulated time from fault detection to routes "
        "installed, over one run's incidents (deterministic)"),
    _pl("run.delta_bytes", "B", "lower", ("daemon-now",), [],
        meaning="route bytes shipped by the first %d-epoch run "
        "(deterministic)" % DAEMON_EPOCHS),
    _pl("run.failed_frac", "ratio", "lower", ALL, [],
        meaning="failed output checks / checks attempted"),
]


def benchmark_json(held_out=False):
    """The BENCHMARK.json object: only the keys its format allows. It
    lists the workloads not held out, and the per-layer metrics measured
    on one of them; with held_out=True, every workload and metric, in the
    same format (what run.py uses for a held-out workload)."""
    names = ALL if held_out else LISTED
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS
                      if w["name"] in names],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
            if set(m["workloads"]) & set(names)
        ],
    }


def design_json():
    """Everything BENCHMARK.json has no room for."""
    return {
        "layers": LAYERS,
        "not_on_a_workload": NOT_ON_A_WORKLOAD,
        "held_out": HELD_OUT,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


def write(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        f.write(dumps(benchmark_json()))
    with open(os.path.join(root, "perfbench", "design.json"), "w") as f:
        f.write(dumps(design_json()))


# ---------------------------------------------------------------------
# Reader: the format BENCHMARK.json must keep

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class FormatError(ValueError):
    pass


def _need(cond, msg):
    if not cond:
        raise FormatError(msg)


def _keys(obj, keys, where):
    _need(isinstance(obj, dict), "%s: not an object" % where)
    _need(set(obj) == set(keys),
          "%s: keys %s, expected %s" % (where, sorted(obj), sorted(keys)))


def validate(bench):
    """Raise FormatError unless `bench` is a well-formed BENCHMARK.json
    object; return it otherwise."""
    _keys(bench, ("command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"), "BENCHMARK.json")
    cmd = bench["command"]
    _need(isinstance(cmd, list) and 1 <= len(cmd) <= 32, "command: 1-32 strings")
    for c in cmd:
        _need(isinstance(c, str) and 0 < len(c) <= 200, "command: bad string")
        _need(not c.startswith("/") and ".." not in c.split("/"),
              "command: %r leaves the repo" % c)
    paths = bench["paths"]
    _need(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1-16")
    for p in paths:
        _need(isinstance(p, str) and PATH_RE.match(p)
              and not p.startswith("/") and ".." not in p.split("/"),
              "paths: bad path %r" % (p,))
    rs = bench["run_seconds"]
    _need(isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60,
          "run_seconds: whole number 1-60")
    names = set()

    def name(n, where):
        _need(isinstance(n, str) and NAME_RE.match(n), "%s: bad name %r" % (where, n))
        _need(n not in names, "%s: name %r used twice" % (where, n))
        names.add(n)

    wls = bench["workloads"]
    _need(isinstance(wls, list) and 2 <= len(wls) <= 8, "workloads: 2-8")
    for w in wls:
        _keys(w, ("name", "why"), "workload")
        name(w["name"], "workload")
        _need(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200
              and "\n" not in w["why"], "workload %s: why must be one line of "
              "at most 200 characters" % w["name"])

    def metric(m, where, bounded):
        keys = ("name", "unit", "better") + (("bound",) if bounded else ())
        _keys(m, keys, where)
        name(m["name"], where)
        _need(isinstance(m["unit"], str) and UNIT_RE.match(m["unit"]),
              "%s %s: bad unit" % (where, m["name"]))
        _need(m["better"] in ("lower", "higher"),
              "%s %s: better is lower or higher" % (where, m["name"]))
        if bounded:
            b = m["bound"]
            _need(isinstance(b, (int, float)) and not isinstance(b, bool)
                  and 0 < b <= 0.25, "%s %s: bound in (0, 0.25]" % (where, m["name"]))

    e2e = bench["end_to_end"]
    _need(isinstance(e2e, list) and 1 <= len(e2e) <= 16, "end_to_end: 1-16")
    for m in e2e:
        metric(m, "end_to_end", True)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    _need(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "end_to_end: setup_s (s, lower) required")
    pl = bench["per_layer"]
    _need(isinstance(pl, list) and 1 <= len(pl) <= 128, "per_layer: 1-128")
    for m in pl:
        metric(m, "per_layer", False)
    _need(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    return bench


def read(path=BENCHMARK_JSON):
    """Load and validate BENCHMARK.json."""
    with open(path) as f:
        return validate(json.load(f))


if __name__ == "__main__":
    validate(benchmark_json())
    write()
    print("wrote BENCHMARK.json and perfbench/design.json", file=sys.stderr)
