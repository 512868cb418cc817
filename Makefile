# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check smoke bench bench-fast obs-smoke bench-smoke scale-smoke shard-smoke serve-smoke fuzz-smoke health-smoke explain-smoke slo-smoke cover-smoke perf-trace artifacts examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every end-to-end smoke, in the order they run. `make smoke` runs the
# list one target at a time and stops at the first failure; `check`
# runs it after the build and the tests, and CI calls `make smoke`, so
# what CI runs and what `check` runs cannot drift apart.
SMOKES = obs-smoke bench-smoke health-smoke explain-smoke fuzz-smoke \
  scale-smoke shard-smoke serve-smoke slo-smoke cover-smoke perf-trace

smoke:
	@set -e; for s in $(SMOKES); do $(MAKE) $$s; done

# What CI runs: a full build, the test suites (the benchmark's own
# unittests included) and every smoke.
check:
	dune build @all
	dune runtest
	python3 -m unittest discover perfbench
	$(MAKE) smoke

bench:
	dune exec bench/main.exe

# Also writes BENCH_obs.json: per-scenario wall time + metrics registry.
bench-fast:
	dune exec bench/main.exe -- --fast

# The observability CLI: a NOW map with the metrics registry and the
# JSON-lines trace written out.
obs-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- map -t cab \
	  --metrics _artifacts/obs_metrics.json --trace _artifacts/obs_trace.jsonl
	test -s _artifacts/obs_metrics.json && test -s _artifacts/obs_trace.jsonl

# CI-sized: the control-plane daemon on a tiny topology for 2 epochs,
# plus the seeded daemon bench section in fast mode.
bench-smoke:
	dune exec bin/san_map.exe -- daemon -t star:3 --epochs 2 --schedule 1:cut
	dune exec bench/main.exe -- --only daemon --fast --no-bechamel
	test -s BENCH_obs.json

# Scaling at CI size: map a seeded 1k-host fat-tree end to end under a
# wall-time budget, then run the fast scaling bench rung so the
# ft-100 probes/sec regression gate (bench/scaling_baseline.json) is
# exercised on every check.
scale-smoke:
	timeout 120 dune exec bin/san_map.exe -- map -t fabric:ft-1k --seed 1 \
	  --out-dir ""
	dune exec bench/main.exe -- --only scaling --fast --no-bechamel

# The sharded mapper at CI size: a seeded 4-shard map of the 1k-host
# fat-tree checked isomorphic against the solo baseline (the CLI exits
# non-zero on any verification failure), then the fast scaling-shard
# bench rung, which additionally gates the merged map on finishing in
# under half the solo simulated wall and on not drifting from
# bench/scaling_baseline.json.
shard-smoke:
	timeout 240 dune exec bin/san_map.exe -- shard -t fabric:ft-1k --seed 1 \
	  --shards 4 --compare-solo --out-dir ""
	dune exec bench/main.exe -- --only scaling-shard --fast --no-bechamel

# The route-serving plane at CI size: a seeded ft-1k serve run whose
# --check verifies delivery and deadlock freedom of a served sample
# (the CLI exits non-zero on either), then the fast serving bench
# rungs, which gate the ft-1k lookup rate against
# bench/serving_baseline.json (fail under a quarter of the recorded
# rate) and re-check deadlock freedom per rung.
serve-smoke:
	timeout 120 dune exec bin/san_map.exe -- serve -t fabric:ft-1k --seed 1 \
	  --queries 100000 --check
	dune exec bench/main.exe -- --only serving --fast --no-bechamel

# The property fuzzer at CI size: a fixed seed so the run is
# reproducible, 200 random fabrics through the full suite. On a
# failure the exit code is non-zero and each shrunk counterexample is
# written to fuzz_artifacts/ as DOT plus its replay seed.
fuzz-smoke:
	dune exec bin/san_map.exe -- fuzz --cases 200 --seed 42 \
	  --artifacts fuzz_artifacts

# The SLO observatory at CI size: a seeded short load-matrix run
# (convergence percentiles vs offered load x fault schedule, flight
# recordings under _artifacts/load_matrix/). The bench exits non-zero
# if any Degraded epoch lacks a postmortem-explainable flight
# recording, then a daemon run under load with the default SLOs
# exercises the burn-rate path end to end.
slo-smoke:
	dune exec bench/main.exe -- --only load_matrix --fast --no-bechamel
	dune exec bin/san_map.exe -- daemon -t fat-tree:2:2:4 --epochs 8 \
	  --quiet --load 1.0 --load-pattern hotspot --scenario storm --seed 5
	test -s BENCH_obs.json

# The benchmark's map and shard paths, traced, at CI length: a few
# seconds of ft-324 maps, then of 4-shard ft-324 maps, each run
# untraced and then with a span around every layer. Exits 1 if a map
# is not isomorphic to N - F, if an exported JSON does not load back,
# or if a traced run's deterministic work (map: probes, explorations,
# simulated time, depth; shard: probes and the slowest shard's
# simulated time) differs from its untraced run's. Spans land in
# .perfbench/ (gitignored).
perf-trace:
	python3 perfbench/run.py --workload map-ft324 --seconds 3 --trace 1
	python3 perfbench/run.py --workload shard-ft324 --seconds 3 --trace 1

# Budgeted mapping at CI size: a seeded 30%-budget ft-100 run (the CLI
# exits non-zero unless the partial map passes the subgraph embedding
# check) whose confidence-annotated artifact must land under
# _artifacts/, then the fast coverage bench rung, which gates the
# accuracy-vs-budget curve against bench/coverage_baseline.json.
cover-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- map -t ft-100 --seed 1 --budget 0.3 \
	  --metrics _artifacts/cover_metrics.json --out-dir _artifacts
	test -s _artifacts/partial-map-ft-100-b0.3.json
	dune exec bench/main.exe -- --only coverage --fast --no-bechamel

# The provenance ledger end to end: explain a Figure-3 switch and a
# route (with the evidence DOT), attribute a map diff to the probes
# that caused it, then drive a small daemon into Degraded and read the
# flight recording back with `postmortem`.
explain-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- explain -t cab --why switch:C-leaf0 \
	  --dot _artifacts/why-C-leaf0.dot
	dune exec bin/san_map.exe -- explain -t cab --why 'route:C-h2->C-h9'
	dune exec bin/san_map.exe -- blame --old star:2 --new star:4
	dune exec bin/san_map.exe -- daemon -t star:3 --epochs 5 --quiet \
	  --schedule 2:kill-leader,3:kill-leader,4:kill-leader
	dune exec bin/san_map.exe -- postmortem \
	  $$(ls -t _artifacts/flight-*.jsonl | head -1)
	test -s _artifacts/why-C-leaf0.dot

# The telemetry stack end to end: health dashboard with a link cut,
# exporting a Chrome trace and a Prometheus exposition file. Outputs
# land under _artifacts/ (gitignored) with the other smoke artifacts.
health-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- health -t star:3 --epochs 2 --schedule 1:cut \
	  --chrome-trace _artifacts/smoke_trace.json \
	  --prom _artifacts/smoke_metrics.prom
	test -s _artifacts/smoke_trace.json && test -s _artifacts/smoke_metrics.prom

# The reproduction record: full test log and full harness output.
artifacts:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# CSV series for external plotting (figures 8 and 9).
csv:
	dune exec bench/main.exe -- --only fig8,fig9 --no-bechamel --csv data

examples:
	dune exec examples/quickstart.exe
	dune exec examples/now_cluster.exe
	dune exec examples/dynamic_reconfig.exe
	dune exec examples/election_demo.exe
	dune exec examples/traffic_storm.exe
	dune exec examples/epoch_daemon.exe

clean:
	dune clean
