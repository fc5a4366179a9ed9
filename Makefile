# Tier-1 gate: everything a PR must pass. `make ci` is what the README
# documents and what reviewers run.

GO ?= go

.PHONY: ci vet build test race bench bench-smoke fuzz-smoke results results-check bench-sim bench-diff bench-baseline wall-baseline jobs-equiv trace-smoke server-smoke autonomic-smoke model-smoke doc-lint profile

ci: vet build test race bench-smoke fuzz-smoke bench-diff jobs-equiv results-check trace-smoke server-smoke autonomic-smoke model-smoke doc-lint

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The simulated locks run single-threaded by construction, but the parallel
# experiment harness (exp.RunParallel / hurricane-bench -jobs) and the
# native lock ports are real Go concurrency: keep them provably race-free.
# The hierarchical locks (cohort, CNA) get a second, repeated pass: their
# correctness rests on holder-private state being published by the grant
# hand-off, and that discipline only trips the race detector on schedules
# where goroutines actually interleave at the hand-off — more runs, more
# schedules.
race:
	$(GO) test -race ./internal/native/... ./internal/exp/... ./internal/workload/...
	$(GO) test -race -count=2 -run 'Cohort|CNA|CrossValidation' ./internal/native/
	$(GO) test -race -count=2 -run 'Parallel|TimedStress' ./internal/sim/ ./internal/workload/
	$(GO) test -race -count=2 ./internal/autonomic/

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark (benchmark/, run by benchmark/run.sh) is its own Go
# module, so `go test ./...` neither builds nor tests it: run its tiny-size
# tests here, so an internal API change that breaks the benchmark fails ci.
bench-smoke:
	$(GO) -C benchmark test ./...

# Randomized inputs past the checked-in corpora that every `go test` runs
# (testdata/fuzz): ten seconds of event schedules against the engine's
# (time, sequence) dispatch order, then five of arrival specs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzArrivals$$' -fuzztime 5s ./internal/workload/

# Regenerate every table/figure plus the machine-readable BENCH_sim.json.
# Stdout is the tables alone; it replaces results_full.txt only if the run
# succeeds.
results:
	$(GO) run ./cmd/hurricane-bench > results_full.txt.tmp || { rm -f results_full.txt.tmp; exit 1; }
	mv results_full.txt.tmp results_full.txt

# The full run as a check: stdout carries no host timing, so the run must
# reproduce results_full.txt byte for byte. A difference is a moved
# simulated number: if intended, regenerate it (make results) and give the
# reason in CHANGES.md.
results-check:
	$(GO) run ./cmd/hurricane-bench -json "" -walljson "" > /tmp/hurricane_results.txt
	@diff -u results_full.txt /tmp/hurricane_results.txt || { \
		echo "results-check: the full run differs from results_full.txt;" \
			"if intended, run make results and give the reason in CHANGES.md" >&2; exit 1; }
	@echo "results-check: the full run reproduces results_full.txt byte for byte"

# The quick suite, run serially: one run per make invocation writes
# BENCH_sim.json, which bench-diff and the smoke targets below all read,
# and BENCH_wall.json, each experiment's engine event counts, which
# jobs-equiv checks.
bench-sim:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -parworkers 1 -json BENCH_sim.json -walljson BENCH_wall.json > /tmp/hurricane_quick1.txt

# Regression gate: the quick summary must equal the checked-in baseline
# exactly. The simulation is deterministic, so any difference is a changed
# number. Each metric's "name" line sits just above its "value" line, and
# -F puts the experiment's name in each hunk header, so every hunk names
# what moved.
bench-diff: bench-sim
	@diff -u -F '^      "name"' BENCH_sim.baseline.json BENCH_sim.json || { \
		echo "bench-diff: the quick summary differs from BENCH_sim.baseline.json;" \
			"if intended, run make bench-baseline and give the reason in CHANGES.md" >&2; exit 1; }
	@echo "bench-diff: the quick summary equals BENCH_sim.baseline.json"

# Determinism gate for both worker pools. The serial quick run's engine
# event counts must equal BENCH_wall.baseline.json: a change that moves one
# does more (or less) simulated work, and must regenerate the baseline
# (make wall-baseline) with the reason in CHANGES.md. Then an 8-way
# experiment pool, with 8 logical-process workers inside each
# parallel-engine simulation, must print the same tables and write the same
# summary byte for byte.
jobs-equiv: bench-sim
	@cmp BENCH_wall.baseline.json BENCH_wall.json || { \
		echo "jobs-equiv: engine event counts differ from BENCH_wall.baseline.json;" \
			"if intended, run make wall-baseline and give the reason in CHANGES.md" >&2; exit 1; }
	@echo "jobs-equiv: per-experiment engine event counts equal BENCH_wall.baseline.json"
	$(GO) run ./cmd/hurricane-bench -quick -jobs 8 -parworkers 8 -json /tmp/hurricane_jobs8.json -walljson "" > /tmp/hurricane_quick8.txt
	cmp /tmp/hurricane_quick1.txt /tmp/hurricane_quick8.txt
	cmp BENCH_sim.json /tmp/hurricane_jobs8.json
	@echo "jobs-equiv: -jobs 1 -parworkers 1 and -jobs 8 -parworkers 8 print and write byte-identical output"

# End-to-end check of the span pipeline: trace a tiny kernel workload,
# feed the trace through traceanal, and require a non-empty placement
# report (both the data and lock sections must render).
trace-smoke:
	$(GO) run ./cmd/clustersim -size 16 -procs 8 -rounds 5 -trace /tmp/hurricane_smoke.json > /dev/null
	$(GO) run ./cmd/traceanal /tmp/hurricane_smoke.json > /tmp/hurricane_smoke.txt
	grep -q "data placement" /tmp/hurricane_smoke.txt
	grep -q "lock placement" /tmp/hurricane_smoke.txt
	grep -q "span vm.fault" /tmp/hurricane_smoke.txt
	@echo "trace-smoke: traced kernel run produced a placement report"
	$(GO) run ./cmd/clustersim -size 16 -procs 4 -rounds 8 -migrate > /tmp/hurricane_migrate.txt
	grep -Eq "migrations: [1-9]" /tmp/hurricane_migrate.txt
	@echo "trace-smoke: online placement daemon migrated kernel data mid-run"

# End-to-end check of the open-loop server harness: a short lockstat
# server run must report a populated sojourn tail and per-tenant skew,
# and the quick server sweep must publish p999 + rank-divergence metrics
# on both machines.
server-smoke: bench-sim
	$(GO) run ./cmd/lockstat -run server -tune -ms 6 > /tmp/hurricane_server.txt
	grep -Eq "sojourn \(us\): n=[1-9][0-9]* mean=[0-9.]+ p50=[0-9.]+ p95=[0-9.]+ p99=[0-9.]+ p999=[0-9.]+" /tmp/hurricane_server.txt
	grep -q "per-tenant" /tmp/hurricane_server.txt
	grep -q "kernel lock controller" /tmp/hurricane_server.txt
	grep -q '"hector16.CNA.p999"' BENCH_sim.json
	grep -q '"numachine64.Tuned.p999"' BENCH_sim.json
	grep -q '"hector16.rank_divergence"' BENCH_sim.json
	@echo "server-smoke: open-loop server harness reports tail latency on both machines"

# End-to-end check of the kernel autonomics plane: the combined
# tune+migrate+replicate run must beat every single policy on the mixed
# tenant workload (the tentpole acceptance metric), and both interactive
# harnesses must run the full plane under one cadence.
autonomic-smoke: bench-sim
	grep -A 1 '"hector16.combined_wins"' BENCH_sim.json | grep -q '"value": 3'
	$(GO) run ./cmd/clustersim -size 16 -procs 4 -rounds 8 -autonomic > /tmp/hurricane_autosim.txt
	grep -q "autonomics plane" /tmp/hurricane_autosim.txt
	grep -Eq "replication policy: [0-9]+ windows, [1-9]" /tmp/hurricane_autosim.txt
	$(GO) run ./cmd/lockstat -run server -autonomic -ms 6 > /tmp/hurricane_autolock.txt
	grep -q "autonomics plane" /tmp/hurricane_autolock.txt
	@echo "autonomic-smoke: combined plane beats every single policy; both CLIs run it"

# End-to-end check of the analytic model pipeline: a CI-scale
# calibrate-and-validate cell must fit residuals, rank the lock zoo
# correctly at every validation point on all three machines, and predict
# the stable spin->queue crossover at p=1 on each of them.
model-smoke: bench-sim
	grep -A 1 '"hector16.rank_agreement"' BENCH_sim.json | grep -q '"value": 100'
	grep -A 1 '"numachine64.rank_agreement"' BENCH_sim.json | grep -q '"value": 100'
	grep -A 1 '"numachine256.rank_agreement"' BENCH_sim.json | grep -q '"value": 100'
	grep -A 1 '"hector16.pred_cross_spin_queue"' BENCH_sim.json | grep -q '"value": 1,'
	grep -A 1 '"numachine64.pred_cross_spin_queue"' BENCH_sim.json | grep -q '"value": 1,'
	grep -A 1 '"numachine256.pred_cross_spin_queue"' BENCH_sim.json | grep -q '"value": 1,'
	@echo "model-smoke: calibrated model ranks the lock zoo correctly and puts the spin->queue crossover at p=1 on all machines"

# Documentation gate: every exported identifier in the model, autonomic,
# and tune packages carries a doc comment, every intra-repo markdown link
# (file and #anchor) in the top-level docs resolves, and every
# package-level declaration under internal/, exported or unexported, has a
# non-test caller in this module or benchmark/ (or a `//doclint:keep
# <reason>` line saying why it stays), every decimal in an
# EXPERIMENTS.md table row appears in results_full.txt (host-timing tables
# and derived cells, marked, are skipped), and every struct field under
# internal/ that non-test code reads is also set by non-test code (a
# default filled in under `if x.f == 0` does not count; tagged fields and
# `//doclint:keep <reason>` fields are exempt).
doc-lint:
	$(GO) run ./cmd/doclint

# Refresh the checked-in baseline after an intentional performance change
# (commit the result and explain the shift in the PR).
bench-baseline:
	$(GO) run ./cmd/hurricane-bench -quick -json BENCH_sim.baseline.json > /dev/null

# Refresh the per-experiment engine event counts that jobs-equiv checks,
# after a change that intentionally does more or less simulated work
# (give the reason in CHANGES.md).
wall-baseline:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -json "" -walljson BENCH_wall.baseline.json > /dev/null

# CPU/allocation profiles of the quick suite (serial, so one experiment's
# profile is not polluted by another's goroutine): start here before any
# perf PR. The second listing is per instruction: a function's flat time
# does not say which of its instructions stalls (DESIGN.md, "How to
# profile").
profile:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -json /tmp/hurricane_prof.json -walljson "" \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	$(GO) tool pprof -top -addresses -nodecount 15 cpu.pprof
