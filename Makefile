# Tier-1 gate: everything a PR must pass. `make ci` is what the README
# documents and what reviewers run.

GO ?= go

.PHONY: ci vet build test race bench bench-smoke fuzz-smoke results results-check bench-sim bench-diff bench-baseline wall-baseline jobs-equiv workload-check workload-baseline trace-smoke server-smoke autonomic-smoke model-smoke examples-smoke doc-lint profile

ci: vet build test race bench-smoke fuzz-smoke bench-diff jobs-equiv results-check workload-check trace-smoke server-smoke autonomic-smoke model-smoke examples-smoke doc-lint

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
# (time, sequence) dispatch order, then five of arrival specs, then five of
# sim<->native lock cross-validation schedules.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzArrivals$$' -fuzztime 5s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzCrossValidation$$' -fuzztime 5s ./internal/native/

# Regenerate every table/figure plus the machine-readable BENCH_sim.json.
# Stdout is the tables alone; it replaces results_full.txt only if the run
# succeeds. Then doc-lint names every EXPERIMENTS.md excerpt line the new
# run no longer prints, with the lines to paste it from.
results:
	$(GO) run ./cmd/hurricane-bench > results_full.txt.tmp || { rm -f results_full.txt.tmp; exit 1; }
	mv results_full.txt.tmp results_full.txt
	$(GO) run ./cmd/doclint

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

# The repo benchmark's simulated numbers as a gate. No other gate runs the
# server and lock-zoo workloads at their benchmark size (the quick suite's
# server cells are far smaller), so each of them runs once through
# `bash benchmark/run.sh` at seed 1 with -seconds 0, which is two passes
# with every sim_* metric taken from the first, and its sim_p50_us,
# sim_tail_us, sim_ops_per_ms and correctness lines must equal
# BENCH_workloads.baseline.txt. The simulation is deterministic, so any
# difference is a moved number: if intended, run make workload-baseline
# and give the reason in CHANGES.md. Host metrics (wall_s, setup_s,
# rss_mb) are not checked.
CHECKED_WORKLOADS = server-read server-write lock-zoo
workload-lines = for w in $(CHECKED_WORKLOADS); do \
		bash benchmark/run.sh -workload $$w -seed 1 -seconds 0 > /tmp/hurricane_workload.txt || exit 1; \
		grep -E "^$$w (sim_p50_us|sim_tail_us|sim_ops_per_ms|correct=)" /tmp/hurricane_workload.txt || exit 1; \
	done

workload-check:
	@$(workload-lines) > /tmp/hurricane_workloads.txt
	@diff -u BENCH_workloads.baseline.txt /tmp/hurricane_workloads.txt || { \
		echo "workload-check: the benchmark's simulated numbers differ from BENCH_workloads.baseline.txt;" \
			"if intended, run make workload-baseline and give the reason in CHANGES.md" >&2; exit 1; }
	@echo "workload-check: $(CHECKED_WORKLOADS) print BENCH_workloads.baseline.txt's simulated numbers at seed 1"

# Refresh the benchmark numbers workload-check compares against (give the
# reason in CHANGES.md).
workload-baseline:
	@$(workload-lines) > BENCH_workloads.baseline.txt.tmp || { rm -f BENCH_workloads.baseline.txt.tmp; exit 1; }
	mv BENCH_workloads.baseline.txt.tmp BENCH_workloads.baseline.txt

# End-to-end check of the span pipeline: trace a tiny kernel workload,
# require the run's own placement report to be non-empty (both the data and
# lock sections must render, over the traced fault spans) and the written
# file to be a trace-event document. Then the data policies, wired by
# placement.Attach: on the clustered kernel, and in stress mode over the
# lock's one protected region.
trace-smoke:
	$(GO) run ./cmd/lockstat -run faults -size 16 -procs 8 -rounds 5 -trace /tmp/hurricane_smoke.json > /tmp/hurricane_smoke.txt
	grep -q "data placement" /tmp/hurricane_smoke.txt
	grep -q "lock placement" /tmp/hurricane_smoke.txt
	grep -q "span vm.fault" /tmp/hurricane_smoke.txt
	grep -q '"traceEvents"' /tmp/hurricane_smoke.json
	@echo "trace-smoke: traced kernel run produced a placement report"
	$(GO) run ./cmd/lockstat -run faults -size 16 -procs 4 -rounds 8 -migrate > /tmp/hurricane_migrate.txt
	grep -Eq "migrations: [1-9]" /tmp/hurricane_migrate.txt
	@echo "trace-smoke: online placement daemon migrated kernel data mid-run"
	$(GO) run ./cmd/lockstat -lock h2mcs -procs 4 -home 12 -migrate > /tmp/hurricane_stress_migrate.txt
	grep -Eq "^placement daemon: [0-9]+ windows, [1-9][0-9]* moves$$" /tmp/hurricane_stress_migrate.txt
	grep -Eq "^data region home: module [0-3]" /tmp/hurricane_stress_migrate.txt
	grep -Eq "module 12 -> [0-9]+: saves [0-9]+\.[0-9] cycles/window, copy [0-9]+$$" /tmp/hurricane_stress_migrate.txt
	$(GO) run ./cmd/lockstat -autonomic -procs 4 -home 12 -rounds 120 > /tmp/hurricane_stress_auto.txt
	grep -Fq "policies [tune -> replicate -> migrate]" /tmp/hurricane_stress_auto.txt
	@echo "trace-smoke: stress mode's daemon pulled the lock's data to its contenders' station, pricing the move; its plane ticks tune, replicate, migrate in that order"

# End-to-end check of the open-loop server harness: a short lockstat
# server run must report a populated sojourn tail, its kernel RPC and
# retry counts and per-tenant skew,
# and the quick server sweep must publish p999 + rank-divergence metrics
# on both machines.
server-smoke: bench-sim
	$(GO) run ./cmd/lockstat -run server -tune -ms 6 > /tmp/hurricane_server.txt
	grep -Eq "sojourn \(us\): n=[1-9][0-9]* mean=[0-9.]+ p50=[0-9.]+ p95=[0-9.]+ p99=[0-9.]+ p999=[0-9.]+" /tmp/hurricane_server.txt
	grep -Eq "kernel: [0-9]+ RPC calls \(set-up included\), [0-9]+\.[0-9]{2} per served request; retries: create [0-9]+, destroy [0-9]+, send [0-9]+$$" /tmp/hurricane_server.txt
	grep -q "per-tenant" /tmp/hurricane_server.txt
	grep -q "kernel lock controller" /tmp/hurricane_server.txt
	grep -q '"hector16.CNA.p999"' BENCH_sim.json
	grep -q '"numachine64.Tuned.p999"' BENCH_sim.json
	grep -q '"hector16.rank_divergence"' BENCH_sim.json
	@echo "server-smoke: open-loop server harness reports tail latency on both machines"

# End-to-end check of the kernel autonomics plane: the combined
# tune+migrate+replicate run must beat every single policy on the mixed
# tenant workload (the tentpole acceptance metric), and lockstat's faults
# and server modes must run the full plane under one cadence; the faults
# run's replication log must print the priced inputs of its decisions, a
# server run that leaves workers idle (the full sweep's 40 ms cell) must
# wake some of them on a module holding the tenant's data, and the quick
# cell (15 ms), where no worker is ever idle, must have freed workers take
# requests ahead of the queue's head onto their own module's copy.
autonomic-smoke: bench-sim
	grep -A 1 '"hector16.combined_wins"' BENCH_sim.json | grep -q '"value": 3'
	$(GO) run ./cmd/lockstat -run faults -size 16 -procs 4 -rounds 8 -autonomic > /tmp/hurricane_autosim.txt
	grep -q "autonomics plane" /tmp/hurricane_autosim.txt
	grep -Eq "replication policy: [0-9]+ windows, [1-9]" /tmp/hurricane_autosim.txt
	grep -Eq "replicate -> module [0-9]+: saves [0-9]+\.[0-9] cycles/window, copy [0-9]+$$" /tmp/hurricane_autosim.txt
	$(GO) run ./cmd/lockstat -run server -autonomic -ms 6 > /tmp/hurricane_autolock.txt
	grep -q "autonomics plane" /tmp/hurricane_autolock.txt
	$(GO) run ./cmd/lockstat -run server -autonomic -ms 40 > /tmp/hurricane_autodispatch.txt
	grep -Eq "^  dispatch: [0-9]+ measured wake-ups by distance to the tenant data's nearest copy: local [1-9][0-9]*, station [0-9]+, ring [0-9]+, global [0-9]+$$" /tmp/hurricane_autodispatch.txt
	$(GO) run ./cmd/lockstat -run server -autonomic -ms 15 > /tmp/hurricane_autodequeue.txt
	grep -Eq "^  dequeue: [1-9][0-9]* measured requests taken ahead of their queue's head" /tmp/hurricane_autodequeue.txt
	@echo "autonomic-smoke: combined plane beats every single policy; lockstat's faults and server modes run it, the faults run prices each replication, the server run wakes workers next to the tenant data, and the overloaded quick cell's freed workers take requests whose replicated data they hold"

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

# The four examples run to completion (about 1 s together). The clustering
# example is the only non-test caller of Replicated.GlobalUpdate and
# Destroy, so its outcome is checked too: the update reached every
# cluster's copy, the datum was destroyed, and the burst replicated once
# per remote cluster.
examples-smoke:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/pagefaults > /dev/null
	$(GO) run ./examples/nativelocks > /dev/null
	$(GO) run ./examples/clustering > /tmp/hurricane_clustering.txt
	for c in 0 1 2 3; do grep -q "cluster $$c copy now 999" /tmp/hurricane_clustering.txt || exit 1; done
	grep -q "destroyed everywhere" /tmp/hurricane_clustering.txt
	grep -q "^12 acquisitions, 3 replications (one per remote cluster), 15 RPC calls total$$" /tmp/hurricane_clustering.txt
	@echo "examples-smoke: every example runs; the clustered table updates, replicates and destroys across all four clusters"

# Documentation gate: every exported identifier in the model, autonomic,
# and tune packages carries a doc comment, every intra-repo markdown link
# (file and #anchor, slugged as GitHub does) in the top-level docs
# resolves, and every package-level declaration under internal/, exported
# or unexported, has a non-test caller in this module or benchmark/ (or a
# `//doclint:keep <reason>` line saying why it stays), every table in
# EXPERIMENTS.md is a ```results excerpt of results_full.txt (a `== title ==`
# line of the run, then lines of that table verbatim and in the run's
# order, rows skipped but never edited; no markdown table rows), and every
# struct field under internal/ that non-test code reads is also set by
# non-test code (a default filled in under `if x.f == 0` does not count;
# tagged fields and `//doclint:keep <reason>` fields are exempt).
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
