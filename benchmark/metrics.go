package main

import (
	"fmt"
	"sort"
	"strings"

	"hurricane/internal/locks"
)

// metricDef declares one reported metric. BENCHMARK.json mirrors these
// tables (benchmark_test.go holds the two together); README.md maps each
// per-layer metric to the end-to-end metric and workloads it should move.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported by the
// untraced pass of every workload. "sim" metrics are simulated time (a pure
// function of the seed); the rest are host measurements.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "sim_p50_us", unit: "us", better: "lower", bound: 0.1},
	{name: "sim_tail_us", unit: "us", better: "lower", bound: 0.2},
	{name: "sim_ops_per_ms", unit: "1/ms", better: "higher", bound: 0.1},
}

// zooKinds are the lock-zoo workload's locks, in cell order.
var zooKinds = []locks.Kind{
	locks.KindSpin, locks.KindSpin2ms, locks.KindH2MCS, locks.KindCohort, locks.KindCNA, locks.KindTuned,
}

// suiteWallExperiments are the quick-suite experiments whose share of the
// suite's host time is reported on its own; the rest are summed.
var suiteWallExperiments = []string{"model", "cohort", "tuned", "parstress", "server", "utilization64", "autonomic", "scaling"}

// suiteEventExperiments are the experiments whose engine-event counts are
// reported: the four that dominate the suite's host time.
var suiteEventExperiments = []string{"model", "cohort", "tuned", "parstress"}

// splitParts name the consecutive pieces of a server request's sojourn, in
// order; they sum exactly to it (see splitter).
var splitParts = []string{
	"server.queue", "kernel.fault_prelock", "kernel.fault_body", "server.touch", "kernel.unmap", "kernel.churn",
}

// perLayer are the traced pass's metrics. Every workload reports every one:
// probes (*.probe.*) time calls into a layer's public functions on fixed
// small inputs in every traced run, and the rest read the workload's own
// run, zero where the workload does not exercise the layer. Zero-valued
// metrics are counts or fractions, never times.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better})
	}
	// sim: the engine.
	add("sim.events", "count", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("sim.elided_frac", "frac", "higher")
	add("sim.p999_us", "us", "lower")
	add("sim.tail_n", "count", "higher")
	add("sim.probe.dispatch_ns", "ns", "lower")
	add("sim.probe.think_ns", "ns", "lower")
	add("sim.probe.loadstore_ns", "ns", "lower")
	add("sim.probe.swap_ns", "ns", "lower")
	add("sim.probe.handoff_ns", "ns", "lower")
	add("sim.probe.newmachine_us.hector16", "us", "lower")
	add("sim.probe.newmachine_us.numachine256", "us", "lower")
	// sim: the parallel LP engine.
	add("lp.probe.w1_ns_per_event", "ns", "lower")
	add("lp.probe.w2_ns_per_event", "ns", "lower")
	add("lp.speedup_w2", "x", "higher")
	add("lp.rounds", "count", "higher")
	add("lp.local_handoff", "frac", "higher")
	// sim: memory modules, buses and rings.
	for _, c := range []string{"local", "station", "ring", "global"} {
		add("mem."+c+".accesses", "count", "lower")
	}
	for _, c := range []string{"local", "station", "ring", "global"} {
		better := "lower"
		if c == "local" {
			better = "higher"
		}
		add("mem."+c+".stall_frac", "frac", better)
	}
	add("mem.ring.util", "frac", "lower")
	add("mem.module.util_max", "frac", "lower")
	add("mem.module.queue_frac", "frac", "lower")
	add("mem.replica_updates", "count", "lower")
	// locks.
	for _, k := range zooKinds {
		add(fmt.Sprintf("locks.%s.h0.acq_per_ms", k), "1/ms", "higher")
		add(fmt.Sprintf("locks.%s.h25.acq_per_ms", k), "1/ms", "higher")
		add(fmt.Sprintf("locks.%s.local_handoff", k), "frac", "higher")
		add(fmt.Sprintf("locks.%s.home_util", k), "frac", "lower")
	}
	for _, k := range zooKinds {
		add(fmt.Sprintf("locks.probe.%s.ns_per_pair", k), "ns", "lower")
	}
	// kernel (with cluster and core) and workload: the server request split.
	for _, cohort := range []string{"", "tail."} {
		for i, part := range splitParts {
			better := "higher"
			if i < 2 {
				// Waiting (admission queue, trap entry through mm-lock wait):
				// the parts the tail is made of.
				better = "lower"
			}
			add(splitMetric(part, cohort), "frac", better)
		}
	}
	add("kernel.rpc_per_request", "count", "lower")
	add("kernel.rpc_frac", "frac", "lower")
	for _, c := range []string{"coherence_rpcs", "retries", "migrations", "replications", "collapses"} {
		add("kernel."+c, "count", "lower")
	}
	add("kernel.migration_frac", "frac", "lower")
	add("kernel.replication_frac", "frac", "lower")
	add("kernel.probe.fault_ns", "ns", "lower")
	for r := range serverRungs {
		add(fmt.Sprintf("server.r%d.offered_rps", r+1), "1/s", "higher")
		add(fmt.Sprintf("server.r%d.slo_ratio", r+1), "ratio", "lower")
	}
	add("server.slo_rps", "1/s", "higher")
	add("server.goodput_rps", "1/s", "higher")
	// tune, autonomic and trace/placement: the plane.
	add("tune.switches", "count", "lower")
	add("autonomic.ticks", "count", "lower")
	add("placement.moves", "count", "lower")
	for _, p := range []string{"tune", "placement", "autonomic.replicator"} {
		add(p+".tick_frac", "frac", "lower")
	}
	for _, p := range []string{"tune", "placement", "autonomic.replicator"} {
		add(p+".probe.tick_ns", "ns", "lower")
	}
	// exp and model: the quick suite.
	for _, e := range append(append([]string(nil), suiteWallExperiments...), "rest") {
		add("exp."+e+".wall_frac", "frac", "lower")
	}
	for _, e := range suiteEventExperiments {
		add("exp."+e+".events", "count", "lower")
	}
	add("exp.baseline_checked", "count", "higher")
	add("exp.baseline_drift", "count", "lower")
	add("model.probe.predict_ns", "ns", "lower")
	add("model.probe.calibrate_us", "us", "lower")
	add("workload.probe.arrivals_ns", "ns", "lower")
	add("trace.overhead_frac", "frac", "lower")
	return ms
}

// splitMetric names a split part's share metric: part "server.queue" in
// cohort "tail." is server.tail.queue_frac.
func splitMetric(part, cohort string) string {
	layer, rest, _ := strings.Cut(part, ".")
	return layer + "." + cohort + rest + "_frac"
}

// median returns the median of xs (0 when empty); xs is not reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// exclusive method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
