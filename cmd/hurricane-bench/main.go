// hurricane-bench regenerates every table and figure of the paper's
// evaluation on the simulated HECTOR machine, plus the ablations, and
// writes a machine-readable summary (BENCH_sim.json) so successive PRs
// have a performance trajectory to compare against.
//
// Experiments and their (lock, p, seed) cells are independent simulations,
// so they run on a worker pool (-jobs); results are merged in declaration
// order, which keeps the summary byte-identical at any -jobs value.
//
// Stdout is the tables alone, a pure function of -seed and -quick:
// `make results-check` holds the full run to results_full.txt byte for
// byte. Host timing (each experiment's wall time, the run's events/sec)
// and the files written go to stderr.
//
// Usage:
//
//	hurricane-bench                 # run everything (full rounds)
//	hurricane-bench -run fig7       # experiments whose name matches
//	hurricane-bench -quick          # reduced rounds (CI-scale)
//	hurricane-bench -seed 7         # different deterministic seed
//	hurricane-bench -json out.json  # summary path ("" disables)
//	hurricane-bench -jobs 1         # serial (default: GOMAXPROCS workers)
//	hurricane-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// At -jobs 1 experiments run one at a time, so each one's engine event
// counts are exact; they go to BENCH_wall.json (-walljson), which
// `make jobs-equiv` compares with the checked-in BENCH_wall.baseline.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"time"

	"hurricane/internal/exp"
	"hurricane/internal/sim"
)

// validate rejects worker counts that cannot mean anything, before any
// experiment runs.
func validate(jobs, parworkers int) error {
	switch {
	case jobs < 1:
		return fmt.Errorf("-jobs %d must be at least 1", jobs)
	case parworkers < 1:
		return fmt.Errorf("-parworkers %d must be at least 1", parworkers)
	}
	return nil
}

func main() {
	runPat := flag.String("run", "", "regexp selecting experiments by name")
	seed := flag.Uint64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced round counts")
	jsonPath := flag.String("json", "BENCH_sim.json", "machine-readable summary path (empty to disable)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker pool size for experiments and their cells (1 = serial)")
	parworkers := flag.Int("parworkers", 1, "logical-process worker count inside parallel-engine experiments (deterministic: any value yields the same summary; more than one is slower on a 2-CPU host)")
	wallPath := flag.String("walljson", "BENCH_wall.json", "at -jobs 1, write each experiment's dispatched and elided engine events here (empty to disable)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	flag.Parse()
	if err := validate(*jobs, *parworkers); err != nil {
		fmt.Fprintf(os.Stderr, "hurricane-bench: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	rounds := func(full, reduced int) int {
		if *quick {
			return reduced
		}
		return full
	}

	type experiment struct {
		name string
		run  func() *exp.Table
	}
	experiments := []experiment{
		{"fig4", func() *exp.Table { return exp.Figure4(*seed) }},
		{"uncontended", func() *exp.Table { return exp.Uncontended(*seed) }},
		{"fig5a", func() *exp.Table { return exp.Figure5(*seed, 0, rounds(300, 60)) }},
		{"fig5b", func() *exp.Table { return exp.Figure5(*seed, 25, rounds(300, 60)) }},
		{"fig7a", func() *exp.Table { return exp.Figure7a(*seed, rounds(30, 8)) }},
		{"fig7b", func() *exp.Table { return exp.Figure7b(*seed, 4, rounds(10, 3)) }},
		{"fig7c", func() *exp.Table { return exp.Figure7c(*seed, rounds(30, 8)) }},
		{"fig7d", func() *exp.Table { return exp.Figure7d(*seed, 4, rounds(10, 3)) }},
		{"utilization", func() *exp.Table { return exp.LockUtilization(*seed, rounds(120, 30)) }},
		{"utilization64", func() *exp.Table { return exp.LockUtilization64(*seed, rounds(40, 10)) }},
		{"placement", func() *exp.Table { return exp.Placement(*seed, rounds(30, 8)) }},
		{"placement_online", func() *exp.Table { return exp.PlacementOnline(*seed, rounds(30, 24)) }},
		{"calibration", func() *exp.Table { return exp.Calibration(*seed) }},
		{"trylock", func() *exp.Table { return exp.TryLockFairness(*seed, rounds(60, 20)) }},
		{"protocols", func() *exp.Table { return exp.Protocols(*seed) }},
		{"hybrid", func() *exp.Table { return exp.HybridAblation(*seed, rounds(60, 15)) }},
		{"combining", func() *exp.Table { return exp.Combining(*seed) }},
		{"lockfree", func() *exp.Table { return exp.LockFree(*seed, rounds(40, 15)) }},
		{"scaling", func() *exp.Table { return exp.Scaling(*seed, rounds(10, 4)) }},
		{"tuned", func() *exp.Table { return exp.TunedCrossover(*seed, rounds(40, 10)) }},
		{"model", func() *exp.Table { return exp.ModelSweep(*seed, rounds(40, 10)) }},
		{"cohort", func() *exp.Table { return exp.CohortSweep(*seed, rounds(40, 10)) }},
		{"server", func() *exp.Table { return exp.ServerSweep(*seed, rounds(60, 20)) }},
		{"autonomic", func() *exp.Table { return exp.AutonomicSweep(*seed, rounds(40, 15)) }},
		{"parstress", func() *exp.Table { return exp.ParStress(*seed, rounds(4000, 2500), !*quick) }},
	}

	var re *regexp.Regexp
	if *runPat != "" {
		var err error
		re, err = regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
			os.Exit(2)
		}
	}
	var selected []experiment
	for _, e := range experiments {
		if re == nil || re.MatchString(e.name) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; available:")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %s\n", e.name)
		}
		os.Exit(1)
	}

	exp.SetParallelism(*jobs)
	exp.SetParWorkers(*parworkers)

	// Run everything on the pool (experiments fan out again into their own
	// cells), buffer each table, then print and assemble the report in
	// declaration order.
	tables := make([]*exp.Table, len(selected))
	counts := make([]eventCounts, len(selected))
	start := time.Now()
	exp.RunParallel(len(selected), func(i int) {
		t0 := time.Now()
		d0, e0 := sim.TotalEvents()
		tables[i] = selected[i].run()
		d1, e1 := sim.TotalEvents()
		// Exact only when no other experiment ran meanwhile (-jobs 1).
		counts[i] = eventCounts{Name: selected[i].name, Dispatched: d1 - d0, Elided: e1 - e0}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", selected[i].name, time.Since(t0).Round(time.Millisecond))
	})
	total := time.Since(start)

	report := exp.Report{Seed: *seed, Quick: *quick}
	for i, e := range selected {
		fmt.Println(tables[i].String())
		report.Experiments = append(report.Experiments, exp.Result{
			Name: e.name, Title: tables[i].Title, Metrics: tables[i].Metrics,
		})
	}

	dispatched, elided := sim.TotalEvents()
	events := dispatched + elided
	rate := 0.0
	if s := total.Seconds(); s > 0 {
		rate = float64(events) / s
	}
	fmt.Fprintf(os.Stderr, "wall: %d experiments in %v at -jobs %d; %d engine events (%.0f%% elided), %.2fM events/sec\n",
		len(selected), total.Round(time.Millisecond), *jobs,
		events, 100*float64(elided)/float64(max(events, 1)), rate/1e6)

	if *jsonPath != "" {
		writeJSON(*jsonPath, report)
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, %d metrics)\n", *jsonPath, len(selected), countMetrics(report))
	}
	if *wallPath != "" && *jobs == 1 {
		writeJSON(*wallPath, wallReport{Seed: *seed, Quick: *quick, Experiments: counts,
			Dispatched: dispatched, Elided: elided})
		fmt.Fprintf(os.Stderr, "wrote %s (%d engine events)\n", *wallPath, events)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}
}

// eventCounts is one experiment's engine activity: heap events dispatched
// and clock advances elided, as sim.TotalEvents counts them.
type eventCounts struct {
	Name       string `json:"name"`
	Dispatched uint64 `json:"dispatched"`
	Elided     uint64 `json:"elided"`
}

// wallReport is BENCH_wall.json. The simulation is deterministic, so the
// counts are too: a change that moves one did more, or less, simulated
// work.
type wallReport struct {
	Seed        uint64        `json:"seed"`
	Quick       bool          `json:"quick"`
	Experiments []eventCounts `json:"experiments"`
	Dispatched  uint64        `json:"dispatched"`
	Elided      uint64        `json:"elided"`
}

func writeJSON(path string, v interface{}) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal %s: %v\n", path, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
}

func countMetrics(r exp.Report) int {
	n := 0
	for _, e := range r.Experiments {
		n += len(e.Metrics)
	}
	return n
}
