// clustersim runs the clustered kernel's page-fault workloads at a chosen
// cluster size and prints latency plus the cross-cluster traffic that
// explains it — an interactive view of Figure 7.
//
//	clustersim -size 4 -procs 16 -workload shared
//	clustersim -size 1 -workload independent -lock spin
//	clustersim -size 16 -procs 4 -migrate     # online placement daemon
//	clustersim -size 16 -procs 4 -autonomic   # full autonomics plane
//
// With -migrate, kernel-data slots are allocated in migratable regions and
// an online placement daemon samples the live access trace, re-homing hot
// slots toward their accessors mid-run; the daemon's move log and the
// charged migration cost are printed after the run. The daemon runs with
// the placement_online experiment's parameters.
//
// With -autonomic, the whole kernel autonomics plane runs: feedback-tuned
// kernel locks, the placement daemon, and the replication policy for
// read-mostly kernel data, all sampled by one shared daemon cadence
// (internal/autonomic.Plane). -migrate remains the single-policy alias.
package main

import (
	"flag"
	"fmt"
	"os"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/exp"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// machineProcs is the processor count of the default HECTOR machine every
// run uses (4 stations x 4 processors).
const machineProcs = 16

// validate rejects flag values the run cannot honor, before any machine is
// built, so a bad invocation fails with one line instead of a panic.
func validate(size, procs, pages, rounds int, wl string) error {
	switch {
	case size < 1 || machineProcs%size != 0:
		return fmt.Errorf("-size %d must divide %d", size, machineProcs)
	case procs < 1 || procs > machineProcs:
		return fmt.Errorf("-procs %d must be 1-%d", procs, machineProcs)
	case pages < 1:
		return fmt.Errorf("-pages %d must be at least 1", pages)
	case rounds < 1:
		return fmt.Errorf("-rounds %d must be at least 1", rounds)
	case wl != "independent" && wl != "shared":
		return fmt.Errorf("-workload %q must be independent or shared", wl)
	}
	return nil
}

func main() {
	size := flag.Int("size", 4, "processors per cluster (must divide 16)")
	procs := flag.Int("procs", 16, "faulting processes")
	kind := flag.String("lock", "h2mcs", "h2mcs | mcs | spin | spin2ms")
	wl := flag.String("workload", "independent", "independent | shared")
	pages := flag.Int("pages", 4, "pages per process (or shared pages)")
	rounds := flag.Int("rounds", 20, "fault rounds per process")
	seed := flag.Uint64("seed", 1, "simulation seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	migrate := flag.Bool("migrate", false, "run the online placement daemon (migratable kernel-data slots)")
	auto := flag.Bool("autonomic", false, "run the full kernel autonomics plane: tuned locks + migration + replication under one cadence")
	flag.Parse()
	if err := validate(*size, *procs, *pages, *rounds, *wl); err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		os.Exit(2)
	}

	kinds := map[string]locks.Kind{
		"mcs": locks.KindMCS, "h2mcs": locks.KindH2MCS,
		"spin": locks.KindSpin, "spin2ms": locks.KindSpin2ms,
		"tuned": locks.KindTuned,
	}
	if *auto {
		*migrate = true
		*kind = "tuned"
	}
	lk, ok := kinds[*kind]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown lock %q\n", *kind)
		os.Exit(2)
	}
	var tracer *trace.Chrome
	var agg *trace.Aggregate
	var t sim.Tracer
	if *tracePath != "" {
		tracer = trace.NewChrome()
		t = tracer
	}
	if *migrate {
		// The daemon reads the live aggregate, so it must be in the sink
		// chain; a Chrome trace, if also requested, rides the same stream.
		agg = trace.NewAggregate(machineProcs)
		if tracer != nil {
			t = trace.NewPipeline(tracer, agg)
		} else {
			t = agg
		}
	}
	cc := core.Config{
		Machine:     machine.Hector16(*seed),
		ClusterSize: *size,
		LockKind:    lk,
		Tracer:      t,
		Migratable:  *migrate,
	}
	// One cadence for every policy: with -autonomic the tune samplers
	// register on the plane during kernel construction, the data policies
	// after.
	dp := exp.OnlineDaemonParams()
	var plane *autonomic.Plane
	if *migrate {
		plane = autonomic.NewPlane(dp.Period)
	}
	if *auto {
		cc.TuneParams = &tune.Params{Plane: plane}
	}
	sys := core.NewSystem(cc)
	if tracer != nil {
		tracer.SetMachine(sys.M)
		// Wrap each cluster's memory-manager lock with telemetry so the
		// trace carries named lock wait/hold spans (zero simulated cost).
		for c := 0; c < sys.K.Topo.N; c++ {
			sys.K.VM.SetMMLock(c, locks.NewStats(sys.M, sys.K.VM.MMLock(c)))
		}
	}
	var daemon *placement.Daemon
	var rep *autonomic.Replicator
	if *migrate {
		var rp *autonomic.ReplicatorParams
		if *auto {
			rp = &autonomic.ReplicatorParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3}
		}
		rep, daemon = placement.Attach(plane, sys.K, agg, rp, &dp)
	}

	var res workload.FaultResult
	switch *wl {
	case "independent":
		res = workload.IndependentFaults(sys, *procs, *pages, *rounds)
	case "shared":
		res = workload.SharedFaults(sys, *procs, *pages, *rounds)
	}

	d := res.Dist
	fmt.Printf("%s faults, %d procs, cluster size %d, %s locks:\n", *wl, *procs, *size, lk)
	fmt.Printf("  fault latency (us): mean %.1f  p50 %.1f  p95 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Max())
	fmt.Printf("  faults handled:     %d\n", res.Stats.Faults)
	fmt.Printf("  descriptor replications: %d\n", res.Replications)
	fmt.Printf("  coherence write notices: %d\n", res.Stats.CoherenceRPCs)
	fmt.Printf("  COW copies:              %d\n", res.Stats.COWCopies)
	fmt.Printf("  RPC calls:               %d (retried %d)\n", sys.K.RPC.Calls, sys.K.RPC.Retries)
	fmt.Printf("  IPI work deferred by the logical mask: %d\n", sys.K.Gate.Deferred)
	fmt.Printf("  elapsed: %v simulated\n", res.Elapsed)
	if daemon != nil {
		fmt.Printf("  migrations: %d (%d words copied, %.1fus charged)\n",
			res.Stats.Migrations, res.Stats.MigratedWords,
			float64(res.Stats.MigrationCycles)/sim.CyclesPerMicrosecond)
		fmt.Print("  " + daemon.Report())
	}
	if rep != nil {
		fmt.Print("  " + plane.Report())
		fmt.Print("  " + rep.Report())
		var switches uint64
		for _, ctl := range sys.K.Controllers() {
			switches += ctl.Switches()
		}
		fmt.Printf("  kernel lock controllers: %d mode switches across %d clusters\n",
			switches, len(sys.K.Controllers()))
	}

	// Memory-system hot spots (windowed: the window opened at machine
	// construction, so this covers the whole run).
	fmt.Println("  busiest memory modules:")
	now := sys.M.Eng.Now()
	for i := 0; i < sys.M.NumProcs(); i++ {
		r := sys.M.Mem.Module(i)
		if u := r.WindowUtilization(now); u > 0.10 {
			fmt.Printf("    module %-2d  %4.0f%% busy, worst queue %v\n", i, u*100, r.MaxQueue)
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create trace: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.Export(f); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d events)\n", *tracePath, len(tracer.Events()))
	}
}
