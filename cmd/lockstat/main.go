// lockstat runs a single lock-contention experiment on the simulated
// HECTOR machine and prints the latency distribution — a command-line
// microscope for one (algorithm, processors, hold time) point of Figure 5.
//
//	lockstat -lock h2mcs -procs 16 -hold 25 -rounds 300
//	lockstat -lock spin2ms -procs 16 -hold 25    # watch the starvation tail
//	lockstat -lock spin -procs 16 -hold 25 -stats    # per-lock + per-resource telemetry
//	lockstat -tune -procs 16 -hold 25            # feedback-tuned lock + controller decisions
//	lockstat -tune -machine numachine64 -procs 64    # tuning on the 64-proc NUMAchine
//	lockstat -lock spin -machine numachine256 -procs 256 -rounds 10   # stress at 256 processors
//	lockstat -lock h2mcs -procs 4 -rounds 20 -trace out.json   # chrome://tracing / Perfetto
//
// With -stats, warm-up rounds (default rounds/4) are excluded from every
// number by a mid-run statistics reset: latency distributions, lock
// telemetry and resource utilization all cover only the measurement
// window, so start-up transients do not dilute steady-state contention.
//
// With -tune (or -lock tuned), the lock is the feedback-tuned hybrid and
// the controller's decision log is printed after the run: per sampling
// window, the measured home-module utilization, the smoothed wait
// estimate, and the backoff cap / mode the controller chose.
//
// With -migrate, the protected data lives in a migratable region (use
// -home to start it away from the contenders, e.g. -home 12 -procs 4) and
// the online placement daemon re-homes it mid-run from the live access
// trace; its move log is printed after the run.
//
//	lockstat -lock h2mcs -procs 4 -home 12 -migrate  # daemon pulls the data to station 0
//
// With -autonomic, the full kernel autonomics plane runs under one shared
// cadence: the tuned lock's controller, the placement daemon, and the
// replication policy for read-mostly data (-tune and -migrate remain the
// single-policy aliases).
//
// With -run server, lockstat runs one cell of the server sweep — the
// machine, lock and horizon chosen by -machine, -lock and -ms, with -migrate
// the Tuned+mig row's placement daemon — and with -autonomic the autonomic
// sweep's combined row, which runs on hector16 only. Each prints the
// metrics the sweep publishes for that cell.
//
//	lockstat -run server -lock h2mcs -ms 20
//	lockstat -run server -autonomic -ms 15
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hurricane/internal/autonomic"
	"hurricane/internal/exp"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

var kinds = map[string]locks.Kind{
	"mcs":      locks.KindMCS,
	"h1mcs":    locks.KindH1MCS,
	"h2mcs":    locks.KindH2MCS,
	"spin":     locks.KindSpin,
	"spin2ms":  locks.KindSpin2ms,
	"clh":      locks.KindCLH,
	"adaptive": locks.KindAdaptive,
	"tuned":    locks.KindTuned,
	"cohort":   locks.KindCohort,
	"cna":      locks.KindCNA,
}

// machines are the -machine presets.
var machines = map[string]func(seed uint64) sim.Config{
	"hector16":      machine.Hector16,
	"numachine64":   machine.NUMAchine64,
	"numachine256":  machine.NUMAchine256,
	"numachine1024": machine.NUMAchine1024,
}

// maxHoldUS bounds -hold: one simulated second per critical section.
const maxHoldUS = 1e6

// validate rejects flag values the run cannot honor, before any machine is
// built, so a bad invocation fails with one line instead of a panic, a run
// that never ends, or zeroed statistics.
func validate(name string, mc sim.Config, run string, auto bool, procs, home int, holdUS float64, rounds, warmup, horizonMS int) error {
	if run == "server" {
		cell, err := serverCell(name, locks.KindH2MCS, mc.Seed, horizonMS, false, auto)
		if err != nil {
			return fmt.Errorf("-run server: %v", err)
		}
		// No request that arrives inside the warm-up is measured.
		if c := cell.Config; c.Arrivals.Horizon <= c.Warmup {
			return fmt.Errorf("-ms %d must exceed the server cell's %gms warm-up", horizonMS, c.Warmup.Microseconds()/1000)
		}
	}
	maxProcs := mc.Stations * mc.ProcsPerStation
	switch {
	case run != "stress" && run != "server":
		return fmt.Errorf("unknown -run %q; choose stress or server", run)
	case procs < 1 || procs > maxProcs:
		return fmt.Errorf("-procs %d must be 1-%d (%s)", procs, maxProcs, name)
	case home < 0 || home >= maxProcs:
		return fmt.Errorf("-home %d must be a module 0-%d (%s)", home, maxProcs-1, name)
	case !(holdUS >= 0 && holdUS <= maxHoldUS):
		return fmt.Errorf("-hold %g must be 0-%.0f microseconds", holdUS, float64(maxHoldUS))
	case rounds < 1:
		return fmt.Errorf("-rounds %d must be at least 1", rounds)
	case warmup < -1 || warmup >= rounds:
		return fmt.Errorf("-warmup %d must be -1 (rounds/4) or 0-%d", warmup, rounds-1)
	case horizonMS < 1:
		return fmt.Errorf("-ms %d must be at least 1", horizonMS)
	}
	return nil
}

func main() {
	lock := flag.String("lock", "h2mcs", "mcs | h1mcs | h2mcs | spin | spin2ms | clh | adaptive | tuned | cohort | cna")
	tuned := flag.Bool("tune", false, "shorthand for -lock tuned; prints the controller's decision log")
	machineName := flag.String("machine", "hector16", "hector16 | numachine64 | numachine256 | numachine1024 (the last two: stress only)")
	procs := flag.Int("procs", 16, "contending processors")
	holdUS := flag.Float64("hold", 25, "critical-section length in microseconds")
	rounds := flag.Int("rounds", 300, "acquisitions per processor")
	warmup := flag.Int("warmup", -1, "warm-up acquisitions per processor excluded from stats (-1 = rounds/4)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	showStats := flag.Bool("stats", false, "print per-lock and per-resource telemetry")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	home := flag.Int("home", 0, "home module of the lock and its protected data")
	migrate := flag.Bool("migrate", false, "protected data in a migratable region managed by the online placement daemon")
	auto := flag.Bool("autonomic", false, "full autonomics plane: tuned lock + migration + replication under one cadence")
	run := flag.String("run", "stress", "stress | server (open-loop multi-tenant server, tail-latency summary)")
	horizonMS := flag.Int("ms", 20, "server mode: arrival horizon in simulated milliseconds")
	flag.Parse()

	if *auto {
		*tuned = true
		*migrate = true
	}
	if *tuned {
		*lock = "tuned"
	}
	kind, ok := kinds[*lock]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown lock %q; choose one of mcs, h1mcs, h2mcs, spin, spin2ms, clh, adaptive, tuned, cohort, cna\n", *lock)
		os.Exit(2)
	}
	mcfg, ok := machines[*machineName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown machine %q; choose hector16, numachine64, numachine256 or numachine1024\n", *machineName)
		os.Exit(2)
	}
	mc := mcfg(*seed)
	if err := validate(*machineName, mc, *run, *auto, *procs, *home, *holdUS, *rounds, *warmup, *horizonMS); err != nil {
		fmt.Fprintf(os.Stderr, "lockstat: %v\n", err)
		os.Exit(2)
	}
	if *warmup < 0 {
		*warmup = *rounds / 4
	}

	if *run == "server" {
		if err := runServer(os.Stdout, *machineName, kind, *seed, *horizonMS, *migrate, *auto); err != nil {
			fmt.Fprintf(os.Stderr, "lockstat: -run server: %v\n", err)
			os.Exit(2)
		}
		return
	}

	us, counts := workload.UncontendedPair(*seed, kind)
	fmt.Printf("%s: uncontended pair %.2fus (atomic/mem/reg/br = %d/%d/%d/%d)\n\n",
		kind, us, counts.Atomic, counts.Mem, counts.Reg, counts.Branch)

	var tracer *trace.Chrome
	var agg *trace.Aggregate
	var t sim.Tracer
	if *tracePath != "" {
		tracer = trace.NewChrome()
		t = tracer
	}
	if *migrate {
		// The daemon's control signal is the live aggregate; fan the event
		// stream out if a Chrome trace was also requested.
		agg = trace.NewAggregate(mc.Stations * mc.ProcsPerStation)
		if tracer != nil {
			t = trace.NewPipeline(tracer, agg)
		} else {
			t = agg
		}
	}

	// Build through StressConfig so the machine is selectable and, for the
	// tuned lock, the controller stays reachable for the decision log.
	var tl *locks.Tuned
	var daemon *placement.Daemon
	cfg := workload.StressConfig{
		Machine: mc,
		Kind:    kind,
		Procs:   *procs,
		Rounds:  *rounds,
		Warmup:  *warmup,
		Hold:    sim.Micros(*holdUS),
		Home:    *home,
		Tracer:  t,
		Region:  *migrate,
	}
	// The daemon, and with -autonomic the replicator, run on a plane. With
	// -autonomic the tuned lock's sampler joins it as the lock comes up,
	// ahead of the data policies.
	var plane, tunePlane *autonomic.Plane
	var rep *autonomic.Replicator
	if *migrate {
		plane = autonomic.NewPlane(placement.DefaultDaemonParams().Period)
	}
	if *auto {
		tunePlane = plane
	}
	if kind == locks.KindTuned {
		cfg.MakeLock = func(m *sim.Machine, home int) locks.Lock {
			tl = locks.NewTuned(m, home, tune.Params{Plane: tunePlane})
			return tl
		}
	}
	if *migrate {
		cfg.Attach = func(r *workload.LockStressObserved) {
			// The stress run only starts -procs processors, so the default
			// executor (the processor co-located with the data's home) may
			// never be scheduled; run every copy on processor 0 instead.
			// The copy itself needs no extra lock here: the region's words
			// are re-pointed atomically and the burst is serialized against
			// in-flight accesses by the module/ring resource queues.
			params := placement.DefaultDaemonParams()
			params.Exec = func(int) int { return 0 }
			region := r.DataRegion
			topo, costs := autonomic.TopoOf(r.M.Config()), autonomic.CostsFromLatency(r.M.Lat())
			if *auto {
				rep = autonomic.NewReplicator(r.M, topo, costs,
					autonomic.ReplicatorParams{Exec: func(int) int { return 0 }},
					[]autonomic.ReplicaSlot{{
						Name:   "lock data",
						Region: region,
						Reads:  func() []uint64 { return agg.RegionReads.Of(region) },
						Writes: func() []uint64 { return agg.RegionWrites.Of(region) },
						Replicate: func(p *sim.Proc, to int) {
							r.M.Mem.ReplicateRegion(p, region, to)
						},
						Collapse: func(p *sim.Proc) { r.M.Mem.CollapseRegion(region) },
					}})
				plane.Add(rep)
				params.Yield = rep.Claimed
			}
			daemon = placement.NewDaemon(r.M, agg, topo, costs, params,
				[]placement.DaemonSlot{{
					Name:   "lock data",
					Region: region,
					Migrate: func(p *sim.Proc, to int) {
						if r.M.Mem.Replicated(region) {
							r.M.Mem.CollapseRegion(region)
						}
						r.M.Mem.MigrateRegion(p, region, to)
					},
				}})
			plane.Add(daemon)
			plane.Start(r.M.Eng)
		}
	}
	r := workload.LockStressRun(cfg)
	if tracer != nil {
		tracer.SetMachine(r.M)
	}
	d := r.AcquireDist
	fmt.Printf("%d procs x %d rounds (+%d warm-up), hold %gus:\n", *procs, *rounds, *warmup, *holdUS)
	fmt.Printf("  acquire latency (us): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max())
	fmt.Printf("  acquires over 2ms: %.2f%%\n", d.FracAbove(2000)*100)
	fmt.Printf("  throughput view: %.1f us/op machine-wide\n", r.PairUS+*holdUS)

	if tl != nil {
		fmt.Println()
		fmt.Print(tl.Controller().Report())
	}

	if daemon != nil {
		fmt.Println()
		if rep != nil {
			fmt.Print(plane.Report())
			fmt.Print(rep.Report())
		}
		fmt.Print(daemon.Report())
		fmt.Printf("data region home: module %d", r.M.Mem.Home(r.DataRegion))
		if reps := r.M.Mem.Replicas(r.DataRegion); len(reps) > 0 {
			fmt.Printf(", replicas on %v", reps)
		}
		fmt.Println()
	}

	if *showStats {
		fmt.Println()
		fmt.Print(r.Lock.Report())
		fmt.Printf("windowed resource utilization over [%v, %v]:\n", r.WindowStart, r.WindowEnd)
		for i, ru := range r.Resources {
			marker := ""
			if i == r.HomeModule {
				marker = "  <- lock home"
			}
			// Quiet resources are noise; always show the home module.
			if ru.Utilization < 0.01 && i != r.HomeModule {
				continue
			}
			fmt.Printf("  %-8s %5.1f%% busy  %7d requests  worst queue %6.1fus%s\n",
				ru.Name, ru.Utilization*100, ru.Requests, ru.MaxQueueUS, marker)
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
		fmt.Printf("\nwrote %s (%d events; open in chrome://tracing or https://ui.perfetto.dev)\n",
			*tracePath, len(tracer.Events()))
	}
}

// serverCell is the sweep cell -run server runs: the autonomic sweep's
// combined row with auto, else the server sweep's cell for the machine and
// lock, with its placement daemon when migrate is set. The error names a
// machine the sweep has no cell for.
func serverCell(name string, kind locks.Kind, seed uint64, horizonMS int, migrate, auto bool) (*exp.ServerCell, error) {
	if auto {
		return exp.NewAutonomicCell(seed, name, horizonMS)
	}
	return exp.NewServerCell(seed, name, kind, migrate, horizonMS)
}

// runServer runs the open-loop multi-tenant server cell that serverCell
// picks and prints to w the sojourn-time tail and the per-tenant breakdown,
// then the reports of whichever controllers the cell runs: the tuned
// kernel locks' decision logs, the plane's schedule, the replicator's
// actions and the daemon's move log. The error names a machine the sweep
// has no cell for.
func runServer(w io.Writer, name string, kind locks.Kind, seed uint64, horizonMS int, migrate, auto bool) error {
	cell, err := serverCell(name, kind, seed, horizonMS, migrate, auto)
	if err != nil {
		return err
	}
	cfg := cell.Config
	r := workload.ServerRun(cfg)
	fmt.Fprintf(w, "%s %s: open-loop server, %dms horizon + drain (2ms warm-up), mean gap %gus\n",
		name, cfg.LockKind, horizonMS, cfg.Arrivals.MeanGap.Microseconds())
	dropPct := 0.0
	if r.Offered > 0 {
		dropPct = 100 * float64(r.Dropped) / float64(r.Offered)
	}
	fmt.Fprintf(w, "  offered %d  admitted %d  dropped %d (%.2f%%)  goodput %.0f r/s\n",
		r.Offered, r.Admitted, r.Dropped, dropPct, r.GoodputRPS)
	fmt.Fprintf(w, "  sojourn (us): %s\n", r.Lat.Tail())
	ks, calls := r.KStats, r.Sys.K.RPC.Calls
	perReq := 0.0
	if ks.Requests > 0 {
		perReq = float64(calls) / float64(ks.Requests)
	}
	fmt.Fprintf(w, "  kernel: %d RPC calls (set-up included), %.2f per served request; retries: create %d, destroy %d, send %d\n",
		calls, perReq, ks.CreateRetries, ks.DestroyRetries, ks.MsgRetries)
	fmt.Fprintln(w, "  per-tenant (rank order):")
	for rank, ts := range r.Tenants {
		fmt.Fprintf(w, "    tenant %-3d w=%.3f adm=%-5d drop=%-4d %s\n",
			rank, ts.Weight, ts.Admitted, ts.Dropped, ts.Lat.Tail())
	}
	if cfg.LockKind == locks.KindTuned {
		for i, ctl := range r.Sys.K.Controllers() {
			fmt.Fprintf(w, "\nkernel lock controller %d:\n%s", i, ctl.Report())
		}
	}
	if cell.Plane != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, cell.Plane.Report())
	}
	if cell.Replicator != nil {
		fmt.Fprint(w, cell.Replicator.Report())
	}
	if cell.Daemon != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, cell.Daemon.Report())
	}
	return nil
}
