// lockstat runs one experiment point on a simulated machine and prints
// what it measured — a command-line microscope for one (algorithm,
// processors, hold time) point of Figure 5, one cluster size of Figure 7
// (-run faults) or one cell of the server sweep (-run server).
//
//	lockstat -lock h2mcs -procs 16 -hold 25 -rounds 300
//	lockstat -lock spin2ms -procs 16 -hold 25    # watch the starvation tail
//	lockstat -lock spin -procs 16 -hold 25 -stats    # per-lock + per-resource telemetry
//	lockstat -tune -procs 16 -hold 25            # feedback-tuned lock + controller decisions
//	lockstat -tune -machine numachine64 -procs 64    # tuning on the 64-proc NUMAchine
//	lockstat -lock spin -machine numachine256 -procs 256 -rounds 10   # stress at 256 processors
//	lockstat -lock h2mcs -procs 4 -rounds 20 -trace out.json   # chrome://tracing / Perfetto + placement analysis
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
// With -run faults, lockstat runs the clustered kernel's page-fault
// workloads at cluster size -size and prints fault latency plus the
// cross-cluster traffic that explains it. -procs processes fault -rounds
// times on -pages private pages each (-workload independent) or on -pages
// pages they all share (-workload shared). With -migrate, kernel-data
// slots live in migratable regions and the online placement daemon, with
// the placement_online experiment's parameters, re-homes hot slots toward
// their accessors mid-run; its move log and the charged migration cost are
// printed after the run. -autonomic adds tuned kernel locks and the
// replication policy for read-mostly kernel data on the daemon's plane.
//
//	lockstat -run faults -size 4 -rounds 20 -workload shared
//	lockstat -run faults -size 1 -rounds 20 -lock spin
//	lockstat -run faults -size 16 -procs 4 -rounds 20 -migrate
//	lockstat -run faults -size 16 -procs 4 -rounds 20 -autonomic
//
// With -trace PATH, in stress and faults mode, one pipeline feeds a Chrome
// trace-event sink and an access aggregate (under -migrate, the aggregate
// the data policies read). After the run lockstat prints the event count,
// the aggregate's summary (accesses by distance class, the hottest home
// modules, the busiest span objects) and the placement analyzer's proposed
// home for each traced piece of data and each lock, priced by the run's
// own machine, then writes the Chrome file to PATH.
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
func validate(name string, mc sim.Config, run, wl string, auto, traced bool, procs, home int, holdUS float64, rounds, warmup, horizonMS, size, pages int) error {
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
	case run != "stress" && run != "faults" && run != "server":
		return fmt.Errorf("unknown -run %q; choose stress, faults or server", run)
	case run == "server" && traced:
		return fmt.Errorf("-trace works in stress and faults mode only, not with -run server")
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
	case size < 1 || maxProcs%size != 0:
		return fmt.Errorf("-size %d must divide %d (%s)", size, maxProcs, name)
	case pages < 1:
		return fmt.Errorf("-pages %d must be at least 1", pages)
	case wl != "independent" && wl != "shared":
		return fmt.Errorf("-workload %q must be independent or shared", wl)
	}
	return nil
}

func main() {
	lock := flag.String("lock", "h2mcs", "mcs | h1mcs | h2mcs | spin | spin2ms | clh | adaptive | tuned | cohort | cna")
	tuned := flag.Bool("tune", false, "shorthand for -lock tuned; prints the controller's decision log")
	machineName := flag.String("machine", "hector16", "hector16 | numachine64 | numachine256 | numachine1024 (the last two: stress and faults only)")
	procs := flag.Int("procs", 16, "contending processors (faults: faulting processes)")
	holdUS := flag.Float64("hold", 25, "critical-section length in microseconds")
	rounds := flag.Int("rounds", 300, "acquisitions per processor (faults: fault rounds per process)")
	warmup := flag.Int("warmup", -1, "warm-up acquisitions per processor excluded from stats (-1 = rounds/4)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	showStats := flag.Bool("stats", false, "print per-lock and per-resource telemetry")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run and print its placement analysis")
	home := flag.Int("home", 0, "home module of the lock and its protected data")
	migrate := flag.Bool("migrate", false, "online placement daemon over migratable data (stress: the protected data; faults: kernel-data slots)")
	auto := flag.Bool("autonomic", false, "full autonomics plane: tuned lock + migration + replication under one cadence")
	run := flag.String("run", "stress", "stress | faults (clustered-kernel page faults) | server (open-loop multi-tenant server, tail-latency summary)")
	horizonMS := flag.Int("ms", 20, "server mode: arrival horizon in simulated milliseconds")
	size := flag.Int("size", 4, "faults mode: processors per cluster (must divide the machine's processor count)")
	pages := flag.Int("pages", 4, "faults mode: pages per process (or shared pages)")
	wl := flag.String("workload", "independent", "faults mode: independent | shared")
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
	if err := validate(*machineName, mc, *run, *wl, *auto, *tracePath != "", *procs, *home, *holdUS, *rounds, *warmup, *horizonMS, *size, *pages); err != nil {
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

	ch, agg, t := sinks(*tracePath, *migrate, mc.Stations*mc.ProcsPerStation)
	var m *sim.Machine
	if *run == "faults" {
		m = runFaults(os.Stdout, core.Config{
			Machine:     mc,
			ClusterSize: *size,
			LockKind:    kind,
			Tracer:      t,
			Migratable:  *migrate,
		}, *wl, *procs, *pages, *rounds, ch != nil, *auto, agg)
	} else {
		m = runStress(os.Stdout, workload.StressConfig{
			Machine: mc,
			Kind:    kind,
			Procs:   *procs,
			Rounds:  *rounds,
			Warmup:  *warmup,
			Hold:    sim.Micros(*holdUS),
			Home:    *home,
			Tracer:  t,
			Region:  *migrate,
		}, *holdUS, *showStats, *auto, agg)
	}
	if ch != nil {
		if err := finishTrace(os.Stdout, *tracePath, ch, agg, m); err != nil {
			fmt.Fprintf(os.Stderr, "lockstat: %v\n", err)
			os.Exit(1)
		}
	}
}

// sinks builds the run's tracer. With a trace path it is one pipeline
// feeding a Chrome sink and an aggregate; with migrate alone, the
// aggregate the data policies read; otherwise none. The aggregate is
// returned whenever it exists, the Chrome sink only with a trace path.
func sinks(path string, migrate bool, modules int) (*trace.Chrome, *trace.Aggregate, sim.Tracer) {
	if path == "" && !migrate {
		return nil, nil, nil
	}
	agg := trace.NewAggregate(modules)
	if path == "" {
		return nil, agg, agg
	}
	ch := trace.NewChrome()
	return ch, agg, trace.NewPipeline(ch, agg)
}

// finishTrace prints the traced run's event count, its access summary and
// the placement analyzer's proposals, priced by machine m's own topology
// and latencies, then writes the Chrome trace-event file to path.
func finishTrace(w io.Writer, path string, ch *trace.Chrome, agg *trace.Aggregate, m *sim.Machine) error {
	fmt.Fprintf(w, "\ntrace: %d events\n", len(ch.Events()))
	fmt.Fprint(w, agg.Summary())
	fmt.Fprintln(w)
	topo, costs := autonomic.TopoOf(m.Config()), autonomic.CostsFromLatency(m.Lat())
	fmt.Fprint(w, placement.Analyze(agg, topo, costs).String())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := ch.Export(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", path)
	return nil
}

// runStress runs the Figure 5 loop cfg describes and prints to w its
// acquire-latency distribution, then the reports of whichever controllers
// ran and, with showStats, the per-lock and per-resource telemetry. With
// cfg.Region the placement daemon, and with auto the replicator, run over
// the protected data (placement.Attach) and read agg, which must be
// cfg.Tracer or one of its sinks. It returns the machine the run executed
// on.
func runStress(w io.Writer, cfg workload.StressConfig, holdUS float64, showStats, auto bool, agg *trace.Aggregate) *sim.Machine {
	us, counts := workload.UncontendedPair(cfg.Machine.Seed, cfg.Kind)
	fmt.Fprintf(w, "%s: uncontended pair %.2fus (atomic/mem/reg/br = %d/%d/%d/%d)\n\n",
		cfg.Kind, us, counts.Atomic, counts.Mem, counts.Reg, counts.Branch)

	// The daemon, and with -autonomic the replicator, run on a plane. With
	// -autonomic the tuned lock's sampler joins it as the lock comes up,
	// ahead of the data policies; the controller stays reachable for the
	// decision log.
	var tl *locks.Tuned
	var daemon *placement.Daemon
	var plane, tunePlane *autonomic.Plane
	var rep *autonomic.Replicator
	if cfg.Region {
		plane = autonomic.NewPlane(sim.Micros(100))
	}
	if auto {
		tunePlane = plane
	}
	if cfg.Kind == locks.KindTuned {
		cfg.MakeLock = func(m *sim.Machine, home int) locks.Lock {
			tl = locks.NewTuned(m, home, tune.Params{Plane: tunePlane})
			return tl
		}
	}
	if cfg.Region {
		cfg.Attach = func(r *workload.LockStressObserved) {
			// The processor co-located with the data runs each copy (the
			// stress loop serves interrupts on every processor). The copy
			// needs no extra lock here: the region's words are re-pointed
			// atomically and the burst is serialized against in-flight
			// accesses by the module/ring resource queues.
			m, region := r.M, r.DataRegion
			var rp *autonomic.ReplicatorParams
			if auto {
				rp = &autonomic.ReplicatorParams{}
			}
			rep, daemon = placement.Attach(plane, m, agg, rp, []autonomic.ReplicaSlot{{
				Name:      "lock data",
				Region:    region,
				Reads:     func() []uint64 { return agg.RegionReads.Of(region) },
				Writes:    func() []uint64 { return agg.RegionWrites.Of(region) },
				Replicate: func(p *sim.Proc, to int) { m.Mem.ReplicateRegion(p, region, to) },
				Collapse:  func(*sim.Proc) { m.Mem.CollapseRegion(region) },
			}}, &placement.DaemonParams{}, []placement.DaemonSlot{{
				Name:   "lock data",
				Region: region,
				Migrate: func(p *sim.Proc, to int) {
					if m.Mem.Replicated(region) {
						m.Mem.CollapseRegion(region)
					}
					m.Mem.MigrateRegion(p, region, to)
				},
			}})
		}
	}
	r := workload.LockStressRun(cfg)
	d := r.AcquireDist
	fmt.Fprintf(w, "%d procs x %d rounds (+%d warm-up), hold %gus:\n", cfg.Procs, cfg.Rounds, cfg.Warmup, holdUS)
	fmt.Fprintf(w, "  acquire latency (us): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max())
	fmt.Fprintf(w, "  acquires over 2ms: %.2f%%\n", d.FracAbove(2000)*100)
	fmt.Fprintf(w, "  throughput view: %.1f us/op machine-wide\n", r.PairUS+holdUS)

	if tl != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, tl.Controller().Report())
	}

	if daemon != nil {
		fmt.Fprintln(w)
		if rep != nil {
			fmt.Fprint(w, plane.Report())
			fmt.Fprint(w, rep.Report())
		}
		fmt.Fprint(w, daemon.Report())
		fmt.Fprintf(w, "data region home: module %d", r.M.Mem.Home(r.DataRegion))
		if reps := r.M.Mem.Replicas(r.DataRegion); len(reps) > 0 {
			fmt.Fprintf(w, ", replicas on %v", reps)
		}
		fmt.Fprintln(w)
	}

	if showStats {
		fmt.Fprintln(w)
		fmt.Fprint(w, r.Lock.Report())
		fmt.Fprintf(w, "windowed resource utilization over [%v, %v]:\n", r.WindowStart, r.WindowEnd)
		for i, ru := range r.Resources {
			marker := ""
			if i == r.HomeModule {
				marker = "  <- lock home"
			}
			// Quiet resources are noise; always show the home module.
			if ru.Utilization < 0.01 && i != r.HomeModule {
				continue
			}
			fmt.Fprintf(w, "  %-8s %5.1f%% busy  %7d requests  worst queue %6.1fus%s\n",
				ru.Name, ru.Utilization*100, ru.Requests, ru.MaxQueueUS, marker)
		}
	}
	return r.M
}

// runFaults builds the clustered kernel cc describes, runs the wl page-fault
// workload on it (procs processes, pages pages, rounds rounds) and prints to
// w the fault latency and the cross-cluster traffic that explains it. With
// traced, each cluster's memory-manager lock is wrapped with telemetry, so
// the trace carries its named wait and hold spans (at zero simulated cost).
// With cc.Migratable the online placement daemon runs with
// placement_online's parameters and reads agg, which must be cc.Tracer or
// one of its sinks; with auto the replication policy and tuned kernel locks
// (cc.LockKind tuned) join it on one plane. It returns the machine the run
// executed on.
func runFaults(w io.Writer, cc core.Config, wl string, procs, pages, rounds int, traced, auto bool, agg *trace.Aggregate) *sim.Machine {
	// One cadence for every policy: with auto the tune samplers register
	// on the plane during kernel construction, the data policies after.
	var plane *autonomic.Plane
	if cc.Migratable {
		plane = autonomic.NewPlane(exp.OnlinePeriod)
	}
	if auto {
		cc.TuneParams = &tune.Params{Plane: plane}
	}
	sys := core.NewSystem(cc)
	if traced {
		for c := 0; c < sys.K.Topo.N; c++ {
			sys.K.VM.SetMMLock(c, locks.NewStats(sys.M, sys.K.VM.MMLock(c)))
		}
	}
	var daemon *placement.Daemon
	var rep *autonomic.Replicator
	if cc.Migratable {
		var rp *autonomic.ReplicatorParams
		if auto {
			rp = &autonomic.ReplicatorParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3}
		}
		dp := exp.OnlineDaemonParams()
		rep, daemon = placement.Attach(plane, sys.M, agg,
			rp, placement.ReplicateKernel(sys.K, agg), &dp, placement.ManageKernel(sys.K))
	}

	var res workload.FaultResult
	if wl == "shared" {
		res = workload.SharedFaults(sys, procs, pages, rounds)
	} else {
		res = workload.IndependentFaults(sys, procs, pages, rounds)
	}

	d := res.Dist
	fmt.Fprintf(w, "%s faults, %d procs, cluster size %d, %s locks:\n", wl, procs, cc.ClusterSize, cc.LockKind)
	fmt.Fprintf(w, "  fault latency (us): mean %.1f  p50 %.1f  p95 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Max())
	fmt.Fprintf(w, "  faults handled:     %d\n", res.Stats.Faults)
	fmt.Fprintf(w, "  descriptor replications: %d\n", res.Replications)
	fmt.Fprintf(w, "  coherence write notices: %d\n", res.Stats.CoherenceRPCs)
	fmt.Fprintf(w, "  COW copies:              %d\n", res.Stats.COWCopies)
	fmt.Fprintf(w, "  RPC calls:               %d (retried %d)\n", sys.K.RPC.Calls, sys.K.RPC.Retries)
	fmt.Fprintf(w, "  IPI work deferred by the logical mask: %d\n", sys.K.Gate.Deferred)
	fmt.Fprintf(w, "  elapsed: %v simulated\n", res.Elapsed)
	if daemon != nil {
		fmt.Fprintf(w, "  migrations: %d (%d words copied, %.1fus charged)\n",
			res.Stats.Migrations, res.Stats.MigratedWords,
			float64(res.Stats.MigrationCycles)/sim.CyclesPerMicrosecond)
		fmt.Fprint(w, "  "+daemon.Report())
	}
	if rep != nil {
		fmt.Fprint(w, "  "+plane.Report())
		fmt.Fprint(w, "  "+rep.Report())
		ctls := sys.K.Controllers()
		var switches uint64
		for _, ctl := range ctls {
			switches += ctl.Switches()
		}
		fmt.Fprintf(w, "  kernel lock controllers: %d across %d cluster(s), %d mode switches\n",
			len(ctls), sys.K.Topo.N, switches)
	}

	// Memory-system hot spots (windowed: the window opened at machine
	// construction, so this covers the whole run).
	fmt.Fprintln(w, "  busiest memory modules:")
	now := sys.M.Eng.Now()
	for i := 0; i < sys.M.NumProcs(); i++ {
		r := sys.M.Mem.Module(i)
		if u := r.WindowUtilization(now); u > 0.10 {
			fmt.Fprintf(w, "    module %-2d  %4.0f%% busy, worst queue %v\n", i, u*100, r.MaxQueue)
		}
	}
	return sys.M
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
	if cfg.TenantDataWords > 0 {
		d := r.Dispatch
		fmt.Fprintf(w, "  dispatch: %d measured wake-ups by distance to the tenant data's nearest copy: local %d, station %d, ring %d, global %d\n",
			d[sim.DistLocal]+d[sim.DistStation]+d[sim.DistRing]+d[sim.DistGlobal],
			d[sim.DistLocal], d[sim.DistStation], d[sim.DistRing], d[sim.DistGlobal])
		fmt.Fprintf(w, "  dequeue: %d measured requests taken ahead of their queue's head by a worker holding a copy of their replicated data\n",
			r.TakenAhead)
	}
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
