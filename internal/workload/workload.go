// Package workload implements the paper's synthetic stress tests (§4):
// the lock acquire/release loops of Figure 5, and the independent- and
// shared-fault page-fault tests of Figure 6, plus the harness pieces they
// need (a zero-cost barrier for phase alignment).
package workload

import (
	"hurricane/internal/cluster"
	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
)

// Barrier aligns a fixed group of simulated processors. It costs nothing
// in simulated time (the paper's tests barrier between phases but do not
// measure the barrier).
type Barrier struct {
	n       int
	arrived int
	waiting []*sim.Proc
}

// NewBarrier builds a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(p *sim.Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		for _, q := range b.waiting {
			q.Unpark()
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	for {
		p.Park()
		// Spurious wake (an IPI): still waiting if we are in the list.
		stillWaiting := false
		for _, q := range b.waiting {
			if q == p {
				stillWaiting = true
			}
		}
		if !stillWaiting {
			return
		}
	}
}

// LockStressResult reports Figure 5 numbers for one (algorithm, p) point.
type LockStressResult struct {
	// PairUS is a throughput view: elapsed time per per-processor round,
	// minus the hold. Because unfair locks let early finishers drop out,
	// this underestimates their cost; prefer AcquireUS for fairness-
	// sensitive comparisons.
	PairUS float64
	// AcquireUS is the mean time to acquire the lock in microseconds —
	// the figure's response time.
	AcquireUS float64
	// AcquireDist is the distribution of individual acquire latencies in
	// microseconds (for the starvation analysis: the paper saw >2ms on
	// 13% of acquires with the 2ms-backoff spin lock at p=16).
	AcquireDist *stats.Dist
}

// holdWork is the critical section of every stress loop: the holder stores
// into the protected data once per 2us chunk of the hold, so remote
// spinning on the data's module slows the holder — the second-order effect
// of §2.1 — and thinks out the remainder. The chunks are one fixed
// instruction loop, so they run engine-side (sim.Proc.Sweep).
func holdWork(p *sim.Proc, data sim.Addr, h sim.Duration) {
	chunk := sim.Micros(2)
	a := data + sim.Addr(p.ID()%8)
	p.Sweep(int(h/chunk), func(int) sim.Addr { return a }, true, uint64(p.ID()), chunk-20)
	p.Think(h % chunk)
}

// ResourceUtil is one resource's windowed activity summary.
type ResourceUtil struct {
	Name        string
	Utilization float64
	Requests    uint64
	MaxQueueUS  float64
}

// LockStressObserved is one stress run's Figure 5 numbers with the
// observability layer attached: per-lock telemetry, per-resource windowed
// utilization over just the measured rounds, and (optionally) a full event
// trace.
type LockStressObserved struct {
	LockStressResult
	// M is the machine the run executed on (trace sinks read its topology).
	M *sim.Machine
	// Lock holds the per-lock telemetry accumulated over the measured
	// rounds (acquisitions, hold times, queue depth, hand-off distances).
	Lock *locks.Stats
	// Window is the measurement window: warm-up rounds run in
	// [0, WindowStart); stats cover [WindowStart, WindowEnd].
	WindowStart, WindowEnd sim.Time
	// Resources summarizes every memory-system resource's windowed
	// utilization (modules, buses, ring, in that order).
	Resources []ResourceUtil
	// HomeModule indexes the lock's home module within Resources.
	HomeModule int
	// DataRegion is the protected data's migratable region id when the run
	// was configured with StressConfig.Region, -1 otherwise.
	DataRegion int
}

// StressConfig parameterizes a lock stress run (the Figure 5 loop) on an
// arbitrary machine configuration — the generalization the tuning and
// scaling experiments need, where the same loop must run on both the
// 16-processor HECTOR and the 64-processor NUMAchine configurations.
type StressConfig struct {
	// Machine is the hardware configuration, including the seed. The zero
	// value takes the HECTOR defaults (4 stations x 4 processors).
	Machine sim.Config
	// Kind selects the lock algorithm; ignored when MakeLock is set.
	Kind locks.Kind
	// MakeLock, when non-nil, overrides lock construction — e.g. to keep a
	// handle on a locks.Tuned for its controller report, or to pass
	// explicit tune.Params. It must allocate the lock before returning so
	// the word layout matches the default path.
	MakeLock func(m *sim.Machine, home int) locks.Lock
	// Procs is how many processors run the loop; Rounds how many measured
	// acquire/release pairs each performs; Warmup how many unmeasured
	// pairs precede the measurement window.
	Procs, Rounds, Warmup int
	// Hold is the critical-section hold time.
	Hold sim.Duration
	// Jitter, when non-zero, delays each processor's first measured round
	// by a random think in [0, Jitter). Without it the post-barrier enqueue
	// order is the processor ID order, and under continuous contention a
	// FIFO lock then recycles that order forever — making its hand-offs
	// look station-clustered as a pure start-order artifact. Locality
	// comparisons (the cohort sweep) set this; latency-only runs leave it
	// zero and reproduce the historical event order exactly.
	Jitter sim.Duration
	// Home is the lock's (and protected data's) home module.
	Home int
	// Tracer, when non-nil, observes the whole run including warm-up.
	Tracer sim.Tracer
	// Region, when set, allocates the protected data in a migratable sim
	// memory region (initially homed at Home) instead of directly on the
	// home module, and records its id in the result's DataRegion — the
	// handle an online placement daemon needs to re-home the data mid-run.
	// Every processor then takes interrupts, so the one co-located with the
	// data can run a policy's copy: those outside the loop idle in
	// cluster.Serve from the start, and each participant after its last
	// round, as under core.System.
	Region bool
	// Attach, when non-nil, runs after the machine, lock, and data exist
	// but before any processor starts — the hook lockstat uses to install
	// a placement daemon over DataRegion.
	Attach func(r *LockStressObserved)
}

// LockStressRun runs the Figure 5 experiment: Procs processors
// continuously acquire and release one lock, holding it for Hold, Rounds
// times each. Warmup warm-up rounds per processor are excluded from every
// statistic: after the warm-up all processors barrier, the resource windows
// and lock telemetry reset, and only then do the measured rounds count.
// With no warm-up there is no barrier, and the window opens at time zero.
// A non-nil Tracer observes the whole run (including warm-up).
func LockStressRun(cfg StressConfig) *LockStressObserved {
	home := cfg.Home
	m := sim.NewMachine(cfg.Machine)
	m.SetTracer(cfg.Tracer)
	mk := cfg.MakeLock
	if mk == nil {
		mk = func(m *sim.Machine, home int) locks.Lock { return locks.New(m, cfg.Kind, home) }
	}
	l := locks.NewStats(m, mk(m, home))
	dataHome := home
	dataRegion := -1
	if cfg.Region {
		dataRegion = m.Mem.NewRegion(home)
		dataHome = dataRegion
	}
	data := m.Alloc(dataHome, 8)
	res := &LockStressObserved{M: m, Lock: l, HomeModule: home, DataRegion: dataRegion}
	if cfg.Attach != nil {
		cfg.Attach(res)
	}
	bar := NewBarrier(cfg.Procs)
	windowOpen := false
	for i := 0; i < cfg.Procs; i++ {
		m.Go(i, func(p *sim.Proc) {
			for r := 0; r < cfg.Warmup; r++ {
				l.Acquire(p)
				holdWork(p, data, cfg.Hold)
				l.Release(p)
			}
			// Without a warm-up there is nothing to align: a barrier at time
			// zero would only reorder the first acquisitions.
			if cfg.Warmup > 0 {
				bar.Wait(p)
			}
			// The first processor to resume opens the measurement window;
			// the simulator is single-threaded, so this runs before any
			// post-barrier lock traffic.
			if !windowOpen {
				windowOpen = true
				res.WindowStart = p.Now()
				m.Mem.ResetStats()
				l.ResetWindow()
				// Mark the window edge in the trace so a viewer (and the
				// aggregator's readers) can separate warm-up from measurement.
				m.Eng.Emit(sim.TraceEvent{Kind: sim.EvInstant, Name: "measurement window opens",
					Proc: p.ID(), Start: p.Now(), End: p.Now(), Src: -1, Dst: -1})
			}
			if cfg.Jitter > 0 {
				p.Think(p.RNG().Duration(cfg.Jitter))
			}
			for r := 0; r < cfg.Rounds; r++ {
				l.Acquire(p)
				holdWork(p, data, cfg.Hold)
				l.Release(p)
			}
			if cfg.Region {
				cluster.Serve(p)
			}
		})
	}
	if cfg.Region {
		for i := cfg.Procs; i < m.NumProcs(); i++ {
			m.Go(i, cluster.Serve)
		}
	}
	m.RunAll()
	m.Shutdown()
	res.WindowEnd = m.Eng.Now()
	measured := res.WindowEnd - res.WindowStart
	perOp := float64(measured) / float64(cfg.Rounds) / sim.CyclesPerMicrosecond
	// The telemetry wrapper's acquire distribution holds the measured
	// rounds' acquires alone: the window reset precedes the first of them.
	res.LockStressResult = LockStressResult{
		PairUS:      perOp - cfg.Hold.Microseconds(),
		AcquireUS:   l.AcquireUS.Mean(),
		AcquireDist: &l.AcquireUS,
	}
	m.Mem.Resources(func(r *sim.Resource) {
		res.Resources = append(res.Resources, ResourceUtil{
			Name:        r.Name,
			Utilization: r.Utilization(res.WindowStart, res.WindowEnd),
			Requests:    r.Requests,
			MaxQueueUS:  r.MaxQueue.Microseconds(),
		})
	})
	return res
}

// UncontendedPair measures one warm acquire+release by processor 0 with
// the lock word cross-ring, like §4.1.1.
func UncontendedPair(seed uint64, kind locks.Kind) (us float64, counts sim.InstrCounters) {
	m := sim.NewMachine(sim.Config{Seed: seed})
	l := locks.New(m, kind, 12)
	var took sim.Duration
	m.Go(0, func(p *sim.Proc) {
		l.Acquire(p)
		l.Release(p)
		before := p.Counters()
		start := p.Now()
		l.Acquire(p)
		l.Release(p)
		took = p.Now() - start
		counts = p.Counters().Sub(before)
	})
	m.RunAll()
	m.Shutdown()
	return took.Microseconds(), counts
}

// FaultResult reports one page-fault experiment run.
type FaultResult struct {
	// Dist is the distribution of fault response times in microseconds.
	Dist *stats.Dist
	// Stats snapshots the kernel counters after the run.
	Stats kernel.Stats
	// Replications counts page-descriptor replications performed.
	Replications uint64
	// Elapsed is the total simulated time.
	Elapsed sim.Time
}

// IndependentFaults runs the Figure 6a test on sys: nprocs processes
// repeatedly soft-fault on private pages of a per-process region homed in
// the faulting processor's own cluster. The only possible contention is
// kernel-internal (coarse locks).
func IndependentFaults(sys *core.System, nprocs, npages, rounds int) FaultResult {
	k := sys.K
	dist := &stats.Dist{}
	bar := NewBarrier(nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		sys.Spawn(i, func(p *sim.Proc) {
			c := k.Topo.ClusterOf(i)
			id := uint64(i + 1)
			region := kernel.MakeKey(c, 1, id<<20)
			file := kernel.MakeKey(c, 2, id<<20)
			base := kernel.MakeKey(c, 3, id<<20)
			k.VM.SetupRegion(p, region, file, base)
			for v := 0; v < npages; v++ {
				k.VM.SetupFCB(p, file+uint64(v))
				k.VM.SetupPage(p, base+uint64(v), 1, 0, id<<20|uint64(v))
			}
			pid := id
			// Warm the tables (first faults create AS/HAT entries).
			if _, err := k.VM.Fault(p, pid, region, 0, true); err != nil {
				panic(err)
			}
			k.VM.Unmap(p, pid, region, 0)
			bar.Wait(p)
			for r := 0; r < rounds; r++ {
				vpn := uint64(r % npages)
				t0 := p.Now()
				if _, err := k.VM.Fault(p, pid, region, vpn, true); err != nil {
					panic(err)
				}
				dist.Add((p.Now() - t0).Microseconds())
				k.VM.Unmap(p, pid, region, vpn)
			}
		})
	}
	sys.ServeOthers()
	elapsed := sys.Run(0)
	return FaultResult{Dist: dist, Stats: k.Stats, Replications: k.VM.Pages().Replications, Elapsed: elapsed}
}

// SharedFaults runs the Figure 6b test on sys: nprocs processes repeatedly
// (1) write-fault the same npages shared pages, (2) barrier, (3) unmap
// them, (4) barrier. The pages are under page-level coherence, so write
// faults from non-home clusters notify the master; contention is inherent
// in the application's sharing.
func SharedFaults(sys *core.System, nprocs, npages, rounds int) FaultResult {
	k := sys.K
	dist := &stats.Dist{}
	bar := NewBarrier(nprocs)
	region := kernel.MakeKey(0, 1, 1<<20)
	file := kernel.MakeKey(0, 2, 1<<20)
	base := kernel.MakeKey(0, 3, 1<<20)
	for i := 0; i < nprocs; i++ {
		i := i
		sys.Spawn(i, func(p *sim.Proc) {
			pid := uint64(100 + i)
			if i == 0 {
				k.VM.SetupRegion(p, region, file, base)
				for v := 0; v < npages; v++ {
					k.VM.SetupFCB(p, file+uint64(v))
					k.VM.SetupPage(p, base+uint64(v), uint64(nprocs), kernel.FlagCoherent, 7<<20|uint64(v))
				}
			}
			bar.Wait(p) // setup done
			// Warm: create AS/HAT entries and local replicas.
			if _, err := k.VM.Fault(p, pid, region, 0, false); err != nil {
				panic(err)
			}
			k.VM.Unmap(p, pid, region, 0)
			bar.Wait(p)
			for r := 0; r < rounds; r++ {
				for v := 0; v < npages; v++ {
					t0 := p.Now()
					if _, err := k.VM.Fault(p, pid, region, uint64(v), true); err != nil {
						panic(err)
					}
					dist.Add((p.Now() - t0).Microseconds())
				}
				bar.Wait(p)
				for v := 0; v < npages; v++ {
					k.VM.Unmap(p, pid, region, uint64(v))
				}
				bar.Wait(p)
			}
		})
	}
	sys.ServeOthers()
	elapsed := sys.Run(0)
	return FaultResult{Dist: dist, Stats: k.Stats, Replications: k.VM.Pages().Replications, Elapsed: elapsed}
}
