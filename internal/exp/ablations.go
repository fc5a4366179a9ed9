package exp

import (
	"fmt"

	"hurricane/internal/cluster"
	"hurricane/internal/core"
	"hurricane/internal/hybrid"
	"hurricane/internal/kernel"
	"hurricane/internal/lockfree"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/workload"
)

func serveProc(p *sim.Proc) { cluster.Serve(p) }

func nullHandler(h *sim.Proc) cluster.Status { return cluster.StatusOK }

// TryLockFairness reproduces the §3.2 finding: under lock saturation, a
// retry-based TryLock on a distributed lock starves (releases always hand
// off to queued waiters), while the V1 wait-variant and the logical-mask
// work queue both make progress.
func TryLockFairness(seed uint64, attempts int) *Table {
	t := &Table{
		Title: "Sec 3.2: TryLock under saturation (4 local holders, 1 remote trier)",
		Cols:  []string{"variant", "attempts", "successes", "note"},
	}

	// V2: true TryLock against a saturated lock.
	wins := tryUnderSaturation(seed, attempts, func(m *sim.Machine) locks.TryLocker { return locks.NewTryLockV2(m, 0) })
	t.AddRow("V2 true TryLock", fmt.Sprintf("%d", attempts), fmt.Sprintf("%d", wins),
		"abandoned nodes GC'd by release; remote retries starve")

	// V1: deadlock-safe wait variant — every attempt eventually succeeds,
	// because the trier enqueues FIFO like everyone else.
	wins = tryUnderSaturation(seed, attempts, func(m *sim.Machine) locks.TryLocker { return locks.NewTryLockV1(m, 0) })
	t.AddRow("V1 wait-if-safe", fmt.Sprintf("%d", attempts), fmt.Sprintf("%d", wins),
		"enqueues FIFO when it did not interrupt a holder")

	// Logical mask + work queue: IPIs arriving while the flag is set are
	// queued and run at Exit — fair access to the processor.
	{
		m := sim.NewMachine(sim.Config{Seed: seed})
		gate := cluster.NewGate(m)
		done := 0
		m.Go(0, func(p *sim.Proc) {
			for k := 0; k < attempts; k++ {
				gate.Enter(p)
				p.Think(sim.Micros(10)) // lock-holding region
				gate.Exit(p)
				p.Think(sim.Micros(2))
			}
		})
		for k := 0; k < attempts; k++ {
			k := k
			m.Eng.At(sim.Micros(float64(3+12*k)), func() {
				m.SendIPI(0, func(h *sim.Proc) {
					gate.Dispatch(h, func(*sim.Proc) { done++ })
				})
			})
		}
		m.RunAll()
		m.Shutdown()
		t.AddRow("IPI mask + work queue", fmt.Sprintf("%d", attempts), fmt.Sprintf("%d", done),
			fmt.Sprintf("%d deferred then completed at Exit", gate.Deferred))
	}
	return t
}

// tryUnderSaturation saturates a lock built by mk with 4 local holders and
// returns how many of a remote processor's TryAcquire attempts succeed.
func tryUnderSaturation(seed uint64, attempts int, mk func(*sim.Machine) locks.TryLocker) int {
	m := sim.NewMachine(sim.Config{Seed: seed})
	l := mk(m)
	stop := false
	for i := 0; i < 4; i++ {
		m.Go(i, func(p *sim.Proc) {
			for !stop {
				l.Acquire(p)
				p.Think(sim.Micros(10))
				l.Release(p)
			}
		})
	}
	wins := 0
	m.Go(8, func(p *sim.Proc) {
		for k := 0; k < attempts; k++ {
			if l.TryAcquire(p) {
				wins++
				l.Release(p)
			}
			p.Think(sim.Micros(50))
		}
		stop = true
	})
	m.RunAll()
	m.Shutdown()
	return wins
}

// protocolSeeds is how many consecutive seeds Protocols runs each storm
// at: which protocol finishes a single storm first changes from seed to
// seed.
const protocolSeeds = 8

// Protocols compares the optimistic and pessimistic deadlock-management
// disciplines on the two §2.5 stress cases, concurrent program destruction
// and a copy-on-write fault storm, each at seeds seed…seed+7. It prints
// each protocol's medians (nearest-rank p50) over the seeds and publishes,
// per case, the ratio of the pessimistic to the optimistic median elapsed
// time and the number of seeds at which optimistic finished first.
func Protocols(seed uint64) *Table {
	t := &Table{
		Title: "Sec 2.3/2.5: optimistic vs pessimistic deadlock management",
		Cols:  []string{"case", "protocol", "p50 elapsed(us)", "p50 retries", "p50 re-establishments"},
	}
	for _, c := range []struct {
		name, metric string
		// run returns one storm's elapsed µs, retries, re-establishments
		// and (COW storm only) private copies made.
		run func(seed uint64, proto kernel.Protocol) [4]float64
	}{
		{"program destruction", "destruction", func(seed uint64, proto kernel.Protocol) [4]float64 {
			elapsed, st := destructionStorm(seed, proto, 12)
			return [4]float64{elapsed.Microseconds(), float64(st.DestroyRetries), float64(st.Reestablishments), 0}
		}},
		{"COW fault storm", "cow", func(seed uint64, proto kernel.Protocol) [4]float64 {
			elapsed, st, retries := cowStorm(seed, proto)
			return [4]float64{elapsed.Microseconds(), float64(retries), float64(st.Reestablishments), float64(st.COWCopies)}
		}},
	} {
		var dist [2][4]stats.Dist // optimistic, pessimistic × run's four values
		wins := 0
		for s := seed; s < seed+protocolSeeds; s++ {
			opt, pess := c.run(s, kernel.Optimistic), c.run(s, kernel.Pessimistic)
			for j := range opt {
				dist[0][j].Add(opt[j])
				dist[1][j].Add(pess[j])
			}
			if opt[0] < pess[0] {
				wins++
			}
		}
		for i, proto := range []kernel.Protocol{kernel.Optimistic, kernel.Pessimistic} {
			p50 := func(j int) string { return fmt.Sprintf("%g", dist[i][j].Percentile(50)) }
			retries := p50(1)
			if c.metric == "cow" {
				retries = fmt.Sprintf("%s copies (+%s fault retries)", p50(3), retries)
			}
			t.AddRow(c.name, proto.String(), f1(dist[i][0].Percentile(50)), retries, p50(2))
		}
		ratio := dist[1][0].Percentile(50) / dist[0][0].Percentile(50)
		t.Note("%s: optimistic finished first at %d of %d seeds (%d-%d); pessimistic/optimistic p50 elapsed %.2f",
			c.name, wins, protocolSeeds, seed, seed+protocolSeeds-1, ratio)
		t.AddMetric(c.metric+".pess_over_opt", ratio, "ratio")
		t.AddMetric(c.metric+".opt_faster", float64(wins), "count")
	}
	t.Note("paper: retries are rare overall, and where they happen (COW, destruction) the pessimistic scheme would have had to re-search anyway")
	return t
}

// destructionStorm creates a root with n children spread over the clusters
// and destroys them all concurrently.
func destructionStorm(seed uint64, proto kernel.Protocol, n int) (sim.Time, kernel.Stats) {
	sys := core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: seed},
		ClusterSize: 4,
		LockKind:    locks.KindH2MCS,
		Protocol:    proto,
	})
	k := sys.K
	root := kernel.PIDKey(0, 1)
	start := false
	var begun sim.Time
	for i := 0; i < n; i++ {
		i := i
		sys.Spawn(i, func(p *sim.Proc) {
			for !start {
				p.Park()
			}
			if err := k.PM.Destroy(p, kernel.PIDKey(i%4, uint64(10+i))); err != nil {
				panic(err)
			}
		})
	}
	sys.Spawn(15, func(p *sim.Proc) {
		k.PM.Create(p, root, 0)
		for i := 0; i < n; i++ {
			if err := k.PM.Create(p, kernel.PIDKey(i%4, uint64(10+i)), root); err != nil {
				panic(err)
			}
		}
		begun = p.Now()
		start = true
		for i := 0; i < n; i++ {
			sys.M.Procs[i].Unpark()
		}
	})
	sys.ServeOthers()
	end := sys.Run(0)
	k.CheckQuiescent()
	return end - begun, k.Stats
}

// cowStorm makes every processor write-fault the same COW page at once.
func cowStorm(seed uint64, proto kernel.Protocol) (sim.Time, kernel.Stats, int) {
	sys := core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: seed},
		ClusterSize: 4,
		LockKind:    locks.KindH2MCS,
		Protocol:    proto,
	})
	k := sys.K
	region := kernel.MakeKey(2, 1, 5<<20)
	file := kernel.MakeKey(2, 2, 5<<20)
	base := kernel.MakeKey(2, 3, 5<<20)
	ready := false
	var begun sim.Time
	totalRetries := 0
	for i := 0; i < 15; i++ {
		i := i
		sys.Spawn(i, func(p *sim.Proc) {
			for !ready {
				p.Park()
			}
			res, err := k.VM.Fault(p, uint64(100+i), region, 0, true)
			if err != nil {
				panic(err)
			}
			totalRetries += res.Retries
		})
	}
	sys.Spawn(15, func(p *sim.Proc) {
		k.VM.SetupRegion(p, region, file, base)
		k.VM.SetupFCB(p, file)
		k.VM.SetupPage(p, base, 16, kernel.FlagCOW, 99)
		begun = p.Now()
		ready = true
		for i := 0; i < 15; i++ {
			sys.M.Procs[i].Unpark()
		}
	})
	sys.ServeOthers()
	end := sys.Run(0)
	k.CheckQuiescent()
	return end - begun, k.Stats, totalRetries
}

// HybridAblation compares the three locking strategies of §2.1 on the same
// table workload: per-operation latency for independent and shared keys,
// plus space overhead.
func HybridAblation(seed uint64, rounds int) *Table {
	// Concurrency is bounded to 4 processors — the cluster-size bound
	// hierarchical clustering guarantees — with a kernel-like duty cycle
	// (20us of protected work per ~70us).
	t := &Table{
		Title: "Sec 2.1: hybrid vs fine-grain vs coarse-grain (4 procs, us lock overhead/op)",
		Cols:  []string{"strategy", "independent", "shared", "space words (1000 entries)"},
	}
	type mk struct {
		name string
		make func(m *sim.Machine) hybrid.Store
	}
	mks := []mk{
		{"hybrid", func(m *sim.Machine) hybrid.Store {
			return hybrid.HybridStore{Table: hybrid.New(m, 0, 64, 1, locks.KindH2MCS)}
		}},
		{"fine-grain", func(m *sim.Machine) hybrid.Store { return hybrid.NewFineGrain(m, 0, 64, 1) }},
		{"coarse-grain", func(m *sim.Machine) hybrid.Store {
			return hybrid.NewCoarseGrain(m, 0, 64, 1, locks.KindH2MCS)
		}},
	}
	const nprocs = 4
	const workUS = 20
	run := func(make func(m *sim.Machine) hybrid.Store, shared bool) float64 {
		m := sim.NewMachine(sim.Config{Seed: seed})
		st := make(m)
		dist := &stats.Dist{}
		setup := false
		for i := 0; i < nprocs; i++ {
			i := i
			m.Go(i, func(p *sim.Proc) {
				if i == 0 {
					st.AddEntry(p, 0, 1)
					for j := 0; j < nprocs; j++ {
						st.AddEntry(p, j, uint64(100+j))
					}
					setup = true
					for j := 1; j < nprocs; j++ {
						m.Procs[j].Unpark()
					}
				}
				for !setup {
					p.Park()
				}
				key := uint64(100 + i)
				if shared {
					key = 1
				}
				for r := 0; r < rounds; r++ {
					t0 := p.Now()
					e, ok := st.AcquireEntry(p, key)
					if !ok {
						panic("acquire failed")
					}
					p.Think(sim.Micros(workUS)) // protected work
					st.ReleaseEntry(p, e)
					dist.Add((p.Now() - t0).Microseconds() - workUS)
					p.Think(sim.Micros(25) + p.RNG().Duration(sim.Micros(25)))
				}
			})
		}
		m.RunAll()
		m.Shutdown()
		return dist.Mean()
	}
	// Each (strategy, sharing) run is an independent machine: fan out.
	means := make([]float64, 2*len(mks))
	RunParallel(len(means), func(i int) {
		means[i] = run(mks[i/2].make, i%2 == 1)
	})
	for i, x := range mks {
		m := sim.NewMachine(sim.Config{Seed: seed})
		space := x.make(m).SpaceOverheadWords(1000)
		t.AddRow(x.name, f1(means[2*i]), f1(means[2*i+1]), fmt.Sprintf("%d", space))
	}
	t.Note("hybrid matches fine-grain concurrency for independent keys at coarse-grain space cost")
	return t
}

// LockFree runs the §5 "advanced atomic primitives" extension: a CAS
// counter versus the same counter under a spin lock and a distributed
// lock, uncontended and with 8 processors hammering it, on a CAS-capable
// HECTOR.
func LockFree(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Sec 5: lock-free leaf update vs locked update (us/increment)",
		Cols:  []string{"strategy", "uncontended", "8 procs"},
	}
	var solo, hot lockfree.CompareResult
	RunParallel(2, func(i int) {
		if i == 0 {
			solo = lockfree.Compare(seed, 1, rounds)
		} else {
			hot = lockfree.Compare(seed, 8, rounds)
		}
	})
	t.AddRow("CAS lock-free", f2(solo.LockFreeUS), f2(hot.LockFreeUS))
	t.AddRow("spin lock + load/store", f2(solo.SpinUS), f2(hot.SpinUS))
	t.AddRow("H2-MCS + load/store", f2(solo.MCSUS), f2(hot.MCSUS))
	t.Note("lock-free wins uncontended; under heavy write-sharing the FIFO queue lock's hand-off can beat CAS retry storms — the paper's caveat about lock-free starvation")
	return t
}

// Scaling runs the §5.3 outlook: the independent-fault workload on the
// NUMAchine-class machine (64 faster processors, costlier remote
// accesses), sweeping cluster size. Clustering should matter even more
// than on HECTOR.
func Scaling(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Sec 5.3: independent faults on NUMAchine-64 (fault time us vs cluster size)",
		Cols:  []string{"clusterSize", "DistributedLock"},
	}
	sizes := []int{4, 16, 64}
	res := make([]workload.FaultResult, len(sizes))
	RunParallel(len(sizes), func(i int) {
		sys := core.NewSystem(core.Config{
			Machine:     machine.NUMAchine64(seed),
			ClusterSize: sizes[i],
			LockKind:    locks.KindH2MCS,
		})
		res[i] = workload.IndependentFaults(sys, 64, 4, rounds)
	})
	for i, cs := range sizes {
		t.AddRow(fmt.Sprintf("%d", cs), f1(res[i].Dist.Mean()))
	}
	t.Note("larger, faster machines make bounding contention via clustering more important (§5.2)")
	return t
}

// Combining shows the §2.2 combining effect: a 12-processor burst onto a
// remote datum issues exactly one fetch RPC per cluster with combining,
// and one per processor without it.
func Combining(seed uint64) *Table {
	t := &Table{
		Title: "Sec 2.2: replication combining under a 12-processor burst",
		Cols:  []string{"mode", "fetch RPCs to home", "replications"},
	}
	run := func(noCombine bool) (uint64, uint64) {
		m := sim.NewMachine(sim.Config{Seed: seed})
		topo := cluster.NewTopology(m, 4)
		rpc := cluster.NewRPC(topo, cluster.NewGate(m))
		r := cluster.NewReplicated(topo, rpc, 8, 2, locks.KindH2MCS)
		r.HomeOf = func(key uint64) int { return 3 }
		r.NoCombine = noCombine
		for _, id := range topo.Procs(3) {
			if id != 12 {
				m.Go(id, serveProc)
			}
		}
		created := false
		m.Go(12, func(p *sim.Proc) {
			r.Create(p, 5, []uint64{1, 2})
			created = true
			serveProc(p)
		})
		for i := 0; i < 12; i++ {
			m.Go(i, func(p *sim.Proc) {
				p.Think(sim.Micros(20))
				if !created {
					panic("create too slow")
				}
				e, ok := r.Acquire(p, 5, hybrid.Shared)
				if !ok {
					panic("acquire failed")
				}
				r.Release(p, e, hybrid.Shared)
				serveProc(p)
			})
		}
		m.Eng.Run(sim.Micros(500000))
		return rpc.Calls, r.Replications
	}
	calls, reps := run(false)
	t.AddRow("combining (placeholder + reserve bit)", d(calls), d(reps))
	calls, reps = run(true)
	t.AddRow("no combining (every miss fetches)", d(calls), d(reps))
	return t
}
