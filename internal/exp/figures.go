package exp

import (
	"fmt"

	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// ProcCounts is the processor sweep used by the Figure 5 and 7a/7b
// experiments.
var ProcCounts = []int{1, 2, 4, 8, 12, 16}

// ClusterSizes is the sweep used by Figure 7c/7d.
var ClusterSizes = []int{1, 2, 4, 8, 16}

// Figure4 reproduces the instruction-count table: executed instructions by
// category for one uncontended lock/unlock pair.
func Figure4(seed uint64) *Table {
	t := &Table{
		Title: "Figure 4: instruction counts per uncontended lock/unlock pair",
		Cols:  []string{"lock", "Atomic", "Mem", "Reg", "Br", "paper"},
	}
	paper := map[locks.Kind]string{
		locks.KindMCS:   "2/2/3/5",
		locks.KindH1MCS: "2/1/3/5",
		locks.KindH2MCS: "2/0/3/4",
		locks.KindSpin:  "2/0/1/3",
	}
	for _, k := range []locks.Kind{locks.KindMCS, locks.KindH1MCS, locks.KindH2MCS, locks.KindSpin} {
		_, c := workload.UncontendedPair(seed, k)
		t.AddRow(k.String(), d(c.Atomic), d(c.Mem), d(c.Reg), d(c.Branch), paper[k])
	}
	return t
}

// Uncontended reproduces §4.1.1: uncontended acquire+release latency with
// the lock word one ring hop away.
func Uncontended(seed uint64) *Table {
	t := &Table{
		Title: "Sec 4.1.1: uncontended lock+unlock latency (us)",
		Cols:  []string{"lock", "measured", "paper"},
	}
	paper := map[locks.Kind]string{
		locks.KindMCS:   "5.40",
		locks.KindH1MCS: "-",
		locks.KindH2MCS: "3.69",
		locks.KindSpin:  "3.65",
	}
	for _, k := range []locks.Kind{locks.KindMCS, locks.KindH1MCS, locks.KindH2MCS, locks.KindSpin} {
		us, _ := workload.UncontendedPair(seed, k)
		t.AddRow(k.String(), f2(us), paper[k])
		t.AddMetric(fmt.Sprintf("%s.uncontended_pair", k), us, "us")
	}
	mcs, _ := workload.UncontendedPair(seed, locks.KindMCS)
	h2, _ := workload.UncontendedPair(seed, locks.KindH2MCS)
	t.Note("modifications improve MCS by %.0f%% (paper: 32%%)", (1-h2/mcs)*100)
	return t
}

// figure5Kinds are the algorithms Figure 5 compares.
var figure5Kinds = []locks.Kind{
	locks.KindMCS, locks.KindH1MCS, locks.KindH2MCS, locks.KindSpin, locks.KindSpin2ms,
}

// Figure5 reproduces Figure 5a (hold = 0) or 5b (hold = 25us): per-pair
// response time as p processors pound one lock.
func Figure5(seed uint64, holdUS float64, rounds int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 5 (hold=%gus): lock response time (us) vs processors", holdUS),
		Cols:  []string{"p"},
	}
	for _, k := range figure5Kinds {
		t.Cols = append(t.Cols, k.String())
	}
	// One cell per (lock, p); cells are independent machines, so they run
	// on the worker pool and are merged back in declaration order.
	type cell struct {
		k locks.Kind
		p int
	}
	var cells []cell
	for _, k := range figure5Kinds {
		for _, p := range ProcCounts {
			cells = append(cells, cell{k, p})
		}
	}
	flat := make([]workload.LockStressResult, len(cells))
	RunParallel(len(cells), func(i int) {
		flat[i] = workload.LockStressRun(workload.StressConfig{
			Machine: sim.Config{Seed: seed}, Kind: cells[i].k,
			Procs: cells[i].p, Rounds: rounds, Hold: sim.Micros(holdUS),
		}).LockStressResult
	})
	results := make(map[locks.Kind]map[int]workload.LockStressResult)
	for i, c := range cells {
		if results[c.k] == nil {
			results[c.k] = make(map[int]workload.LockStressResult)
		}
		results[c.k][c.p] = flat[i]
	}
	for _, p := range ProcCounts {
		row := []string{fmt.Sprintf("%d", p)}
		for _, k := range figure5Kinds {
			row = append(row, f1(results[k][p].AcquireUS))
		}
		t.AddRow(row...)
	}
	for _, k := range figure5Kinds {
		t.AddMetric(fmt.Sprintf("%s.acquire_p16", k), results[k][16].AcquireUS, "us")
	}
	if holdUS > 0 {
		r := results[locks.KindSpin2ms][16]
		t.Note("Spin-2ms at p=16: %.1f%% of acquires took >2ms (paper: >13%%); max %.0fus",
			r.AcquireDist.FracAbove(2000)*100, r.AcquireDist.Max())
		m := results[locks.KindH2MCS][16]
		t.Note("H2-MCS at p=16: %.1f%% of acquires took >2ms; max %.0fus (FIFO hand-off)",
			m.AcquireDist.FracAbove(2000)*100, m.AcquireDist.Max())
	}
	return t
}

// faultSystem builds a fresh system for the Figure 7 experiments.
func faultSystem(seed uint64, clusterSize int, kind locks.Kind) *core.System {
	return core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: seed},
		ClusterSize: clusterSize,
		LockKind:    kind,
	})
}

// Figure7a reproduces the independent-fault test on one 16-processor
// cluster: fault response time vs p, distributed locks vs backoff spin
// locks, and the spin lock's fault time over the distributed lock's.
func Figure7a(seed uint64, rounds int) *Table {
	return figure7(seed, "Figure 7a: independent faults, 1 cluster of 16 (fault time us vs p)",
		"paper: with 16 processors faulting, spin-lock latency is over 2x the distributed-lock latency",
		workload.IndependentFaults, 4, rounds)
}

// Figure7b reproduces the shared-fault test on one 16-processor cluster:
// all processes write-fault the same pages, barrier, unmap; the columns are
// Figure 7a's.
func Figure7b(seed uint64, npages, rounds int) *Table {
	return figure7(seed, "Figure 7b: shared faults, 1 cluster of 16 (fault time us vs p)",
		"paper: the gap between lock types is much smaller than 7a (contention moves to the reserve bits)",
		workload.SharedFaults, npages, rounds)
}

// figure7 is Figures 7a and 7b's body: run the fault workload, p
// processors faulting npages pages for rounds rounds, on one 16-processor
// cluster under distributed and spin locks at every ProcCounts p, and
// tabulate both mean fault times and their ratio.
func figure7(seed uint64, title, note string, faults func(sys *core.System, nprocs, npages, rounds int) workload.FaultResult, npages, rounds int) *Table {
	t := &Table{Title: title, Cols: []string{"p", "DistributedLock", "SpinLock", "spin/DL"}}
	dls := make([]workload.FaultResult, len(ProcCounts))
	sps := make([]workload.FaultResult, len(ProcCounts))
	RunParallel(2*len(ProcCounts), func(i int) {
		p := ProcCounts[i/2]
		if i%2 == 0 {
			dls[i/2] = faults(faultSystem(seed, 16, locks.KindH2MCS), p, npages, rounds)
		} else {
			sps[i/2] = faults(faultSystem(seed, 16, locks.KindSpin), p, npages, rounds)
		}
	})
	for i, p := range ProcCounts {
		dl, sp := dls[i].Dist.Mean(), sps[i].Dist.Mean()
		t.AddRow(fmt.Sprintf("%d", p), f1(dl), f1(sp), f2(sp/dl))
		if p == 16 {
			t.AddMetric("distributed.fault_p16", dl, "us")
			t.AddMetric("spin.fault_p16", sp, "us")
		}
	}
	t.Note("%s", note)
	return t
}

// Figure7c reproduces the cluster-size sweep for independent faults with
// all 16 processors faulting.
func Figure7c(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Figure 7c: independent faults, 16 processors (fault time us vs cluster size)",
		Cols:  []string{"clusterSize", "DistributedLock"},
	}
	// The sweep cells plus the paper's two equivalence-check cells (16
	// procs in 4x4 clusters vs 4 procs in one 16-proc cluster) all run on
	// the pool.
	res := make([]workload.FaultResult, len(ClusterSizes)+2)
	RunParallel(len(res), func(i int) {
		switch {
		case i < len(ClusterSizes):
			res[i] = workload.IndependentFaults(faultSystem(seed, ClusterSizes[i], locks.KindH2MCS), 16, 4, rounds)
		case i == len(ClusterSizes):
			res[i] = workload.IndependentFaults(faultSystem(seed, 4, locks.KindH2MCS), 16, 4, rounds)
		default:
			res[i] = workload.IndependentFaults(faultSystem(seed, 16, locks.KindH2MCS), 4, 4, rounds)
		}
	})
	for i, cs := range ClusterSizes {
		t.AddRow(fmt.Sprintf("%d", cs), f1(res[i].Dist.Mean()))
		t.AddMetric(fmt.Sprintf("fault_cs%d", cs), res[i].Dist.Mean(), "us")
	}
	four4 := res[len(ClusterSizes)]
	one4 := res[len(ClusterSizes)+1]
	t.Note("16 procs in 4x4 clusters: %.1fus vs 4 procs in 1x16 cluster: %.1fus (paper: equal)",
		four4.Dist.Mean(), one4.Dist.Mean())
	return t
}

// Figure7d reproduces the cluster-size sweep for shared faults with 16
// processors: small clusters pay cross-cluster RPCs, large clusters pay
// contention; moderate sizes win.
func Figure7d(seed uint64, npages, rounds int) *Table {
	t := &Table{
		Title: "Figure 7d: shared faults, 16 processors (fault time us vs cluster size)",
		Cols:  []string{"clusterSize", "DistributedLock", "coherenceRPCs", "replications"},
	}
	res := make([]workload.FaultResult, len(ClusterSizes))
	RunParallel(len(res), func(i int) {
		res[i] = workload.SharedFaults(faultSystem(seed, ClusterSizes[i], locks.KindH2MCS), 16, npages, rounds)
	})
	for i, cs := range ClusterSizes {
		t.AddRow(fmt.Sprintf("%d", cs), f1(res[i].Dist.Mean()),
			d(res[i].Stats.CoherenceRPCs), d(res[i].Replications))
		t.AddMetric(fmt.Sprintf("fault_cs%d", cs), res[i].Dist.Mean(), "us")
	}
	t.Note("paper: moderate cluster sizes perform best; very small sizes are dominated by inter-cluster operations")
	return t
}

// Calibration reports the constants the paper states in passing, measured
// on this substrate.
func Calibration(seed uint64) *Table {
	t := &Table{
		Title: "Calibration constants",
		Cols:  []string{"quantity", "measured", "paper"},
	}
	// Null RPC.
	m := sim.NewMachine(sim.Config{Seed: seed})
	k := kernel.New(m, kernel.Config{ClusterSize: 4, LockKind: locks.KindH2MCS})
	var nullRPC, fault, faultLock, replication sim.Duration
	for i := 1; i < 16; i++ {
		m.Go(i, serveProc)
	}
	m.Go(0, func(p *sim.Proc) {
		start := p.Now()
		k.RPC.Call(p, 3, nullHandler)
		nullRPC = p.Now() - start

		// Local soft fault.
		region := kernel.MakeKey(0, 1, 9<<16)
		file := kernel.MakeKey(0, 2, 9<<16)
		base := kernel.MakeKey(0, 3, 9<<16)
		k.VM.SetupRegion(p, region, file, base)
		for v := 0; v < 2; v++ {
			k.VM.SetupFCB(p, file+uint64(v))
			k.VM.SetupPage(p, base+uint64(v), 1, 0, uint64(v))
		}
		k.VM.Fault(p, 1, region, 0, true) // warm
		start = p.Now()
		k.VM.Fault(p, 1, region, 0, true)
		fault = p.Now() - start
		faultLock = fault - kernel.FaultWorkCycles() - 24 // minus work and PTE stores

		// Replication premium: region homed on cluster 1.
		region2 := kernel.MakeKey(1, 1, 8<<16)
		file2 := kernel.MakeKey(1, 2, 8<<16)
		base2 := kernel.MakeKey(1, 3, 8<<16)
		k.VM.SetupRegion(p, region2, file2, base2)
		k.VM.SetupFCB(p, file2)
		k.VM.SetupPage(p, base2, 1, 0, 77)
		start = p.Now()
		k.VM.Fault(p, 1, region2, 0, true)
		firstFault := p.Now() - start
		start = p.Now()
		k.VM.Fault(p, 1, region2, 0, true)
		replication = firstFault - (p.Now() - start)
		serveProc(p)
	})
	m.Eng.Run(sim.Micros(500000))
	t.AddRow("null RPC (us)", f1(nullRPC.Microseconds()), "27")
	t.AddRow("soft page fault (us)", f1(fault.Microseconds()), "160")
	t.AddRow("fault lock overhead (us)", f1(faultLock.Microseconds()), "40")
	t.AddRow("lookup+replicate 3 descriptors (us)", f1(replication.Microseconds()), "~88 per descriptor incl. lookup")
	t.AddMetric("null_rpc", nullRPC.Microseconds(), "us")
	t.AddMetric("soft_fault", fault.Microseconds(), "us")
	t.AddMetric("fault_lock_overhead", faultLock.Microseconds(), "us")
	t.AddMetric("replication", replication.Microseconds(), "us")
	return t
}
