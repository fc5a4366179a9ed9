package workload

import (
	"testing"

	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func TestBarrierAlignsProcs(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	bar := NewBarrier(4)
	var after []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		m.Go(i, func(p *sim.Proc) {
			p.Think(sim.Micros(float64(10 * (i + 1))))
			bar.Wait(p)
			after = append(after, p.Now())
		})
	}
	m.RunAll()
	m.Shutdown()
	if len(after) != 4 {
		t.Fatalf("only %d procs passed the barrier", len(after))
	}
	for _, at := range after {
		if at < sim.Micros(40) {
			t.Fatalf("a proc passed the barrier at %v, before the slowest arrived", at)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 2})
	bar := NewBarrier(3)
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		m.Go(i, func(p *sim.Proc) {
			for g := 0; g < 5; g++ {
				p.Think(p.RNG().Duration(100))
				bar.Wait(p)
				counts[i]++
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("proc %d passed %d generations, want 5", i, c)
		}
	}
}

// stress runs the Figure 5 loop on the default HECTOR machine.
func stress(seed uint64, kind locks.Kind, procs, rounds, warmup int, hold sim.Duration) *LockStressObserved {
	return LockStressRun(StressConfig{
		Machine: sim.Config{Seed: seed}, Kind: kind,
		Procs: procs, Rounds: rounds, Warmup: warmup, Hold: hold,
	})
}

func TestLockStressShape(t *testing.T) {
	// Contended response time must grow with p, and distributed locks must
	// beat short-backoff spin locks at high p.
	mcs1 := stress(1, locks.KindH2MCS, 1, 50, 0, 0)
	mcs8 := stress(1, locks.KindH2MCS, 8, 50, 0, 0)
	if mcs8.AcquireUS <= mcs1.AcquireUS {
		t.Errorf("H2-MCS response did not grow with p: p1=%.2f p8=%.2f", mcs1.AcquireUS, mcs8.AcquireUS)
	}
	spin16 := stress(1, locks.KindSpin, 16, 50, 0, sim.Micros(25))
	mcs16 := stress(1, locks.KindH2MCS, 16, 50, 0, sim.Micros(25))
	if spin16.AcquireUS <= mcs16.AcquireUS {
		t.Errorf("spin-35us (%.1fus) not worse than H2-MCS (%.1fus) at p=16", spin16.AcquireUS, mcs16.AcquireUS)
	}
	if mcs1.AcquireDist.N() != 50 {
		t.Errorf("acquire samples = %d", mcs1.AcquireDist.N())
	}
}

func TestSpin2msStarvation(t *testing.T) {
	// §4.1.2: with 16 processors and 25us holds, >2ms acquires happened on
	// over 13% of attempts with the 2ms-backoff lock. Distributed locks are
	// FIFO and must show none.
	spin := stress(3, locks.KindSpin2ms, 16, 120, 0, sim.Micros(25))
	frac := spin.AcquireDist.FracAbove(2000)
	if frac < 0.01 {
		t.Errorf("spin-2ms starvation fraction = %.3f, expected a real heavy tail (paper: 0.13)", frac)
	}
	mcs := stress(3, locks.KindH2MCS, 16, 120, 0, sim.Micros(25))
	if f := mcs.AcquireDist.FracAbove(2000); f > 0.001 {
		t.Errorf("H2-MCS starvation fraction = %.3f, expected 0 (FIFO)", f)
	}
	// The qualitative gap: the backoff lock's worst acquire is far beyond
	// the queue lock's worst.
	if spin.AcquireDist.Max() < 3*mcs.AcquireDist.Max() {
		t.Errorf("spin-2ms max acquire (%.0fus) not clearly beyond H2-MCS max (%.0fus)",
			spin.AcquireDist.Max(), mcs.AcquireDist.Max())
	}
}

func TestUncontendedPairMatchesPaper(t *testing.T) {
	// §4.1.1: spin 3.65us, H2-MCS 3.69us, MCS 5.40us. Accept ±15%.
	check := func(kind locks.Kind, want float64) {
		us, _ := UncontendedPair(1, kind)
		if us < want*0.85 || us > want*1.15 {
			t.Errorf("%v uncontended pair = %.2fus, want ~%.2fus", kind, us, want)
		}
	}
	check(locks.KindSpin, 3.65)
	check(locks.KindH2MCS, 3.69)
	check(locks.KindMCS, 5.40)
}

func TestIndependentFaultsRun(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Machine:  sim.Config{Seed: 4},
		LockKind: locks.KindH2MCS,
	})
	res := IndependentFaults(sys, 4, 4, 10)
	if res.Dist.N() != 40 {
		t.Fatalf("samples = %d, want 40", res.Dist.N())
	}
	if res.Stats.Faults != 4*10+4 { // rounds + warmups
		t.Fatalf("faults = %d", res.Stats.Faults)
	}
	mean := res.Dist.Mean()
	if mean < 140 || mean > 260 {
		t.Errorf("independent fault mean = %.1fus, expected near the 160us calibration", mean)
	}
}

func TestIndependentFaultsContentionGrows(t *testing.T) {
	run := func(nprocs int) float64 {
		sys := core.NewSystem(core.Config{Machine: sim.Config{Seed: 5}, LockKind: locks.KindH2MCS})
		return IndependentFaults(sys, nprocs, 4, 12).Dist.Mean()
	}
	one, sixteen := run(1), run(16)
	if sixteen <= one {
		t.Errorf("independent-fault latency did not grow with p: p1=%.1f p16=%.1f", one, sixteen)
	}
}

func TestSharedFaultsRun(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: 6},
		ClusterSize: 4,
		LockKind:    locks.KindH2MCS,
	})
	res := SharedFaults(sys, 8, 2, 5)
	if res.Dist.N() != 8*2*5 {
		t.Fatalf("samples = %d, want 80", res.Dist.N())
	}
	if res.Stats.CoherenceRPCs == 0 {
		t.Error("shared write faults sent no coherence notices")
	}
	if res.Replications == 0 {
		t.Error("page descriptors never replicated to faulting clusters")
	}
}

func TestSharedFaultsClusterSizeSweepRuns(t *testing.T) {
	// Smoke for the Figure 7d sweep: both extremes must complete.
	for _, cs := range []int{1, 16} {
		sys := core.NewSystem(core.Config{
			Machine:     sim.Config{Seed: 7},
			ClusterSize: cs,
			LockKind:    locks.KindH2MCS,
		})
		res := SharedFaults(sys, 16, 2, 3)
		if res.Dist.N() != 16*2*3 {
			t.Fatalf("cluster size %d: samples = %d", cs, res.Dist.N())
		}
	}
}

func TestProtocolsBothCompleteSharedFaults(t *testing.T) {
	for _, proto := range []kernel.Protocol{kernel.Optimistic, kernel.Pessimistic} {
		sys := core.NewSystem(core.Config{
			Machine:     sim.Config{Seed: 8},
			ClusterSize: 4,
			LockKind:    locks.KindH2MCS,
			Protocol:    proto,
		})
		res := SharedFaults(sys, 8, 2, 3)
		if res.Dist.N() != 48 {
			t.Fatalf("%v: samples = %d", proto, res.Dist.N())
		}
	}
}

func TestLockStressInstrumentedWindowing(t *testing.T) {
	// The observability harness: warm-up rounds must be excluded from both
	// the latency distribution and the windowed resource utilization.
	r := stress(5, locks.KindSpin, 8, 20, 10, sim.Micros(10))
	if n := r.AcquireDist.N(); n != 8*20 {
		t.Fatalf("measured samples = %d, want %d (warm-up must not be sampled)", n, 8*20)
	}
	if r.Lock.Acquisitions != 8*20 {
		t.Fatalf("lock window acquisitions = %d, want %d", r.Lock.Acquisitions, 8*20)
	}
	if r.WindowStart == 0 {
		t.Fatal("measurement window never opened")
	}
	if r.WindowEnd <= r.WindowStart {
		t.Fatalf("window [%v, %v] is empty", r.WindowStart, r.WindowEnd)
	}
	// The default machine has 16 modules + 4 buses + the ring = 21 resources.
	if len(r.Resources) != 21 {
		t.Fatalf("resources = %d, want 21", len(r.Resources))
	}
	for _, ru := range r.Resources {
		if ru.Utilization < 0 || ru.Utilization > 1.05 {
			t.Errorf("%s windowed utilization %.3f out of range", ru.Name, ru.Utilization)
		}
	}
	// With a spin lock, the home module must be the hottest resource — the
	// paper's second-order effect, now directly observable.
	home := r.Resources[r.HomeModule]
	for i, ru := range r.Resources {
		if i != r.HomeModule && i < 16 && ru.Utilization > home.Utilization {
			t.Errorf("module %s (%.2f) hotter than spin lock home %s (%.2f)",
				ru.Name, ru.Utilization, home.Name, home.Utilization)
		}
	}
}

func TestLockStressInstrumentedSpinVsMCSUtilization(t *testing.T) {
	// The acceptance check for the observability layer: remote spinning
	// saturates the lock's home module; the distributed lock does not.
	spin := stress(5, locks.KindSpin, 16, 15, 5, sim.Micros(25))
	mcs := stress(5, locks.KindH2MCS, 16, 15, 5, sim.Micros(25))
	su := spin.Resources[spin.HomeModule].Utilization
	mu := mcs.Resources[mcs.HomeModule].Utilization
	if su < 2*mu {
		t.Fatalf("spin home module %.2f not clearly above h2mcs %.2f", su, mu)
	}
	// The distributed lock's hand-offs cross the ring (FIFO order over 4
	// stations); the telemetry must see them.
	if mcs.Lock.Handoffs[sim.DistRing] == 0 {
		t.Fatal("h2mcs telemetry recorded no cross-ring hand-offs")
	}
}
