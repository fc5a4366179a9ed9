package workload

import (
	"fmt"
	"runtime"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// timedPresets are the four machine presets the equivalence test sweeps.
// NUMAchine-1024 gets a shorter window: the point is covering the
// two-level ring hierarchy, not simulating 1024 processors for long.
var timedPresets = []struct {
	name   string
	cfg    func(seed uint64) sim.Config
	procs  int
	window sim.Duration
}{
	{"hector16", machine.Hector16, 16, sim.Micros(400)},
	{"numachine64", machine.NUMAchine64, 32, sim.Micros(400)},
	{"numachine256", machine.NUMAchine256, 64, sim.Micros(300)},
	{"numachine1024", machine.NUMAchine1024, 64, sim.Micros(150)},
}

// timedKinds is the lock zoo the parallel engine is exercised against. CNA
// is absent by design: its intra-station reordering scans other waiters'
// queue nodes with uncharged engine reads, which the logical-process
// partition does not allow.
var timedKinds = []locks.Kind{locks.KindSpin, locks.KindH2MCS, locks.KindCohort, locks.KindTuned}

func timedFingerprint(t *testing.T, cfg func(seed uint64) sim.Config, procs, workers int, window sim.Duration, kind locks.Kind, seed uint64) string {
	t.Helper()
	mc := cfg(seed)
	mc.Workers = workers
	r := TimedStressRun(TimedStressConfig{
		Machine: mc,
		Kind:    kind,
		Procs:   procs,
		Spread:  true,
		Hold:    sim.Micros(6),
		Think:   sim.Micros(10),
		Warmup:  sim.Micros(100),
		Window:  window,
	})
	return r.Fingerprint()
}

// TestTimedStressWorkerEquivalence is the workload-level half of
// jobs-equiv's -parworkers check: on every machine preset and every
// parallel-safe lock, the timed stress loop must produce byte-identical
// results at 1, 2, and NumCPU workers. Workers==1 runs the same
// logical-process engine with no concurrency, so it is the serial
// reference.
func TestTimedStressWorkerEquivalence(t *testing.T) {
	for _, mp := range timedPresets {
		for _, k := range timedKinds {
			t.Run(fmt.Sprintf("%s/%s", mp.name, k), func(t *testing.T) {
				ref := timedFingerprint(t, mp.cfg, mp.procs, 1, mp.window, k, 42)
				if ref == "" {
					t.Fatal("empty fingerprint")
				}
				for _, w := range []int{2, runtime.NumCPU()} {
					if got := timedFingerprint(t, mp.cfg, mp.procs, w, mp.window, k, 42); got != ref {
						t.Fatalf("workers=%d diverged from workers=1:\n--- w=1\n%s--- w=%d\n%s", w, ref, w, got)
					}
				}
			})
		}
	}
	// The dense shape of the benchmark's lp-engine workload: all 256
	// NUMAchine-256 processors, each station on its own H2-MCS lock, so
	// every logical process runs simulated work in every window.
	t.Run("numachine256/per-station", func(t *testing.T) {
		dense := func(workers int) string {
			mc := machine.NUMAchine256(1)
			mc.Workers = workers
			return TimedStressRun(TimedStressConfig{
				Machine:    mc,
				Kind:       locks.KindH2MCS,
				Procs:      256,
				PerStation: true,
				Hold:       sim.Micros(6),
				Think:      sim.Micros(20),
				Warmup:     sim.Micros(200),
				Window:     sim.Micros(300),
			}).Fingerprint()
		}
		ref := dense(1)
		for _, w := range []int{2, 4, 8} {
			if got := dense(w); got != ref {
				t.Fatalf("workers=%d diverged from workers=1:\n--- w=1\n%s--- w=%d\n%s", w, ref, w, got)
			}
		}
	})
}

// TestTimedStressDeterminism: same seed, same workers — same bytes; a
// different seed must change the result (the loop is actually jittered).
func TestTimedStressDeterminism(t *testing.T) {
	a := timedFingerprint(t, machine.NUMAchine256, 64, 4, sim.Micros(300), locks.KindCohort, 7)
	b := timedFingerprint(t, machine.NUMAchine256, 64, 4, sim.Micros(300), locks.KindCohort, 7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if c := timedFingerprint(t, machine.NUMAchine256, 64, 4, sim.Micros(300), locks.KindCohort, 8); c == a {
		t.Fatal("different seed produced identical bytes")
	}
}
