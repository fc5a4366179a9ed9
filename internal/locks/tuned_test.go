package locks

import (
	"testing"

	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// measureWarmAcquire returns the latency of one warm, uncontended acquire
// by processor 0 with the lock homed cross-ring (module 12), like §4.1.1.
func measureWarmAcquire(t *testing.T, k Kind) sim.Duration {
	t.Helper()
	m := sim.NewMachine(sim.Config{Seed: 7})
	l := New(m, k, 12)
	var took sim.Duration
	m.Go(0, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			l.Acquire(p)
			l.Release(p)
		}
		start := p.Now()
		l.Acquire(p)
		took = p.Now() - start
		l.Release(p)
	})
	m.RunAll()
	m.Shutdown()
	return took
}

// TestTunedUncontendedMatchesSpin is the zero-contention metamorphic
// property from the issue: with nobody else competing, Tuned converges to
// the uncontended test-and-set fast path, and its acquire latency matches
// the plain spin lock within one simulated microsecond. (In fact the fast
// paths are instruction-identical — one register op, one swap, two
// branches — so the latencies should be exactly equal; the 1us bound is
// the contract, exactness the implementation detail.)
func TestTunedUncontendedMatchesSpin(t *testing.T) {
	spin := measureWarmAcquire(t, KindSpin)
	tuned := measureWarmAcquire(t, KindTuned)
	diff := spin - tuned
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Micros(1) {
		t.Fatalf("uncontended acquire: Spin %v vs Tuned %v, diff > 1us", spin, tuned)
	}
}

// TestTunedZeroContentionConvergence: under a single-processor
// acquire/release loop the controller must observe windows but never leave
// the optimistic stance — spin mode, minimum cap, zero fast-path failures.
func TestTunedZeroContentionConvergence(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 11})
	l := NewTuned(m, 0, tune.Params{})
	m.Go(0, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			l.Acquire(p)
			p.Think(sim.Micros(5))
			l.Release(p)
		}
	})
	m.RunAll()
	m.Shutdown()
	c := l.Controller()
	if len(c.Log()) == 0 {
		t.Fatal("controller observed no windows")
	}
	if c.Mode() != tune.ModeSpin {
		t.Fatalf("mode = %v, want spin", c.Mode())
	}
	if c.BackoffCap() != tune.MinCap {
		t.Fatalf("cap = %v, want MinCap %v", c.BackoffCap(), tune.MinCap)
	}
	// Uncontended, every acquisition is one fast-path swap that wins.
	var attempts, acquisitions uint64
	for i := range l.counts {
		attempts += l.counts[i].fastAttempts
		acquisitions += l.counts[i].acquisitions
	}
	if attempts != acquisitions {
		t.Fatalf("fast-path attempts = %d, acquisitions = %d, want equal", attempts, acquisitions)
	}
	if c.Switches() != 0 {
		t.Fatalf("mode switches = %d, want 0", c.Switches())
	}
}

// TestTunedCrossesOverUnderSaturation: with the cap ceiling pulled down so
// backing off cannot relieve the home module, a contended Tuned lock must
// cross over to queue mode during the run — the measured-saturation
// crossover, exercised end-to-end rather than on a synthetic Sample feed.
func TestTunedCrossesOverUnderSaturation(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 3})
	l := NewTuned(m, 0, tune.Params{MaxCap: sim.Micros(16)})
	for i := 0; i < 16; i++ {
		m.Go(i, func(p *sim.Proc) {
			for r := 0; r < 40; r++ {
				l.Acquire(p)
				p.Think(sim.Micros(25))
				l.Release(p)
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	c := l.Controller()
	if c.Switches() == 0 {
		t.Fatalf("no spin->queue crossover under saturation; final cap %v, mode %v, %d windows",
			c.BackoffCap(), c.Mode(), len(c.Log()))
	}
	// The word must still have served every acquisition exactly once:
	// 16 procs x 40 rounds with mutual exclusion is checked by the stress
	// tests; here just confirm the lock ended free.
	if got := m.Mem.Peek(l.word); got != adFree {
		t.Fatalf("lock word = %d after run, want free", got)
	}
}
