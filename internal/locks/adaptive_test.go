package locks

import (
	"testing"

	"hurricane/internal/sim"
)

func TestAdaptiveMutualExclusion(t *testing.T) {
	exclusionStress(t, func(m *sim.Machine) Lock { return NewAdaptive(m, 5) }, 21, 12, 25, 20)
	exclusionStress(t, func(m *sim.Machine) Lock { return NewAdaptive(m, 0) }, 22, 16, 8, 0)
}

func TestAdaptiveUncontendedNearSpin(t *testing.T) {
	// The fast path costs the spin lock's two atomics plus one release-side
	// queue-check load (the check H2 deleted from MCS).
	spinDur, spinCounts := uncontendedPair(func(m *sim.Machine) Lock { return NewSpin(m, 12, sim.Micros(35)) })
	adDur, adCounts := uncontendedPair(func(m *sim.Machine) Lock { return NewAdaptive(m, 12) })
	if adCounts.Atomic != spinCounts.Atomic {
		t.Errorf("adaptive atomics %d != spin %d", adCounts.Atomic, spinCounts.Atomic)
	}
	if adCounts.Mem != 1 {
		t.Errorf("adaptive mem accesses = %d, want exactly the queue-check load", adCounts.Mem)
	}
	if float64(adDur) > float64(spinDur)*1.5 {
		t.Errorf("adaptive uncontended latency %v too far above spin %v", adDur, spinDur)
	}
}

func TestAdaptiveContendedNearFIFO(t *testing.T) {
	// Under contention the queue bounds the worst case far below the
	// plain backoff spin lock's.
	worst := func(mk func(m *sim.Machine) Lock) float64 {
		m := sim.NewMachine(sim.Config{Seed: 23})
		l := mk(m)
		var max sim.Duration
		for i := 0; i < 16; i++ {
			m.Go(i, func(p *sim.Proc) {
				for r := 0; r < 30; r++ {
					t0 := p.Now()
					l.Acquire(p)
					if d := p.Now() - t0; d > max {
						max = d
					}
					p.Think(sim.Micros(25))
					l.Release(p)
				}
			})
		}
		m.RunAll()
		m.Shutdown()
		return max.Microseconds()
	}
	adaptive := worst(func(m *sim.Machine) Lock { return NewAdaptive(m, 0) })
	spin := worst(func(m *sim.Machine) Lock { return NewSpin(m, 0, sim.Micros(2000)) })
	if adaptive >= spin/2 {
		t.Errorf("adaptive worst acquire (%.0fus) not clearly bounded vs spin-2ms (%.0fus)", adaptive, spin)
	}
}

// TestAdaptiveGrantRestore drives the grant-restore path deterministically:
// a releaser hands the lock to the queue head by writing adGranted, and a
// fast-path TryAcquire swap consumes the grant before the head's next poll.
// The trier must restore the grant (Store adGranted back) so the head still
// gets the lock — a lost hand-off would leave the head polling forever.
func TestAdaptiveGrantRestore(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 31})
	l := NewAdaptive(m, 0)
	// A huge head backoff makes the queue head's polls sparse, so the
	// trier (woken within a memory access of the grant store) always wins
	// the race for the granted word.
	l.headBackoff = sim.Micros(100000)
	hold := sim.Micros(10000)

	var (
		headAcquired bool
		tryResult    = -1 // -1 not run, 0 false, 1 true
		wordAfterTry uint64
		g            csGuard
	)
	// Holder: takes the lock uncontended, holds long enough for the head's
	// backoff to grow, then releases — storing adGranted because the queue
	// is non-empty.
	m.Go(0, func(p *sim.Proc) {
		l.Acquire(p)
		g.enter(p)
		p.Think(hold)
		g.exit()
		l.Release(p)
	})
	// Queue head: arrives second, joins the MCS queue, polls the word.
	m.Go(1, func(p *sim.Proc) {
		p.Think(sim.Micros(5))
		l.Acquire(p)
		g.enter(p)
		headAcquired = true
		p.Think(sim.Micros(10))
		g.exit()
		l.Release(p)
	})
	// Trier: watches for the grant, then fires one TryAcquire into it. The
	// swap consumes adGranted; the restore path must put it back.
	m.Go(2, func(p *sim.Proc) {
		p.WaitLocal(l.word, func(v uint64) bool { return v == adGranted })
		ok := l.TryAcquire(p)
		if ok {
			tryResult = 1
			l.Release(p)
			return
		}
		tryResult = 0
		wordAfterTry = m.Mem.Peek(l.word)
	})
	m.RunAll()
	m.Shutdown()

	if g.violations != 0 {
		t.Errorf("%d critical-section overlaps", g.violations)
	}
	if tryResult != 0 {
		t.Fatalf("TryAcquire on a granted word: result=%d, want 0 (failure with restore)", tryResult)
	}
	if wordAfterTry != adGranted {
		t.Fatalf("word after failed TryAcquire = %d, want adGranted (%d): hand-off lost", wordAfterTry, adGranted)
	}
	if !headAcquired {
		t.Fatal("queue head never acquired the lock: hand-off lost")
	}
	if got := m.Mem.Peek(l.word); got != adFree {
		t.Fatalf("final word = %d, want adFree", got)
	}
}

// TestAdaptiveNoLostHandoffAcrossSeeds stresses the same interaction
// non-surgically: blocking acquirers and fast-path triers interleave over
// several seeds, and every blocking acquirer must complete — a consumed
// but unrestored grant would leave the queue head polling past the
// deadline. Run with a bounded clock so a lost hand-off fails instead of
// hanging the suite.
func TestAdaptiveNoLostHandoffAcrossSeeds(t *testing.T) {
	const (
		acquirers = 6
		triers    = 4
		rounds    = 15
		tries     = 40
	)
	for seed := uint64(1); seed <= 6; seed++ {
		m := sim.NewMachine(sim.Config{Seed: seed})
		l := NewAdaptive(m, 0)
		g := &csGuard{}
		exclusionLoop(m, l, g, exclusionCase{
			procs: acquirers, rounds: rounds,
			hold: jitter(sim.Micros(8)), after: jitter(sim.Micros(10)),
		})
		exclusionLoop(m, l, g, exclusionCase{
			first: acquirers, procs: triers, rounds: tries,
			try:  func(int) bool { return true },
			hold: jitter(sim.Micros(4)),
			after: func(p *sim.Proc) sim.Duration {
				return sim.Micros(3) + p.RNG().Duration(sim.Micros(6))
			},
		})
		m.Eng.Run(sim.Micros(5_000_000)) // generous bound; a lost hand-off never finishes
		if g.violations != 0 {
			t.Errorf("seed %d: %d critical-section overlaps", seed, g.violations)
		}
		if g.acquired != acquirers*rounds {
			t.Fatalf("seed %d: %d/%d blocking acquisitions completed — hand-off lost",
				seed, g.acquired, acquirers*rounds)
		}
		if m.Eng.Pending() == 0 {
			m.Shutdown()
		}
	}
}

func TestAdaptiveTryAcquire(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 24})
	l := NewAdaptive(m, 3)
	m.Go(0, func(p *sim.Proc) {
		if !l.TryAcquire(p) {
			t.Error("try on free lock failed")
		}
		if l.TryAcquire(p) {
			t.Error("try on held lock succeeded")
		}
		l.Release(p)
		if !l.TryAcquire(p) {
			t.Error("try after release failed")
		}
		l.Release(p)
	})
	m.RunAll()
}
