package locks

import (
	"math"
	"testing"
	"testing/quick"

	"hurricane/internal/sim"
)

// stationRuns returns the longest run of consecutive entries from the same
// station in a grant sequence.
func stationRuns(entries []int, procsPerStation int) int {
	longest, run := 0, 0
	last := -1
	for _, id := range entries {
		s := id / procsPerStation
		if s == last {
			run++
		} else {
			run = 1
			last = s
		}
		if run > longest {
			longest = run
		}
	}
	return longest
}

// saturate runs nprocs procs through rounds back-to-back acquire/release
// cycles (continuous contention) and returns the grant order.
func saturate(t *testing.T, m *sim.Machine, l Lock, nprocs, rounds int, hold sim.Duration) []int {
	t.Helper()
	g := &csGuard{}
	// Stagger the first arrival: starting all procs at t=0 would enqueue
	// them in ID order, and a FIFO lock would then show station-clustered
	// grants as a pure start-order artifact.
	exclusionLoop(m, l, g, exclusionCase{
		procs: nprocs, rounds: rounds, hold: fixed(hold),
		before: func(p *sim.Proc, r int) sim.Duration {
			if r == 0 {
				return p.RNG().Duration(sim.Micros(50))
			}
			return 0
		},
	})
	m.RunAll()
	m.Shutdown()
	g.check(t, l.Name(), nprocs*rounds)
	return g.order
}

// localFrac measures the station-or-closer hand-off fraction of a kind
// under continuous 16-proc contention on the default 4x4 machine.
func localFrac(t *testing.T, k Kind) float64 {
	t.Helper()
	m := sim.NewMachine(sim.Config{Seed: 21})
	s := NewStats(m, New(m, k, 0))
	saturate(t, m, s, 16, 12, sim.Micros(5))
	tot := s.HandoffTotal()
	if tot == 0 {
		t.Fatalf("%s: no hand-offs recorded", k)
	}
	return float64(s.Handoffs[sim.DistLocal]+s.Handoffs[sim.DistStation]) / float64(tot)
}

// TestHierarchicalHandoffLocality is the small-scale version of the
// CohortSweep acceptance check: under saturation, cohort and CNA hand-offs
// stay on the holder's station at least twice as often as H2-MCS's FIFO
// order, which crosses stations nearly every grant.
func TestHierarchicalHandoffLocality(t *testing.T) {
	base := localFrac(t, KindH2MCS)
	for _, k := range []Kind{KindCohort, KindCNA} {
		if got := localFrac(t, k); got < 2*base {
			t.Errorf("%s station-local hand-off fraction %.2f < 2x H2-MCS %.2f", k, got, base)
		}
	}
}

// TestHierarchicalStarvationBound pins the starvation bound: with a batch
// limit of B, at most B+1 consecutive grants stay on one station while
// other stations wait (the station representative's own acquisition plus B
// local hand-offs), so a remote waiter is delayed by at most B+1 hold
// times once queued.
func TestHierarchicalStarvationBound(t *testing.T) {
	const limit = 4
	mk := map[string]func(*sim.Machine) Lock{
		"Cohort": func(m *sim.Machine) Lock {
			l := NewCohort(m, 0)
			l.BatchLimit = limit
			return l
		},
		"CNA": func(m *sim.Machine) Lock {
			return NewCNA(m, 0, limit)
		},
	}
	for name, mk := range mk {
		mk := mk
		t.Run(name, func(t *testing.T) {
			m := sim.NewMachine(sim.Config{Seed: 22})
			entries := saturate(t, m, mk(m), 16, 10, sim.Micros(5))
			pps := m.Config().ProcsPerStation
			if run := stationRuns(entries, pps); run > limit+1 {
				t.Errorf("longest same-station grant run %d > batch limit+1 = %d", run, limit+1)
			}
			// The bound must not be vacuous: batching actually happens.
			if run := stationRuns(entries, pps); run < 2 {
				t.Errorf("no locality batching observed (longest run %d)", run)
			}
		})
	}
}

// burstySaturate drives nprocs procs through bursty, station-skewed
// contention — the open-loop server shape, built inline since the locks
// package cannot import workload. Each processor draws exponential think
// gaps between acquisitions; station 0's processors arrive four times as
// often (the Zipf hot station), and every eighth gap stretches into an
// off period so arrivals come in bursts separated by idle stretches.
func burstySaturate(t *testing.T, m *sim.Machine, l Lock, nprocs, rounds int, hold sim.Duration) []int {
	t.Helper()
	pps := m.Config().ProcsPerStation
	exp := func(p *sim.Proc, mean float64) sim.Duration {
		d := sim.Duration(-mean * math.Log(1-p.RNG().Float64()))
		if d < 1 {
			d = 1
		}
		return d
	}
	g := &csGuard{}
	exclusionLoop(m, l, g, exclusionCase{
		procs: nprocs, rounds: rounds, hold: fixed(hold),
		before: func(p *sim.Proc, r int) sim.Duration {
			mean := float64(sim.Micros(24))
			if p.ID()/pps == 0 {
				mean = float64(sim.Micros(6))
			}
			d := exp(p, mean)
			if r%8 == 7 {
				d += exp(p, float64(sim.Micros(100)))
			}
			return d
		},
	})
	m.RunAll()
	m.Shutdown()
	g.check(t, l.Name(), nprocs*rounds)
	return g.order
}

// TestHierarchicalStarvationBoundBursty re-checks the B+1 starvation bound
// under the server workload's arrival shape instead of continuous
// saturation: Zipf-style station skew plus on/off bursts is exactly the
// traffic that tempts a hierarchical lock into endless local hand-offs on
// the hot station (remote waiters are always outnumbered), so the batch
// bound — not steady-state fairness — is what caps a cold station's wait.
func TestHierarchicalStarvationBoundBursty(t *testing.T) {
	const limit = 4
	mk := map[string]func(*sim.Machine) Lock{
		"Cohort": func(m *sim.Machine) Lock {
			l := NewCohort(m, 0)
			l.BatchLimit = limit
			return l
		},
		"CNA": func(m *sim.Machine) Lock {
			return NewCNA(m, 0, limit)
		},
	}
	for name, mk := range mk {
		mk := mk
		t.Run(name, func(t *testing.T) {
			for seed := uint64(31); seed < 34; seed++ {
				m := sim.NewMachine(sim.Config{Seed: seed})
				entries := burstySaturate(t, m, mk(m), 16, 40, sim.Micros(5))
				pps := m.Config().ProcsPerStation
				run := stationRuns(entries, pps)
				if run > limit+1 {
					t.Errorf("seed %d: longest same-station grant run %d > batch limit+1 = %d",
						seed, run, limit+1)
				}
				// The hot station must actually batch, or the bound check
				// is vacuous at this load.
				if run < 2 {
					t.Errorf("seed %d: no locality batching observed (longest run %d)", seed, run)
				}
			}
		})
	}
}

// TestHierarchicalBatchKnob checks the starvation-vs-locality tradeoff the
// batch limit controls: a larger budget yields a larger station-local
// hand-off fraction.
func TestHierarchicalBatchKnob(t *testing.T) {
	frac := func(limit int) float64 {
		m := sim.NewMachine(sim.Config{Seed: 23})
		l := NewCohort(m, 0)
		l.BatchLimit = limit
		s := NewStats(m, l)
		saturate(t, m, s, 16, 12, sim.Micros(5))
		return float64(s.Handoffs[sim.DistLocal]+s.Handoffs[sim.DistStation]) / float64(s.HandoffTotal())
	}
	small, large := frac(1), frac(32)
	if large <= small {
		t.Errorf("batch limit knob has no effect: local frac %.2f (B=1) vs %.2f (B=32)", small, large)
	}
}

// TestHierTryAcquireFailsFastWhileHeld is the §3.2 deadlock-avoidance
// property for the hierarchical locks: while the global lock is held — in
// particular while its holder is stalled mid-batch — TryAcquire from
// another station must fail immediately rather than enqueue behind the
// batch, since an interrupt handler that waits there can deadlock.
func TestHierTryAcquireFailsFastWhileHeld(t *testing.T) {
	mk := map[string]func(*sim.Machine) TryLocker{
		"Cohort": func(m *sim.Machine) TryLocker { return NewCohort(m, 0) },
		"CNA":    func(m *sim.Machine) TryLocker { return NewCNA(m, 0, DefaultSpillThreshold) },
	}
	for name, mk := range mk {
		mk := mk
		t.Run(name, func(t *testing.T) {
			m := sim.NewMachine(sim.Config{Seed: 24})
			l := mk(m)
			// Station 0 builds a local batch: proc 0 holds the lock for a
			// long time (a stalled holder), procs 1-3 queue locally.
			m.Go(0, func(p *sim.Proc) {
				l.Acquire(p)
				p.Think(sim.Micros(400))
				l.Release(p)
			})
			for i := 1; i < 4; i++ {
				m.GoAt(i, sim.Micros(10), func(p *sim.Proc) {
					l.Acquire(p)
					p.Think(sim.Micros(5))
					l.Release(p)
				})
			}
			// Station 1 tries mid-stall: must fail, and fast.
			var got bool
			var took sim.Duration
			m.GoAt(4, sim.Micros(100), func(p *sim.Proc) {
				t0 := p.Now()
				got = l.TryAcquire(p)
				took = p.Now() - t0
			})
			m.RunAll()
			m.Shutdown()
			if got {
				t.Fatal("TryAcquire succeeded while the lock was held")
			}
			if took > sim.Micros(10) {
				t.Fatalf("failed TryAcquire took %v — it waited behind the batch", took)
			}
		})
	}
}

// TestHierTryAcquireBreaksSelfInterruptCycle reproduces the ordering cycle
// the paper's trylock protocol exists to break: an interrupt handler runs
// on a processor that is itself the lock holder (or a queued waiter inside
// a batch). Acquire would deadlock — the handler waits on a lock only its
// own interrupted continuation can release — so TryAcquire must refuse.
func TestHierTryAcquireBreaksSelfInterruptCycle(t *testing.T) {
	mk := map[string]func(*sim.Machine) TryLocker{
		"Cohort": func(m *sim.Machine) TryLocker { return NewCohort(m, 0) },
		"CNA":    func(m *sim.Machine) TryLocker { return NewCNA(m, 0, DefaultSpillThreshold) },
	}
	for name, mk := range mk {
		mk := mk
		t.Run(name, func(t *testing.T) {
			m := sim.NewMachine(sim.Config{Seed: 25})
			l := mk(m)
			tried, won := 0, 0
			handler := func(p *sim.Proc) {
				tried++
				if l.TryAcquire(p) {
					won++
					l.Release(p)
				}
			}
			// Proc 1 holds the lock when the IPI lands: the handler
			// interrupts the holder itself.
			m.Go(1, func(p *sim.Proc) {
				l.Acquire(p)
				p.Think(sim.Micros(100))
				l.Release(p)
			})
			// Proc 2 is a queued waiter when its IPI lands: the handler
			// interrupts a proc blocked inside the batch.
			m.GoAt(2, sim.Micros(10), func(p *sim.Proc) {
				l.Acquire(p)
				p.Think(sim.Micros(5))
				l.Release(p)
			})
			m.Eng.At(sim.Micros(30), func() { m.SendIPI(1, handler) })
			m.Eng.At(sim.Micros(50), func() { m.SendIPI(2, handler) })
			m.RunAll()
			m.Shutdown()
			if tried != 2 {
				t.Fatalf("handlers ran %d times, want 2", tried)
			}
			if won != 0 {
				t.Fatalf("TryAcquire succeeded %d times inside the cycle, want 0", won)
			}
		})
	}
}

// TestHierTryLockPropertyMixed drives random mixed Acquire/TryAcquire
// workloads over seeds (the trylock.go property-test style) and checks the
// protocol invariants for both hierarchical families: mutual exclusion
// holds, every waiting acquisition completes (no wedge), and every failed
// TryAcquire returns without waiting a hold time.
func TestHierTryLockPropertyMixed(t *testing.T) {
	f := func(seed uint64, family bool, procsRaw uint8) bool {
		m := sim.NewMachine(sim.Config{Seed: seed})
		var l TryLocker
		if family {
			l = NewCohort(m, int(seed%16))
		} else {
			l = NewCNA(m, int(seed%16), DefaultSpillThreshold)
		}
		nprocs := int(procsRaw)%14 + 2
		g := &csGuard{}
		exclusionLoop(m, l, g, exclusionCase{
			procs: nprocs, rounds: 6, try: func(r int) bool { return r%3 == 2 },
			hold: jitter(sim.Micros(8)), after: jitter(sim.Micros(12)),
		})
		m.RunAll()
		m.Shutdown()
		// Every non-try round completed, and a failed try never waited.
		return g.violations == 0 && g.acquired == nprocs*4 &&
			g.slowestFail <= sim.Micros(20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
