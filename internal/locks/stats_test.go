package locks

import (
	"fmt"
	"strings"
	"testing"

	"hurricane/internal/sim"
)

func TestStatsCountsAndDistributions(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 11})
	s := NewStats(m, New(m, KindH2MCS, 0))
	const nprocs, rounds = 8, 10
	g := &csGuard{}
	exclusionLoop(m, s, g, exclusionCase{
		procs: nprocs, rounds: rounds,
		hold: fixed(sim.Micros(10)), after: jitter(sim.Micros(5)),
	})
	m.RunAll()
	m.Shutdown()
	g.check(t, s.Name(), nprocs*rounds)

	if s.Acquisitions != nprocs*rounds {
		t.Fatalf("Acquisitions = %d, want %d", s.Acquisitions, nprocs*rounds)
	}
	if n := s.AcquireUS.N(); n != nprocs*rounds {
		t.Fatalf("acquire samples = %d, want %d", n, nprocs*rounds)
	}
	if n := s.HoldUS.N(); n != nprocs*rounds {
		t.Fatalf("hold samples = %d, want %d", n, nprocs*rounds)
	}
	// Hold time must be at least the 10us Think (plus release overhead).
	if min := s.HoldUS.Percentile(0); min < 10 {
		t.Fatalf("min hold %.2fus < the 10us critical section", min)
	}
	// Every hand-off but the first is counted, and with 8 procs on 2
	// stations some must cross the ring.
	if tot := s.HandoffTotal(); tot != nprocs*rounds-1 {
		t.Fatalf("hand-offs = %d, want %d", tot, nprocs*rounds-1)
	}
	if s.Handoffs[sim.DistRing] == 0 {
		t.Fatal("no cross-ring hand-offs recorded for procs spanning stations")
	}
	if s.MaxQueueDepth < 2 || s.MaxQueueDepth > nprocs {
		t.Fatalf("MaxQueueDepth = %d, want in [2, %d]", s.MaxQueueDepth, nprocs)
	}
	rep := s.Report()
	for _, frag := range []string{"H2-MCS", "acquire", "hold", "queue depth", "hand-offs"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("Report missing %q:\n%s", frag, rep)
		}
	}
}

func TestStatsResetWindow(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 12})
	s := NewStats(m, New(m, KindSpin, 0))
	m.Go(0, func(p *sim.Proc) {
		for r := 0; r < 5; r++ {
			s.Acquire(p)
			s.Release(p)
		}
		s.ResetWindow()
		for r := 0; r < 3; r++ {
			s.Acquire(p)
			s.Release(p)
		}
	})
	m.RunAll()
	m.Shutdown()
	if s.Acquisitions != 3 {
		t.Fatalf("post-reset Acquisitions = %d, want 3", s.Acquisitions)
	}
	if s.AcquireUS.N() != 3 || s.HoldUS.N() != 3 {
		t.Fatalf("post-reset samples = %d/%d, want 3/3", s.AcquireUS.N(), s.HoldUS.N())
	}
	// A single proc's releases are all uncontended, so none of its
	// self-reacquires is a hand-off — before or after the reset.
	if got := s.HandoffTotal(); got != 0 {
		t.Fatalf("post-reset hand-offs = %d, want 0", got)
	}
}

func TestStatsTryAcquire(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 13})
	s := NewStats(m, NewSpin(m, 0, sim.Micros(35)))
	m.Go(0, func(p *sim.Proc) {
		if !s.TryAcquire(p) {
			t.Error("try on free lock failed")
		}
		if s.TryAcquire(p) {
			t.Error("try on held lock succeeded")
		}
		s.Release(p)
	})
	m.RunAll()
	m.Shutdown()
	if s.TryAttempts != 2 || s.TrySuccesses != 1 {
		t.Fatalf("try counters = %d/%d, want 2/1", s.TrySuccesses, s.TryAttempts)
	}
	if s.Acquisitions != 1 || s.HoldUS.N() != 1 {
		t.Fatalf("acquisitions = %d, holds = %d, want 1/1", s.Acquisitions, s.HoldUS.N())
	}
}

// spanCollector records span events for assertions.
type spanCollector struct{ events []sim.TraceEvent }

func (c *spanCollector) Event(ev sim.TraceEvent) { c.events = append(c.events, ev) }

// TestStatsEmitsSpans checks the wrapper emits typed wait/hold spans with
// the acquirer's module, the lock's home and their distance class filled
// in — the unified-pipeline contract the placement analyzer depends on.
func TestStatsEmitsSpans(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 14})
	tr := &spanCollector{}
	m.SetTracer(tr)
	const home = 12 // cross-ring from proc 0
	s := NewStats(m, New(m, KindH2MCS, home))
	m.Go(0, func(p *sim.Proc) {
		s.Acquire(p)
		p.Think(sim.Micros(5))
		s.Release(p)
	})
	m.RunAll()
	m.Shutdown()
	var waits, holds int
	for _, ev := range tr.events {
		if ev.Kind != sim.EvSpan {
			continue
		}
		if ev.Src != 0 || ev.Dst != home || ev.Dist != sim.DistRing {
			t.Errorf("span %q src/dst/dist = %d/%d/%v, want 0/%d/ring", ev.Name, ev.Src, ev.Dst, ev.Dist, home)
		}
		switch ev.Span {
		case sim.SpanLockWait:
			waits++
			if !strings.HasPrefix(ev.Name, "wait ") {
				t.Errorf("wait span named %q", ev.Name)
			}
		case sim.SpanLockHold:
			holds++
			if got := (ev.End - ev.Start).Microseconds(); got < 5 {
				t.Errorf("hold span %.2fus < the 5us critical section", got)
			}
		}
	}
	if waits != 1 || holds != 1 {
		t.Fatalf("spans: waits=%d holds=%d, want 1/1", waits, holds)
	}
}

// TestStatsHandoffSum covers both hand-off call sites (Acquire and the
// TryAcquire path) under a gappy, unfair workload: hand-offs can never
// exceed acquisitions-1, and under this saturated mix most acquisitions
// are genuine transfers. The exact acquisitions-1 pin lives in
// TestStatsHandoffSumContinuousContention — with think gaps between
// rounds, a release can catch an empty queue and the following
// acquisition is correctly not a hand-off.
func TestStatsHandoffSum(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 15})
	s := NewStats(m, NewSpin(m, 5, sim.Micros(35)))
	const nprocs, rounds = 6, 8
	for i := 0; i < nprocs; i++ {
		m.Go(i, func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				// Alternate paths so both hand-off call sites are exercised.
				if r%2 == 0 {
					s.Acquire(p)
				} else {
					for !s.TryAcquire(p) {
						p.Think(sim.Micros(3))
					}
				}
				p.Think(sim.Micros(2))
				s.Release(p)
				p.Think(p.RNG().Duration(sim.Micros(4)))
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	if s.Acquisitions != nprocs*rounds {
		t.Fatalf("Acquisitions = %d, want %d", s.Acquisitions, nprocs*rounds)
	}
	if got, max := s.HandoffTotal(), s.Acquisitions-1; got > max || got < max/2 {
		t.Fatalf("hand-offs = %d, want in [%d, %d]", got, max/2, max)
	}
}

// TestStatsHandoffSumContinuousContention pins the hand-off invariant the
// attribution fix restores: under continuous contention (no gaps — every
// release happens with a waiter queued) hand-offs sum to exactly
// acquisitions-1, the window's first acquisition being the only
// non-transfer. FIFO-ordered locks only: an unfair spin lock lets procs
// finish their rounds staggered, so contention genuinely ends before the
// last proc's final rounds and those self-reacquires are (correctly) not
// hand-offs.
func TestStatsHandoffSumContinuousContention(t *testing.T) {
	for _, k := range []Kind{KindH2MCS, KindCohort, KindCNA} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			m := sim.NewMachine(sim.Config{Seed: 16})
			s := NewStats(m, New(m, k, 2))
			const nprocs, rounds = 4, 12
			for i := 0; i < nprocs; i++ {
				m.Go(i, func(p *sim.Proc) {
					for r := 0; r < rounds; r++ {
						s.Acquire(p)
						p.Think(sim.Micros(5))
						s.Release(p) // no gap: re-contend immediately
					}
				})
			}
			m.RunAll()
			m.Shutdown()
			if s.Acquisitions != nprocs*rounds {
				t.Fatalf("Acquisitions = %d, want %d", s.Acquisitions, nprocs*rounds)
			}
			if got, want := s.HandoffTotal(), s.Acquisitions-1; got != want {
				t.Fatalf("hand-offs = %d, want acquisitions-1 = %d", got, want)
			}
		})
	}
}

// TestStatsSelfReacquireNotHandoff is the regression test for the
// attribution bug: a release with an empty queue hands the lock to nobody,
// so the same proc reacquiring later must not count as a DistLocal
// hand-off (it used to, inflating measured locality).
func TestStatsSelfReacquireNotHandoff(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 17})
	s := NewStats(m, New(m, KindH2MCS, 3))
	m.Go(0, func(p *sim.Proc) {
		for r := 0; r < 10; r++ {
			s.Acquire(p)
			p.Think(sim.Micros(5))
			s.Release(p)
			p.Think(sim.Micros(50)) // idle gap: nobody is ever waiting
		}
	})
	m.RunAll()
	m.Shutdown()
	if s.Acquisitions != 10 {
		t.Fatalf("Acquisitions = %d, want 10", s.Acquisitions)
	}
	if got := s.HandoffTotal(); got != 0 {
		t.Fatalf("uncontended self-reacquires counted %d hand-offs (%d local), want 0",
			got, s.Handoffs[sim.DistLocal])
	}
}

// brokenLock is a deliberately broken lock: Acquire and TryAcquire grant
// at once, without waiting, and record when they did.
type brokenLock struct {
	*Spin
	granted sim.Time
}

func (l *brokenLock) Acquire(p *sim.Proc) {
	p.Reg(1)
	l.granted = p.Now()
}

func (l *brokenLock) TryAcquire(p *sim.Proc) bool {
	l.Acquire(p)
	return true
}

func (l *brokenLock) Release(p *sim.Proc) { p.Reg(1) }

// TestStatsChecksMutualExclusion breaks a lock and requires Stats to panic
// at the first grant that finds a holder and at a release by a processor
// that does not hold the lock, naming the lock, both processors and the
// simulated time.
func TestStatsChecksMutualExclusion(t *testing.T) {
	cases := []struct {
		name string
		// first runs on processor 0, second on processor 1 2us later.
		first, second func(s *Stats, p *sim.Proc)
		want          func(l *brokenLock) string
	}{
		{
			name:   "grant",
			first:  (*Stats).Acquire,
			second: (*Stats).Acquire,
			want: func(l *brokenLock) string {
				return fmt.Sprintf("locks: Spin-35us granted to processor 1 at %v while processor 0 holds it", l.granted)
			},
		},
		{
			name:   "try-grant",
			first:  (*Stats).Acquire,
			second: func(s *Stats, p *sim.Proc) { s.TryAcquire(p) },
			want: func(l *brokenLock) string {
				return fmt.Sprintf("locks: Spin-35us granted to processor 1 at %v while processor 0 holds it", l.granted)
			},
		},
		{
			name:   "foreign-release",
			first:  (*Stats).Acquire,
			second: (*Stats).Release,
			want: func(*brokenLock) string {
				return fmt.Sprintf("locks: processor 1 released Spin-35us at %v, which processor 0 holds", sim.Time(sim.Micros(2)))
			},
		},
		{
			name:   "free-release",
			first:  func(*Stats, *sim.Proc) {},
			second: (*Stats).Release,
			want: func(*brokenLock) string {
				return fmt.Sprintf("locks: processor 1 released Spin-35us at %v, which no processor holds", sim.Time(sim.Micros(2)))
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := sim.NewMachine(sim.Config{Seed: 18})
			l := &brokenLock{Spin: NewSpin(m, 0, DefaultSpinCap)}
			s := NewStats(m, l)
			m.Go(0, func(p *sim.Proc) {
				c.first(s, p)
				p.Think(sim.Micros(10))
			})
			m.Go(1, func(p *sim.Proc) {
				p.Think(sim.Micros(2))
				c.second(s, p)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				m.RunAll()
			}()
			if want := c.want(l); got != want {
				t.Fatalf("panic %v, want %q", got, want)
			}
		})
	}
}
