package locks

import (
	"fmt"
	"strings"

	"hurricane/internal/sim"
	"hurricane/internal/stats"
)

// Stats wraps a Lock and accumulates the per-lock telemetry the paper's
// instrumented kernel collected: acquisition counts, acquire-latency and
// hold-time distributions, queue depth at arrival, and the topological
// distance each hand-off travelled (previous holder's module → next
// holder's module: same module, same station, or across the ring). It
// implements Lock (and TryAcquire when the wrapped lock does), so any
// experiment can swap it in without touching the algorithm under test.
//
// When a tracer is installed on the machine, Stats also emits wait and
// hold spans, so a Chrome trace shows who waited on what and for how long.
//
// Stats also checks mutual exclusion on every run, at no simulated cost:
// a grant (Acquire, or a successful TryAcquire) that finds the lock held,
// or a release by a processor that does not hold it, panics with the
// lock, both processors and the simulated time.
type Stats struct {
	inner Lock
	m     *sim.Machine

	// Acquisitions counts completed Acquire calls in the current window.
	Acquisitions uint64
	// TryAttempts/TrySuccesses count TryAcquire outcomes.
	TryAttempts, TrySuccesses uint64
	// AcquireUS and HoldUS are distributions of acquire latency and hold
	// time in microseconds.
	AcquireUS, HoldUS stats.Dist
	// QueueDepth is the distribution of contenders (waiters + holder)
	// observed at each Acquire arrival, before the arrival joins.
	QueueDepth stats.Dist
	// MaxQueueDepth is the largest depth including the new arrival.
	MaxQueueDepth int
	// Handoffs counts lock transfers by topological distance from the
	// previous holder. Only contended transfers count: the first
	// acquisition of a window and any acquisition following an uncontended
	// release (nobody was waiting, so nothing was handed to anybody) are
	// not hand-offs. Under continuous contention every acquisition after
	// the first is a hand-off, so the counters sum to Acquisitions-1.
	// The global slot only fills on machines with a multi-level ring
	// hierarchy.
	Handoffs [sim.NumDistClasses]uint64 // indexed by sim.DistClass

	waiting    int
	holder     int // processor holding the lock, -1 when free
	lastHolder int // module of the previous holder, -1 before any release
	acquiredAt sim.Time
	home       int
	waitName   string
	holdName   string
}

// NewStats wraps l with telemetry on machine m.
func NewStats(m *sim.Machine, l Lock) *Stats {
	return &Stats{inner: l, m: m, holder: -1, lastHolder: -1, home: l.Home(),
		waitName: "wait " + l.Name(), holdName: "hold " + l.Name()}
}

// Name implements Lock.
func (s *Stats) Name() string { return s.inner.Name() }

// Unwrap returns the wrapped lock.
func (s *Stats) Unwrap() Lock { return s.inner }

// Home implements Lock.
func (s *Stats) Home() int { return s.home }

// held reports the number of holders, 0 or 1.
func (s *Stats) held() int {
	if s.holder < 0 {
		return 0
	}
	return 1
}

// grant makes p the holder, panicking if another processor holds the lock.
func (s *Stats) grant(p *sim.Proc) {
	if s.holder >= 0 {
		panic(fmt.Sprintf("locks: %s granted to processor %d at %v while processor %d holds it",
			s.Name(), p.ID(), p.Now(), s.holder))
	}
	s.holder = p.ID()
}

// recordHandoff counts the lock transfer to the new holder p by its
// topological distance from the previous holder. The first acquisition of
// a window has no previous holder, and Release clears the marker when the
// queue was empty, so only genuine contended transfers are counted —
// under continuous contention they sum to acquisitions-1. Both acquire
// paths (Acquire and a successful TryAcquire) funnel through here.
func (s *Stats) recordHandoff(p *sim.Proc) {
	if s.lastHolder >= 0 {
		s.Handoffs[s.m.Mem.Distance(s.lastHolder, p.ID())]++
	}
}

// ResetWindow discards accumulated telemetry, e.g. after a warm-up phase.
// In-progress acquisitions are still tracked (depth counters persist).
func (s *Stats) ResetWindow() {
	s.Acquisitions = 0
	s.TryAttempts = 0
	s.TrySuccesses = 0
	s.AcquireUS = stats.Dist{}
	s.HoldUS = stats.Dist{}
	s.QueueDepth = stats.Dist{}
	s.MaxQueueDepth = 0
	s.Handoffs = [sim.NumDistClasses]uint64{}
	s.lastHolder = -1
}

// Acquire implements Lock.
func (s *Stats) Acquire(p *sim.Proc) {
	t0 := p.Now()
	s.QueueDepth.Add(float64(s.waiting + s.held()))
	s.waiting++
	if d := s.waiting + s.held(); d > s.MaxQueueDepth {
		s.MaxQueueDepth = d
	}
	s.inner.Acquire(p)
	s.waiting--
	s.grant(p)
	now := p.Now()
	s.Acquisitions++
	s.AcquireUS.Add((now - t0).Microseconds())
	s.recordHandoff(p)
	s.acquiredAt = now
	s.m.EmitSpan(sim.SpanLockWait, s.waitName, p.ID(), t0, now, s.home, 0)
}

// Release implements Lock. A hand-off needs a receiver: when the lock is
// released with contenders waiting, the next acquisition is a transfer and
// is attributed to the releaser's module. An uncontended release (empty
// queue) transfers to nobody — recording the releaser would count a later
// self-reacquire as a DistLocal hand-off and inflate locality, so the
// previous-holder marker is cleared instead.
func (s *Stats) Release(p *sim.Proc) {
	now := p.Now()
	if s.holder != p.ID() {
		if s.holder < 0 {
			panic(fmt.Sprintf("locks: processor %d released %s at %v, which no processor holds",
				p.ID(), s.Name(), now))
		}
		panic(fmt.Sprintf("locks: processor %d released %s at %v, which processor %d holds",
			p.ID(), s.Name(), now, s.holder))
	}
	s.HoldUS.Add((now - s.acquiredAt).Microseconds())
	if s.waiting > 0 {
		s.lastHolder = p.ID()
	} else {
		s.lastHolder = -1
	}
	s.holder = -1
	s.m.EmitSpan(sim.SpanLockHold, s.holdName, p.ID(), s.acquiredAt, now, s.home, 0)
	s.inner.Release(p)
}

// TryAcquire implements TryLocker when the wrapped lock does; it panics
// otherwise (matching a direct call on a non-try lock, which would not
// compile).
func (s *Stats) TryAcquire(p *sim.Proc) bool {
	tl, ok := s.inner.(TryLocker)
	if !ok {
		panic(fmt.Sprintf("locks: TryAcquire on Stats-wrapped %s, which is not a TryLocker", s.inner.Name()))
	}
	s.TryAttempts++
	got := tl.TryAcquire(p)
	if got {
		s.TrySuccesses++
		s.grant(p)
		s.Acquisitions++
		s.recordHandoff(p)
		s.acquiredAt = p.Now()
	}
	return got
}

// HandoffTotal reports the number of counted hand-offs.
func (s *Stats) HandoffTotal() uint64 {
	var tot uint64
	for _, h := range s.Handoffs {
		tot += h
	}
	return tot
}

// Report renders the accumulated telemetry as an indented text block.
func (s *Stats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lock %s: %d acquisitions", s.Name(), s.Acquisitions)
	if s.TryAttempts > 0 {
		fmt.Fprintf(&b, ", %d/%d try-acquires", s.TrySuccesses, s.TryAttempts)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  acquire (us): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
		s.AcquireUS.Mean(), s.AcquireUS.Percentile(50), s.AcquireUS.Percentile(95),
		s.AcquireUS.Percentile(99), s.AcquireUS.Max())
	fmt.Fprintf(&b, "  hold    (us): mean %.1f  p50 %.1f  p95 %.1f  max %.0f\n",
		s.HoldUS.Mean(), s.HoldUS.Percentile(50), s.HoldUS.Percentile(95), s.HoldUS.Max())
	fmt.Fprintf(&b, "  queue depth:  mean %.1f  p95 %.0f  max %d\n",
		s.QueueDepth.Mean(), s.QueueDepth.Percentile(95), s.MaxQueueDepth)
	if tot := s.HandoffTotal(); tot > 0 {
		fmt.Fprintf(&b, "  hand-offs:    %d local (%.0f%%), %d station (%.0f%%), %d ring (%.0f%%)",
			s.Handoffs[sim.DistLocal], 100*float64(s.Handoffs[sim.DistLocal])/float64(tot),
			s.Handoffs[sim.DistStation], 100*float64(s.Handoffs[sim.DistStation])/float64(tot),
			s.Handoffs[sim.DistRing], 100*float64(s.Handoffs[sim.DistRing])/float64(tot))
		if g := s.Handoffs[sim.DistGlobal]; g > 0 {
			fmt.Fprintf(&b, ", %d global (%.0f%%)", g, 100*float64(g)/float64(tot))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
