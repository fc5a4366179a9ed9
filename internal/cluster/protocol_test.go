package cluster

import (
	"testing"

	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// holdRecorder wraps a coarse lock and records whether it is held and how
// many holds have begun.
type holdRecorder struct {
	locks.Lock
	held  bool
	holds int
}

func (l *holdRecorder) Acquire(p *sim.Proc) {
	l.Lock.Acquire(p)
	l.held = true
	l.holds++
}

func (l *holdRecorder) Release(p *sim.Proc) {
	l.held = false
	l.Lock.Release(p)
}

// reserveCase is a one-cluster table whose coarse lock is a holdRecorder
// and which holds key 7 at entry e, driven from processor p.
type reserveCase struct {
	m   *sim.Machine
	p   *sim.Proc
	tb  *hybrid.Table
	rec *holdRecorder
	e   sim.Addr
}

// status reads e's status word without simulated cost.
func (c *reserveCase) status() uint64 { return c.m.Mem.Peek(c.e + hybrid.EntStatus) }

func runReserveCase(t *testing.T, body func(c *reserveCase)) {
	t.Helper()
	c := &reserveCase{m: newHector(40)}
	c.tb = hybrid.New(c.m, 0, 8, 1, locks.KindH2MCS)
	c.rec = &holdRecorder{Lock: c.tb.Lock()}
	c.tb.SetLock(c.rec)
	c.m.Go(0, func(p *sim.Proc) {
		c.p = p
		c.e = c.tb.NewEntry(p, 0, 7)
		if !c.tb.Insert(p, c.e) {
			t.Fatal("insert failed")
		}
		body(c)
	})
	c.m.RunAll()
}

func TestReserveAbsentKey(t *testing.T) {
	runReserveCase(t, func(c *reserveCase) {
		ran := false
		if st := Reserve(c.p, c.tb, 8, hybrid.Exclusive, func(sim.Addr) { ran = true }); st != StatusAbsent {
			t.Errorf("status = %v, want StatusAbsent", st)
		}
		if ran {
			t.Error("fn ran for an absent key")
		}
	})
}

func TestReserveHeldEntryAnswersRetry(t *testing.T) {
	runReserveCase(t, func(c *reserveCase) {
		if _, ok := c.tb.Reserve(c.p, 7, hybrid.Exclusive); !ok {
			t.Fatal("first reserve failed")
		}
		for _, mode := range []hybrid.Mode{hybrid.Exclusive, hybrid.Shared} {
			ran := false
			if st := Reserve(c.p, c.tb, 7, mode, func(sim.Addr) { ran = true }); st != StatusRetry {
				t.Errorf("mode %d: status = %v, want StatusRetry", mode, st)
			}
			if ran {
				t.Errorf("mode %d: fn ran on a reserved entry", mode)
			}
			if st := c.status(); st != 1 {
				t.Errorf("mode %d: status word = %d, want the holder's 1", mode, st)
			}
		}
	})
}

func TestReserveFreeEntryRunsFnInSameHold(t *testing.T) {
	runReserveCase(t, func(c *reserveCase) {
		before := c.rec.holds
		var got sim.Addr
		st := Reserve(c.p, c.tb, 7, hybrid.Exclusive, func(e sim.Addr) {
			got = e
			if !c.rec.held || c.rec.holds != before+1 {
				t.Errorf("fn ran outside the reserving hold (held=%v, holds %d -> %d)", c.rec.held, before, c.rec.holds)
			}
		})
		if st != StatusOK || got != c.e {
			t.Fatalf("status = %v, entry = %v; want StatusOK on %v", st, got, c.e)
		}
		if c.rec.held || c.rec.holds != before+1 {
			t.Errorf("Reserve took %d holds and left held=%v, want one released hold", c.rec.holds-before, c.rec.held)
		}
		if st := c.status(); st != 1 {
			t.Errorf("status word = %d, want 1 (exclusively reserved)", st)
		}
	})
}

func TestRetryCountsAndStops(t *testing.T) {
	m := newHector(41)
	m.Go(0, func(p *sim.Proc) {
		for _, final := range []Status{StatusOK, StatusAbsent} {
			var retries uint64
			attempts := 0
			st := Retry(p, sim.Micros(500), &retries, func() Status {
				attempts++
				switch {
				case attempts <= 3:
					return StatusRetry
				case attempts == 4:
					return final
				}
				return StatusOK // only a Retry that went on past final gets here
			})
			if st != final || attempts != 4 || retries != 3 {
				t.Errorf("final %v: status %v after %d attempts, %d retries; want 4 attempts, 3 retries",
					final, st, attempts, retries)
			}
		}
	})
	m.RunAll()
}

func TestRetryWaitsDoubleAndClamp(t *testing.T) {
	limit := sim.Micros(32)
	m := newHector(42)
	m.Go(0, func(p *sim.Proc) {
		var at []sim.Time
		Retry(p, limit, nil, func() Status {
			at = append(at, p.Now())
			if len(at) <= 7 {
				return StatusRetry
			}
			return StatusOK
		})
		if len(at) != 8 {
			t.Fatalf("%d attempts, want 8", len(at))
		}
		// Proc.Backoff waits a jittered d/2..d for a delay d of 4, 8 and
		// 16 µs, then stays at 32 µs, the limit (a power-of-two multiple of
		// 4 µs, so the last doubling lands on it).
		d := sim.Micros(4)
		for i := 1; i < len(at); i++ {
			if w := sim.Duration(at[i] - at[i-1]); w < d/2 || w > d {
				t.Errorf("wait %d = %.2fus, want %.0f..%.0fus", i, w.Microseconds(), (d / 2).Microseconds(), d.Microseconds())
			}
			d = min(2*d, limit)
		}
	})
	m.RunAll()
}
