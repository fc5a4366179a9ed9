// Queue-mode dwell under a latency-bounded cap, tested end to end on the
// real tuned lock. This lives in an external test package because locks
// imports tune: the controller-only dwell tests in tune_test.go drive
// synthetic samples, while this one drives the actual lock.
package tune_test

import (
	"math"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// TestQueueModeDwellLatencyBoundedCap pins the escalation path a
// latency-SLO deployment relies on: when MaxCap is bounded far below the
// 2ms default (a cap the tail can tolerate), sustained saturation cannot
// be absorbed by backing off further — the controller must cross to queue
// mode instead, and once there it must dwell: no flapping back to spin
// between bursts, every logged cap stays within the bound, and
// consecutive mode switches are at least DwellWindows windows apart.
func TestQueueModeDwellLatencyBoundedCap(t *testing.T) {
	const maxCapUS = 40
	m := sim.NewMachine(sim.Config{Seed: 41})
	l := locks.NewTuned(m, 0, tune.Params{MaxCap: sim.Micros(maxCapUS)})
	ctl := l.Controller()

	// Open-loop-ish saturation: 16 processors re-arrive after short
	// exponential think gaps around a 25us hold, well past SatHigh on the
	// home module, until a fixed deadline (~120 observation windows).
	deadline := sim.Time(sim.Micros(12000))
	hold := sim.Micros(25)
	for i := 0; i < 16; i++ {
		m.Go(i, func(p *sim.Proc) {
			for p.Now() < deadline {
				gap := sim.Duration(-float64(sim.Micros(10)) * math.Log(1-p.RNG().Float64()))
				if gap < 1 {
					gap = 1
				}
				p.Think(gap)
				l.Acquire(p)
				p.Think(hold)
				l.Release(p)
			}
		})
	}
	m.RunAll()
	m.Shutdown()

	if got := ctl.Mode(); got != tune.ModeQueue {
		t.Fatalf("final mode %v, want queue (cap bound %dus left no backoff headroom)", got, maxCapUS)
	}
	if s := ctl.Switches(); s != 1 {
		t.Errorf("%d mode switches, want exactly 1 (spin->queue, then dwell)", s)
	}
	log := ctl.Log()
	if len(log) < 20 {
		t.Fatalf("only %d observation windows logged", len(log))
	}
	crossed := -1
	last := -1
	for i, d := range log {
		if d.Cap > sim.Micros(maxCapUS) {
			t.Errorf("window %d: cap %v exceeds the %dus latency bound", i, d.Cap, maxCapUS)
		}
		if i > 0 && d.Mode != log[i-1].Mode {
			if last >= 0 && i-last < tune.DwellWindows {
				t.Errorf("switches %d windows apart (< dwell %d)", i-last, tune.DwellWindows)
			}
			last = i
			if d.Mode == tune.ModeQueue && crossed < 0 {
				crossed = i
			}
		}
	}
	if crossed < 0 {
		t.Fatal("log never records the spin->queue crossing")
	}
	// The dwell is not just "no early switch": queue mode is sustained
	// through the trailing windows, not abandoned once the first burst
	// passes.
	for i := crossed; i < len(log); i++ {
		if log[i].Mode != tune.ModeQueue {
			t.Fatalf("window %d: mode %v after crossing at %d — queue mode not sustained",
				i, log[i].Mode, crossed)
		}
	}
}
