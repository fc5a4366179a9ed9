package lockfree

import (
	"testing"

	"hurricane/internal/sim"
)

func casMachine(seed uint64) *sim.Machine {
	return sim.NewMachine(sim.Config{Seed: seed, HasCAS: true})
}

func TestCounterConcurrentIncrements(t *testing.T) {
	m := casMachine(1)
	c := NewCounter(m, 5)
	for i := 0; i < 12; i++ {
		m.Go(i, func(p *sim.Proc) {
			for r := 0; r < 50; r++ {
				c.Add(p, 1)
				p.Think(p.RNG().Duration(40))
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	if got := m.Mem.Peek(c.addr); got != 600 {
		t.Fatalf("counter = %d, want 600 (increments lost)", got)
	}
}

func TestCompareShapes(t *testing.T) {
	// Uncontended, the CAS increment beats a full lock/unlock pair around
	// a plain increment — the paper's case for lock-free leaf state.
	solo := Compare(3, 1, 40)
	if solo.LockFreeUS >= solo.SpinUS || solo.LockFreeUS >= solo.MCSUS {
		t.Errorf("uncontended lock-free (%.2fus) not below spin (%.2fus) and MCS (%.2fus)",
			solo.LockFreeUS, solo.SpinUS, solo.MCSUS)
	}
	// Contended, CAS retry storms can lose to the queue lock's orderly
	// FIFO hand-off — the §5 caveat ("one must be careful about the
	// possibility of starvation using the lock-free approach"). Assert
	// only the robust part: lock-free still beats the backoff spin lock.
	hot := Compare(3, 8, 30)
	if hot.LockFreeUS >= hot.SpinUS {
		t.Errorf("contended lock-free (%.2fus) not below spin-locked (%.2fus)", hot.LockFreeUS, hot.SpinUS)
	}
}

func TestCASRequiresSupportViaCounter(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 4}) // no CAS
	c := NewCounter(m, 0)
	m.Go(0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("CAS counter on swap-only machine did not panic")
			}
		}()
		c.Add(p, 1)
	})
	m.RunAll()
}
