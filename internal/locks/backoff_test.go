package locks

import (
	"fmt"
	"slices"
	"testing"

	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// refSpin is Spin with the backoff loop written out on the processor's
// coroutine, as Spin.Acquire was before sim.Proc.BackoffSwap: the
// per-instruction loop that BackoffSwap still runs on the LP engine.
type refSpin struct{ *Spin }

func (l refSpin) Acquire(p *sim.Proc) {
	p.Reg(1)
	if p.Swap(l.lock, 1) == 0 {
		p.Branch(2)
		return
	}
	p.Branch(2)
	delay := initialBackoff
	for {
		p.Think(delay/2 + p.RNG().Duration(delay/2+1))
		if p.Swap(l.lock, 1) == 0 {
			p.Branch(1)
			return
		}
		p.Branch(1)
		delay *= 2
		if delay > l.max {
			delay = l.max
		}
	}
}

// spinCase is one randomized contention scenario. Processor i sends an
// interrupt to processor i+1 before its rounds listed in ipiRounds[i]; the
// handler computes briefly, so it lands mid-backoff as often as not.
type spinCase struct {
	seed      uint64
	procs     int
	hold, gap sim.Duration
	max       sim.Duration
	rounds    int
	ipiRounds [][]int
	workers   int // LP engine workers
}

// spinRun is everything a case must reproduce exactly.
type spinRun struct {
	acquired [][]sim.Time
	counters []sim.InstrCounters
	events   uint64
}

func runSpinCase(c spinCase, ref bool) spinRun {
	cfg := machine.Hector16(c.seed)
	if c.procs > 16 {
		cfg = machine.NUMAchine64(c.seed)
	}
	cfg.Workers = c.workers
	m := sim.NewMachine(cfg)
	spin := NewSpin(m, m.NumProcs()-1, c.max)
	var l Lock = spin
	if ref {
		l = refSpin{spin}
	}
	r := spinRun{acquired: make([][]sim.Time, c.procs)}
	for i := 0; i < c.procs; i++ {
		m.Go(i, func(p *sim.Proc) {
			for k := 0; k < c.rounds; k++ {
				if slices.Contains(c.ipiRounds[i], k) {
					p.SendIPI((i+1)%c.procs, func(h *sim.Proc) {
						h.Reg(3)
						h.Think(h.RNG().Duration(sim.Micros(4)) + 1)
					})
				}
				l.Acquire(p)
				r.acquired[i] = append(r.acquired[i], p.Now())
				p.Think(c.hold)
				l.Release(p)
				p.Think(p.RNG().Duration(c.gap + 1))
			}
		})
	}
	d0, e0 := sim.TotalEvents()
	m.RunAll()
	d1, e1 := sim.TotalEvents()
	m.Shutdown()
	// The LP engines are internal; their runs add to the process-wide
	// totals, and no other simulation runs in this test binary meanwhile.
	r.events = d1 - d0 + e1 - e0
	for i := 0; i < c.procs; i++ {
		r.counters = append(r.counters, m.Procs[i].Counters())
	}
	return r
}

// TestSpinMatchesCoroutineLoop holds Spin, whose waiting runs through
// sim.Proc.BackoffSwap, to the coroutine loop it replaced, on the LP
// engine, where BackoffSwap runs that loop on the coroutine: on random
// cases at one and two workers, both give the same acquisition times,
// instruction counters and engine event counts. The serial engine makes a
// failed poll one step; sim.TestBackoffSwapMatchesStepLoop holds it to
// its own reference on the same cases.
func TestSpinMatchesCoroutineLoop(t *testing.T) {
	rng := sim.NewRNG(0x5b1)
	caps := []sim.Duration{sim.Micros(35), sim.Micros(2000)}
	for n := 0; n < 12; n++ {
		c := spinCase{
			seed:   rng.Uint64(),
			procs:  []int{2, 16, 64}[n%3],
			hold:   sim.Duration(rng.Intn(int(sim.Micros(40)))),
			gap:    sim.Duration(rng.Intn(int(sim.Micros(20)))),
			max:    caps[n/3%2],
			rounds: 3 + rng.Intn(3),
		}
		c.ipiRounds = make([][]int, c.procs)
		for i := range c.ipiRounds {
			for k := 0; k < c.rounds; k++ {
				if rng.Intn(4) == 0 {
					c.ipiRounds[i] = append(c.ipiRounds[i], k)
				}
			}
		}
		for _, workers := range []int{1, 2} {
			c.workers = workers
			name := fmt.Sprintf("case%d/p%d/cap%gus/workers%d", n, c.procs, c.max.Microseconds(), workers)
			t.Run(name, func(t *testing.T) {
				want, got := runSpinCase(c, true), runSpinCase(c, false)
				if !slices.EqualFunc(want.acquired, got.acquired, slices.Equal) {
					t.Fatalf("acquisition times differ:\nloop     %v\nBackoff  %v", want.acquired, got.acquired)
				}
				if !slices.Equal(want.counters, got.counters) {
					t.Fatalf("instruction counters differ:\nloop     %v\nBackoff  %v", want.counters, got.counters)
				}
				if want.events != got.events {
					t.Fatalf("engine processed %d events, the coroutine loop %d", got.events, want.events)
				}
			})
		}
	}
}

// TestSpinNestedAcquireInIRQHandler is the regression test for loop state
// kept per processor instead of per call. Processor 0 backs off on lock A
// while processor 1 holds it for 2ms; an interrupt reaches processor 0
// mid-backoff, and its handler takes a contended lock B. When the handler
// returns, processor 0 must go on waiting for A. With one loop state per
// processor, the handler's won swap on B was taken for a won swap on A.
func TestSpinNestedAcquireInIRQHandler(t *testing.T) {
	m := newHector(7)
	a := NewSpin(m, 15, DefaultSpinCap)
	b := NewSpin(m, 14, DefaultSpinCap)
	var released, acquired sim.Time
	handled := false
	m.Go(1, func(p *sim.Proc) {
		a.Acquire(p)
		p.Think(sim.Micros(2000))
		released = p.Now()
		a.Release(p)
	})
	m.Go(2, func(p *sim.Proc) {
		p.Think(sim.Micros(50))
		b.Acquire(p)
		p.Think(sim.Micros(300))
		b.Release(p)
	})
	m.Go(0, func(p *sim.Proc) {
		p.Think(sim.Micros(10)) // processor 1 takes A first
		a.Acquire(p)
		acquired = p.Now()
		a.Release(p)
	})
	m.Go(3, func(p *sim.Proc) {
		p.Think(sim.Micros(200))
		p.SendIPI(0, func(h *sim.Proc) {
			b.Acquire(h)
			h.Think(sim.Micros(5))
			b.Release(h)
			handled = true
		})
	})
	m.RunAll()
	if !handled {
		t.Fatal("the interrupt handler never ran")
	}
	if acquired < released {
		t.Fatalf("processor 0 acquired A at %v, before its holder released it at %v", acquired, released)
	}
}
