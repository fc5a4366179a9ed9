package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refSweep is Sweep written out on the processor's coroutine: the
// reference the engine-side loop must match event for event.
func refSweep(p *Proc, n int, addr func(int) Addr, store bool, v uint64, think Duration) {
	for j := 0; j < n; j++ {
		if store {
			p.Store(addr(j), v)
		} else {
			p.Load(addr(j))
		}
		p.Think(think)
	}
}

// sweepFunc is Sweep or refSweep.
type sweepFunc func(p *Proc, n int, addr func(int) Addr, store bool, v uint64, think Duration)

// sweepCase is one randomized scenario: procs processors sweep over a
// table of shared words spread across the machine's modules, each round's
// length, stride, operation and think drawn from the processor's RNG. A
// processor may interrupt its neighbour before a round; the interrupt
// lands mid-sweep as often as not, and every other handler sweeps the
// table itself, nesting a run inside the one it interrupted.
type sweepCase struct {
	seed    uint64
	procs   int
	words   int
	rounds  int
	workers int // 0: serial engine, traced
}

// sweepRun is everything a case must reproduce exactly.
type sweepRun struct {
	finished [][]Time
	counters []InstrCounters
	events   uint64
	accesses []TraceEvent
}

// accessLog records the machine's memory accesses in emission order.
type accessLog struct{ evs []TraceEvent }

func (a *accessLog) Event(ev TraceEvent) {
	if ev.Kind == EvAccess {
		a.evs = append(a.evs, ev)
	}
}

func runSweepCase(c sweepCase, sweep sweepFunc) sweepRun {
	m := NewMachine(Config{Seed: c.seed, Workers: c.workers})
	log := &accessLog{}
	if c.workers == 0 {
		m.SetTracer(log)
	}
	table := make([]Addr, c.words)
	for i := range table {
		table[i] = m.Alloc(int(c.seed>>uint(i%32)%uint64(m.NumProcs())), 1)
	}
	// draw picks a sweep's shape from r and returns it ready to run.
	draw := func(r *RNG) (n int, addr func(int) Addr, store bool, think Duration) {
		n = r.Intn(24)
		off, stride := r.Intn(c.words), 1+r.Intn(3)
		store = r.Intn(2) == 0
		if r.Intn(3) > 0 {
			think = 1 + r.Duration(120)
		}
		return n, func(j int) Addr { return table[(off+j*stride)%c.words] }, store, think
	}
	r := sweepRun{finished: make([][]Time, c.procs)}
	for i := 0; i < c.procs; i++ {
		m.Go(i, func(p *Proc) {
			for k := 0; k < c.rounds; k++ {
				if p.RNG().Intn(3) == 0 {
					nested := p.RNG().Intn(2) == 0
					p.SendIPI((i+1)%c.procs, func(h *Proc) {
						h.Reg(2)
						if nested {
							n, addr, store, think := draw(h.RNG())
							sweep(h, n, addr, store, uint64(h.ID())<<8|1, think)
						} else {
							h.Think(h.RNG().Duration(200) + 1)
						}
					})
				}
				n, addr, store, think := draw(p.RNG())
				sweep(p, n, addr, store, uint64(i)<<8|uint64(k), think)
				r.finished[i] = append(r.finished[i], p.Now())
				p.Think(p.RNG().Duration(60))
			}
		})
	}
	d0, e0 := TotalEvents()
	m.RunAll()
	d1, e1 := TotalEvents()
	m.Shutdown()
	if c.workers == 0 {
		r.events = m.Eng.Processed()
	} else {
		// The LP engines are internal; their runs add to the process-wide
		// totals, and no other simulation runs in this test binary meanwhile.
		r.events = d1 - d0 + e1 - e0
	}
	for i := 0; i < c.procs; i++ {
		r.counters = append(r.counters, m.Procs[i].Counters())
	}
	r.accesses = log.evs
	return r
}

// TestSweepMatchesCoroutineLoop holds Sweep, which runs in engine context
// on the serial engine, to the coroutine loop it replaces: on random
// cases, both give the same finish times, instruction counters, engine
// event counts and (traced, on the serial engine) the same memory access
// sequence. The LP engine runs the loop on the coroutine, so its cases
// check that fallback at one and two workers.
func TestSweepMatchesCoroutineLoop(t *testing.T) {
	rng := NewRNG(0x5e3)
	for n := 0; n < 12; n++ {
		c := sweepCase{
			seed:   rng.Uint64(),
			procs:  2 + rng.Intn(15),
			words:  1 + rng.Intn(12),
			rounds: 3 + rng.Intn(4),
		}
		for _, workers := range []int{0, 1, 2} {
			c.workers = workers
			name := fmt.Sprintf("case%d/p%d/w%d/workers%d", n, c.procs, c.words, workers)
			t.Run(name, func(t *testing.T) {
				want, got := runSweepCase(c, refSweep), runSweepCase(c, (*Proc).Sweep)
				if !slices.EqualFunc(want.finished, got.finished, slices.Equal) {
					t.Fatalf("finish times differ:\nloop   %v\nSweep  %v", want.finished, got.finished)
				}
				if !slices.Equal(want.counters, got.counters) {
					t.Fatalf("instruction counters differ:\nloop   %v\nSweep  %v", want.counters, got.counters)
				}
				if want.events != got.events {
					t.Fatalf("engine processed %d events, the coroutine loop %d", got.events, want.events)
				}
				if !slices.Equal(want.accesses, got.accesses) {
					t.Fatalf("memory access sequences differ (%d vs %d accesses)", len(want.accesses), len(got.accesses))
				}
				if workers == 0 && len(got.accesses) == 0 {
					t.Fatal("traced run recorded no accesses")
				}
			})
		}
	}
}
