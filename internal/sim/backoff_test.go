package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refBackoffSwap is BackoffSwap's serial-engine step written out on the
// processor's coroutine: a failed swap issues, and one sleep runs from its
// issue to fetch return + branch + the next backoff, ending in the poll's
// one interrupt check. It is the reference the engine-side loop must match
// event for event.
func refBackoffSwap(p *Proc, a Addr, initial, maxDelay Duration) {
	delay := initial
	p.Think(delay/2 + p.rng.Duration(delay/2+1))
	for {
		p.counters.Atomic++
		old, done, _ := p.mem.access(p, a, accSwap, 1, 0)
		if old == 0 {
			p.sleepUntil(done)
			p.checkIRQ()
			p.Branch(1)
			return
		}
		p.counters.Branch++
		delay = min(2*delay, maxDelay)
		p.sleepUntil(done + p.mem.lat.Branch + delay/2 + p.rng.Duration(delay/2+1))
		p.checkIRQ()
	}
}

// backoffFunc is BackoffSwap or refBackoffSwap.
type backoffFunc func(p *Proc, a Addr, initial, maxDelay Duration)

// spinAcquire is the paper's Figure 3c lock as locks.Spin writes it: one
// swap, and on failure backoff with a one-microsecond initial delay.
func spinAcquire(p *Proc, lock Addr, max Duration, backoff backoffFunc) {
	p.Reg(1)
	if p.Swap(lock, 1) == 0 {
		p.Branch(2)
		return
	}
	p.Branch(2)
	backoff(p, lock, Micros(1), max)
}

// spinRelease is locks.Spin's release: a swap of 0 and a return.
func spinRelease(p *Proc, lock Addr) {
	p.Swap(lock, 0)
	p.Branch(1)
}

// numachine64 is machine.NUMAchine64, which tests here cannot import (the
// machine package imports sim).
func numachine64(seed uint64) Config {
	lat := DefaultLatency()
	lat.Local, lat.Station, lat.Ring = 20, 60, 90
	lat.ModuleService, lat.AtomicExtra, lat.IPI = 12, 6, 60
	return Config{Stations: 8, ProcsPerStation: 8, Seed: seed, HasCAS: true, Lat: lat}
}

// numachine256 is machine.NUMAchine256: numachine64's latencies on 32
// stations, 4 to a local ring, with a 150-cycle global-ring crossing.
func numachine256(seed uint64) Config {
	c := numachine64(seed)
	c.Stations, c.StationsPerRing, c.Lat.Ring2 = 32, 4, 150
	return c
}

// spinCase is one randomized contention scenario. Processor i sends an
// interrupt to processor i+1 before its rounds listed in ipiRounds[i]; the
// handler computes briefly, so it lands mid-poll as often as not.
type spinCase struct {
	seed      uint64
	procs     int
	hold, gap Duration
	max       Duration
	rounds    int
	ipiRounds [][]int
}

// spinRun is everything a case must reproduce exactly.
type spinRun struct {
	acquired [][]Time
	counters []InstrCounters
	events   uint64
	accesses []TraceEvent
}

func runSpinCase(c spinCase, backoff backoffFunc) spinRun {
	cfg := Config{Stations: 4, ProcsPerStation: 4, Seed: c.seed}
	if c.procs > 16 {
		cfg = numachine64(c.seed)
	}
	m := NewMachine(cfg)
	log := &accessLog{}
	m.SetTracer(log)
	lock := m.Alloc(m.NumProcs()-1, 1)
	r := spinRun{acquired: make([][]Time, c.procs)}
	for i := 0; i < c.procs; i++ {
		m.Go(i, func(p *Proc) {
			for k := 0; k < c.rounds; k++ {
				if slices.Contains(c.ipiRounds[i], k) {
					p.SendIPI((i+1)%c.procs, func(h *Proc) {
						h.Reg(3)
						h.Think(h.RNG().Duration(Micros(4)) + 1)
					})
				}
				spinAcquire(p, lock, c.max, backoff)
				r.acquired[i] = append(r.acquired[i], p.Now())
				p.Think(c.hold)
				spinRelease(p, lock)
				p.Think(p.RNG().Duration(c.gap + 1))
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	r.events = m.Eng.Processed()
	for i := 0; i < c.procs; i++ {
		r.counters = append(r.counters, m.Procs[i].Counters())
	}
	r.accesses = log.evs
	return r
}

// checkSpinRuns fails t unless got reproduces want exactly.
func checkSpinRuns(t *testing.T, want, got spinRun) {
	t.Helper()
	if !slices.EqualFunc(want.acquired, got.acquired, slices.Equal) {
		t.Fatalf("acquisition times differ:\nloop         %v\nBackoffSwap  %v", want.acquired, got.acquired)
	}
	if !slices.Equal(want.counters, got.counters) {
		t.Fatalf("instruction counters differ:\nloop         %v\nBackoffSwap  %v", want.counters, got.counters)
	}
	if want.events != got.events {
		t.Fatalf("engine processed %d events, the coroutine loop %d", got.events, want.events)
	}
	if !slices.Equal(want.accesses, got.accesses) {
		t.Fatalf("memory access sequences differ (%d vs %d accesses)", len(want.accesses), len(got.accesses))
	}
	if len(got.accesses) == 0 {
		t.Fatal("traced run recorded no accesses")
	}
}

// TestBackoffSwapMatchesStepLoop holds BackoffSwap on the serial engine to
// refBackoffSwap: on random cases, both give the same acquisition times,
// instruction counters, engine event counts and memory access sequence.
// The cases are those that locks.TestSpinMatchesCoroutineLoop runs on the
// LP engine, whose fallback is the per-instruction loop.
func TestBackoffSwapMatchesStepLoop(t *testing.T) {
	rng := NewRNG(0x5b1)
	caps := []Duration{Micros(35), Micros(2000)}
	for n := 0; n < 12; n++ {
		c := spinCase{
			seed:   rng.Uint64(),
			procs:  []int{2, 16, 64}[n%3],
			hold:   Duration(rng.Intn(int(Micros(40)))),
			gap:    Duration(rng.Intn(int(Micros(20)))),
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
		t.Run(fmt.Sprintf("case%d/p%d/cap%gus", n, c.procs, c.max.Microseconds()), func(t *testing.T) {
			checkSpinRuns(t, runSpinCase(c, refBackoffSwap), runSpinCase(c, (*Proc).BackoffSwap))
		})
	}
}

// TestBackoffSwapIRQBeforeBackoff lands an interrupt between a failed
// swap's issue and its fetch return. The handler must run at the end of
// that poll's step, when the swap after it would have issued, and before
// that swap; its own contended acquire draws from the same RNG, and the
// outer loop must go on with the delay and RNG position of the reference.
func TestBackoffSwapIRQBeforeBackoff(t *testing.T) {
	const polled = 3 // the interrupted poll: processor 0's third on A, after its try
	type run struct {
		spinRun
		swapsA                []TraceEvent // processor 0's swaps on A
		handlerIn, handlerOut Time
	}
	scenario := func(backoff backoffFunc, irqAt Time) run {
		m := NewMachine(Config{Seed: 7})
		log := &accessLog{}
		m.SetTracer(log)
		a, b := m.Alloc(15, 1), m.Alloc(14, 1)
		var r run
		m.Go(1, func(p *Proc) {
			spinAcquire(p, a, Micros(35), backoff)
			p.Think(Micros(300))
			spinRelease(p, a)
		})
		m.Go(2, func(p *Proc) {
			spinAcquire(p, b, Micros(35), backoff)
			p.Think(Micros(150))
			spinRelease(p, b)
		})
		m.Go(0, func(p *Proc) {
			p.Think(Micros(10)) // processor 1 takes A first
			spinAcquire(p, a, Micros(35), backoff)
			r.acquired = [][]Time{{p.Now()}}
			spinRelease(p, a)
		})
		if irqAt != 0 {
			m.Eng.At(irqAt, func() {
				m.Procs[0].postIRQ(func(h *Proc) {
					r.handlerIn = h.Now()
					spinAcquire(h, b, Micros(35), backoff)
					h.Think(Micros(5))
					spinRelease(h, b)
					r.handlerOut = h.Now()
				})
			})
		}
		m.RunAll()
		r.events = m.Eng.Processed()
		for _, p := range m.Procs {
			r.counters = append(r.counters, p.Counters())
		}
		r.accesses = log.evs
		for _, ev := range log.evs {
			if ev.Proc == 0 && ev.Name == "swap" && Addr(ev.Arg) == a {
				r.swapsA = append(r.swapsA, ev)
			}
		}
		return r
	}

	probe := scenario((*Proc).BackoffSwap, 0)
	if len(probe.swapsA) <= polled+1 {
		t.Fatalf("processor 0 swapped A %d times, want more than %d", len(probe.swapsA), polled+1)
	}
	// Swap 0 is the try; swap polled is a failed poll with another after it.
	issue, fetched := probe.swapsA[polled].Start, probe.swapsA[polled].End
	stepEnd := probe.swapsA[polled+1].Start
	irqAt := issue + (fetched-issue)/2
	if irqAt <= issue || irqAt >= fetched {
		t.Fatalf("swap %d spans [%v, %v]: no instant strictly inside it", polled, issue, fetched)
	}

	want, got := scenario(refBackoffSwap, irqAt), scenario((*Proc).BackoffSwap, irqAt)
	checkSpinRuns(t, want.spinRun, got.spinRun)
	if want.handlerIn != got.handlerIn || want.handlerOut != got.handlerOut {
		t.Fatalf("handler ran [%v, %v], the coroutine loop's [%v, %v]",
			got.handlerIn, got.handlerOut, want.handlerIn, want.handlerOut)
	}
	if got.handlerIn != stepEnd {
		t.Fatalf("handler started at %v, want the interrupted step's end %v (fetch returned at %v)",
			got.handlerIn, stepEnd, fetched)
	}
	if len(got.swapsA) <= polled+1 {
		t.Fatalf("processor 0 swapped A %d times after the interrupt, want more than %d", len(got.swapsA), polled+1)
	}
	if next := got.swapsA[polled+1].Start; next < got.handlerOut {
		t.Fatalf("processor 0 swapped A at %v, before its handler returned at %v", next, got.handlerOut)
	}
	contended := 0
	for _, ev := range got.accesses {
		if ev.Proc == 0 && ev.Name == "swap" && ev.Start >= got.handlerIn && ev.End <= got.handlerOut {
			contended++
		}
	}
	if contended < 3 { // the failed try, the winning poll and the release
		t.Fatalf("the handler swapped B %d times: its acquire was not contended", contended)
	}
}
