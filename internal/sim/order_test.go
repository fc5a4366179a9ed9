package sim

import "testing"

// schedule reads a fuzz input one byte at a time; past its end it reads
// zeros, and every choice a zero byte makes ends the schedule.
type schedule struct {
	b []byte
	i int
}

func (s *schedule) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *schedule) done() bool { return s.i >= len(s.b) }

// delay maps a byte to a scheduling distance: a quarter of the values give
// zero and a quarter a few cycles, so many events share a time; a quarter
// fall inside the wheel's span and wrap its bucket array; a quarter fall
// past it, into the heap.
func (s *schedule) delay() Duration {
	b := s.next()
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return Duration(b >> 2 & 7)
	case 2:
		return Duration(b>>2) * 127
	default:
		return wheelSpan + Duration(b>>2)*257
	}
}

// orderCheck follows a run's dispatches and clock. Its checks run on
// processor coroutines as well as on the test's goroutine, so they report
// with Errorf (the first failure only) rather than Fatalf.
type orderCheck struct {
	t       *testing.T
	e       *Engine
	failed  bool
	until   Time   // bound of the Run in progress
	lastAt  Time   // due time of the last dispatched event
	lastSeq uint64 // and its sequence number
	lastNow Time   // the clock when last observed
	queued  int    // live events scheduled by the schedule
	ran     int    // and dispatched
}

// dispatched checks an event due at `at` with sequence number seq that
// is running now: on time, inside the Run bound, and after every event
// dispatched before it in (time, sequence) order.
func (c *orderCheck) dispatched(at Time, seq uint64) {
	switch {
	case c.e.now != at:
		c.errorf("event due at %d ran at %d", at, c.e.now)
	case at > c.until:
		c.errorf("event due at %d ran in Run(%d)", at, c.until)
	case at < c.lastAt || at == c.lastAt && seq <= c.lastSeq:
		c.errorf("event (%d, seq %d) ran after (%d, seq %d)", at, seq, c.lastAt, c.lastSeq)
	}
	c.lastAt, c.lastSeq = at, seq
	c.observe()
}

// observe checks that the clock never moves back, which an elided wake-up
// that skipped a queued event would make it do.
func (c *orderCheck) observe() {
	if c.e.now < c.lastNow {
		c.errorf("clock went back from %d to %d", c.lastNow, c.e.now)
	}
	c.lastNow = c.e.now
}

func (c *orderCheck) errorf(format string, args ...any) {
	if !c.failed {
		c.failed = true
		c.t.Errorf(format, args...)
	}
}

// maxScheduled bounds one input's events, so every input runs quickly.
const maxScheduled = 4096

// checkEventOrder runs the schedule an input describes on a 64-processor
// machine and checks that its events dispatch in (time, sequence) order.
// The input picks how many processors sleep (each a few times, for chosen
// delays) and how many closure events start the run; each closure may
// schedule further closures or daemons, and the driver alternates RunAll
// with Run to chosen bounds.
func checkEventOrder(t *testing.T, input []byte) {
	s := &schedule{b: input}
	m := NewMachine(Config{Stations: 8, ProcsPerStation: 8})
	e := m.Eng
	c := &orderCheck{t: t, e: e, until: ^Time(0)}
	scheduled := 0
	var add func(daemon bool)
	add = func(daemon bool) {
		if scheduled == maxScheduled {
			return
		}
		scheduled++
		at := e.now + s.delay()
		var seq uint64
		fn := func() {
			c.dispatched(at, seq)
			if daemon {
				if s.next()%4 == 3 {
					add(true) // an observer may only schedule observers
				}
				return
			}
			c.ran++
			for k := s.next() % 3; k > 0; k-- {
				add(s.next()%8 == 7)
			}
		}
		if daemon {
			e.AtDaemon(at, fn)
		} else {
			e.At(at, fn)
			c.queued++
		}
		seq = e.seq
	}

	procs := int(s.next() % 65)
	for i := 0; i < procs; i++ {
		m.Go(i, func(p *Proc) {
			for k := s.next() % 8; k > 0; k-- {
				d := s.delay()
				start, seq := e.now, e.seq
				p.Think(d)
				if e.now != start+d {
					c.errorf("proc %d slept from %d for %d, woke at %d", p.id, start, d, e.now)
				}
				if e.seq == seq {
					c.observe() // elided, or Think(0)
					continue
				}
				c.dispatched(start+d, seq+1)
				c.queued++
				c.ran++
			}
		})
	}
	for n := int(s.next()); n > 0; n-- {
		add(s.next()%8 == 7)
	}

	for e.Pending() > 0 {
		c.until = ^Time(0)
		if !s.done() && s.next()%4 != 0 {
			c.until = e.now + s.delay()
		}
		e.Run(c.until)
		if e.now > c.until {
			c.errorf("Run(%d) left the clock at %d", c.until, e.now)
		}
		if c.failed {
			return
		}
	}
	if c.ran != c.queued {
		t.Fatalf("%d of %d live events ran", c.ran, c.queued)
	}
	for _, p := range m.Procs[:procs] {
		if !p.finished {
			t.Fatalf("proc %d never finished", p.id)
		}
	}
}

// FuzzEventOrder checks the engine's dispatch order on random schedules of
// At, AtDaemon and processor wake-ups, with queues on both sides of the
// wheel's gate, times within and past its span, and Run(until)
// boundaries. `make fuzz-smoke` runs it for ten seconds; the checked-in
// corpus under testdata/fuzz runs with every `go test`.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 200, 7, 1, 2, 3, 255, 128, 77})
	f.Fuzz(checkEventOrder)
}

// TestWheelGate checks that an engine starts its wheel once its heap holds
// wheelGate events, after which near events queue in the wheel and far
// ones in the heap, and that the merged queue still dispatches in order.
func TestWheelGate(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < wheelGate-1; i++ {
		e.At(Time(i%7), func() { got = append(got, i) })
	}
	if e.wheel != nil {
		t.Fatalf("wheel started with %d events queued, below the gate", e.Pending())
	}
	e.At(3*wheelSpan, func() { got = append(got, -1) })
	if e.wheel == nil {
		t.Fatal("wheel did not start at the gate")
	}
	e.At(5, func() { got = append(got, wheelGate) })
	e.At(2*wheelSpan, func() { got = append(got, -2) })
	if e.wheel.n != 1 || len(e.events) != wheelGate+1 {
		t.Fatalf("wheel holds %d and heap %d events, want 1 and %d", e.wheel.n, len(e.events), wheelGate+1)
	}
	e.RunAll()
	var want []int
	for tm := 0; tm < 7; tm++ {
		for i := tm; i < wheelGate-1; i += 7 {
			want = append(want, i)
		}
		if tm == 5 {
			want = append(want, wheelGate)
		}
	}
	want = append(want, -2, -1)
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d was event %d, want %d (order %v)", i, got[i], want[i], got)
		}
	}
}
