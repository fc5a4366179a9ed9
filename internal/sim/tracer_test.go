package sim

import "testing"

// collectTracer is a minimal in-package sink for machine-observation tests.
// (The Chrome exporter and its schema tests live in internal/trace.)
type collectTracer struct{ events []TraceEvent }

func (c *collectTracer) Event(ev TraceEvent) { c.events = append(c.events, ev) }

// TestTracerObservesMachine checks that a tracer installed on the machine
// sees memory accesses (with correct distance classes) and scheduling
// events from a real simulated program.
func TestTracerObservesMachine(t *testing.T) {
	m := NewMachine(Config{Seed: 1})
	tr := &collectTracer{}
	m.SetTracer(tr)

	local := m.Alloc(0, 1)   // proc 0's own module
	station := m.Alloc(1, 1) // same station (procs/station = 4)
	remote := m.Alloc(12, 1) // across the ring
	m.Go(0, func(p *Proc) {
		p.Store(local, 1)
		p.Load(station)
		p.Swap(remote, 7)
	})
	m.RunAll()
	m.Shutdown()

	want := map[string]DistClass{"store": DistLocal, "load": DistStation, "swap": DistRing}
	seen := map[string]bool{}
	for _, ev := range tr.events {
		if ev.Kind != EvAccess {
			continue
		}
		if ev.Proc != 0 {
			t.Errorf("access event from proc %d, want 0", ev.Proc)
		}
		if ev.End <= ev.Start {
			t.Errorf("%s access has non-positive duration [%v, %v]", ev.Name, ev.Start, ev.End)
		}
		if d, ok := want[ev.Name]; ok {
			if ev.Dist != d {
				t.Errorf("%s access dist = %v, want %v", ev.Name, ev.Dist, d)
			}
			seen[ev.Name] = true
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("no %s access event traced", name)
		}
	}
}

// TestTracerParkUnpark checks scheduling events are emitted for a processor
// that blocks on a memory watch and is woken by a write.
func TestTracerParkUnpark(t *testing.T) {
	m := NewMachine(Config{Seed: 2})
	tr := &collectTracer{}
	m.SetTracer(tr)
	flag := m.Alloc(0, 1)
	m.Go(1, func(p *Proc) {
		p.WaitLocal(flag, func(v uint64) bool { return v == 1 })
	})
	m.Go(2, func(p *Proc) {
		p.Think(Micros(5))
		p.Store(flag, 1)
	})
	m.RunAll()
	m.Shutdown()
	var parks, unparks int
	for _, ev := range tr.events {
		switch ev.Kind {
		case EvPark:
			parks++
		case EvUnpark:
			unparks++
		}
	}
	if parks == 0 || unparks == 0 {
		t.Fatalf("parks=%d unparks=%d, want both > 0", parks, unparks)
	}
}

// TestEmitSpanDistance checks the typed-span constructor fills src/dst and
// the distance class from the machine topology and round-trips kind names.
func TestEmitSpanDistance(t *testing.T) {
	m := NewMachine(Config{Seed: 3})
	tr := &collectTracer{}
	m.SetTracer(tr)
	m.EmitSpan(SpanLockWait, "wait x", 1, 10, 20, 14, 7) // proc 1, home 14: cross-ring
	m.EmitSpan(SpanFault, "vm.fault", 5, 30, 40, 6, 0)   // proc 5, home 6: same station
	m.EmitSpan(SpanRPC, "rpc.call", 2, 50, 60, -1, 0)    // no home

	if len(tr.events) != 3 {
		t.Fatalf("emitted %d events, want 3", len(tr.events))
	}
	ev := tr.events[0]
	if ev.Kind != EvSpan || ev.Span != SpanLockWait || ev.Src != 1 || ev.Dst != 14 || ev.Dist != DistRing || ev.Arg != 7 {
		t.Fatalf("span 0 = %+v, want lock.wait 1->14 ring arg 7", ev)
	}
	if tr.events[1].Dist != DistStation {
		t.Fatalf("span 1 dist = %v, want station", tr.events[1].Dist)
	}
	if tr.events[2].Dst != -1 {
		t.Fatalf("span 2 dst = %d, want -1", tr.events[2].Dst)
	}
}

// TestAllocBoundary is the regression test for the off-by-one in Alloc's
// address-space check: an allocation that exactly fills a module must
// succeed (the seed code rejected it), one word more must panic.
func TestAllocBoundary(t *testing.T) {
	// The check itself, at the exact boundary. Offset 0 is pre-burned, so a
	// module holds 1<<moduleShift - 1 allocatable words.
	cases := []struct {
		off, n uint64
		want   bool
	}{
		{1, 1<<moduleShift - 1, true}, // exact fill — rejected before the fix
		{1, 1 << moduleShift, false},  // one word past the end
		{1<<moduleShift - 1, 1, true}, // last single word
		{1<<moduleShift - 1, 2, false},
		{1 << moduleShift, 1, false},
	}
	for _, c := range cases {
		if got := offsetFits(c.off, c.n); got != c.want {
			t.Errorf("offsetFits(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}

	// End-to-end: an over-large allocation panics before reserving memory.
	m := NewMachine(Config{Seed: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Alloc past the module boundary did not panic")
			}
		}()
		m.Alloc(0, 1<<moduleShift) // off=1, so this exceeds by exactly one
	}()
	// A normal allocation still works afterwards and addresses stay sane.
	a := m.Alloc(0, 4)
	if a.Module() != 0 || a.offset() == 0 {
		t.Fatalf("Alloc after failed attempt returned bad address %#x", uint64(a))
	}
}
