package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineTiesBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
	})
	e.RunAll()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", got)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(21, func() { fired++ })
	n := e.Run(20)
	if n != 2 || fired != 2 {
		t.Fatalf("Run(20) fired %d events, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("RunAll did not fire the remaining event")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.RunAll()
}

func TestEventHeapPropertyOrdered(t *testing.T) {
	// Property: for any set of event times, dispatch order is sorted by
	// time with ties in insertion order.
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			t   Time
			seq int
		}
		var got []rec
		for i, tm := range times {
			i, tm := i, Time(tm)
			e.At(tm, func() { got = append(got, rec{tm, i}) })
		}
		e.RunAll()
		for i := 1; i < len(got); i++ {
			if got[i].t < got[i-1].t {
				return false
			}
			if got[i].t == got[i-1].t && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeMicroseconds(t *testing.T) {
	if got := Time(16).Microseconds(); got != 1.0 {
		t.Fatalf("16 cycles = %v us, want 1", got)
	}
	if got := Micros(25); got != 400 {
		t.Fatalf("Micros(25) = %v cycles, want 400", got)
	}
	if s := Time(40).String(); s != "2.500us" {
		t.Fatalf("String = %q", s)
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
	seen := make(map[int]bool)
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Intn(8) never produced all values: %v", seen)
	}
	if NewRNG(1).Duration(0) != 0 {
		t.Fatal("Duration(0) != 0")
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	if s := r.Acquire(100, 10); s != 100 {
		t.Fatalf("idle acquire start = %v, want 100", s)
	}
	if s := r.Acquire(105, 10); s != 110 {
		t.Fatalf("queued acquire start = %v, want 110", s)
	}
	if s := r.Acquire(200, 10); s != 200 {
		t.Fatalf("late acquire start = %v, want 200", s)
	}
	if r.Requests != 3 || r.Busy != 30 {
		t.Fatalf("stats: requests=%d busy=%d", r.Requests, r.Busy)
	}
	if r.MaxQueue != 5 {
		t.Fatalf("MaxQueue = %d, want 5", r.MaxQueue)
	}
	if u := r.Utilization(0, 300); u != 0.1 {
		t.Fatalf("utilization = %v, want 0.1", u)
	}
	if u := r.WindowUtilization(300); u != 0.1 {
		t.Fatalf("window utilization = %v, want 0.1", u)
	}
	r.ResetStats(300)
	if r.Requests != 0 || r.Busy != 0 || r.MaxQueue != 0 || r.Queued != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if r.busyUntil != 210 {
		t.Fatalf("ResetStats must not clear timing state: busyUntil=%v", r.busyUntil)
	}
	if r.windowStart != 300 {
		t.Fatalf("WindowStart = %v, want 300", r.windowStart)
	}
}

// TestResourceWindowedUtilization is the regression test for the warm-up
// reset bug: before the fix, Utilization after ResetStats divided the
// window-local busy time by time since 0, under-reporting utilization by
// the warm-up fraction.
func TestResourceWindowedUtilization(t *testing.T) {
	var r Resource
	// Warm-up: 1000 cycles of activity in [0, 1000].
	r.Acquire(0, 1000)
	r.ResetStats(1000)
	// Measurement window [1000, 2000]: 500 busy cycles => 50% utilization.
	r.Acquire(1000, 250)
	r.Acquire(1500, 250)
	if got, want := r.WindowUtilization(2000), 0.5; got != want {
		t.Fatalf("windowed utilization after reset = %v, want %v (dividing by total elapsed time would give 0.25)", got, want)
	}
	if got := r.Utilization(r.windowStart, 2000); got != 0.5 {
		t.Fatalf("Utilization(windowStart, now) = %v, want 0.5", got)
	}
	if r.Requests != 2 {
		t.Fatalf("window Requests = %d, want 2", r.Requests)
	}
}

// TestResourceResetCarriesInFlightService checks that a reset issued while
// a request is still being serviced credits the remaining service time to
// the new window instead of dropping it.
func TestResourceResetCarriesInFlightService(t *testing.T) {
	var r Resource
	r.Acquire(0, 100) // busy through t=100
	r.ResetStats(50)  // reset mid-service
	// Window [50, 100] is fully busy with the in-flight request.
	if got := r.WindowUtilization(100); got != 1.0 {
		t.Fatalf("in-flight service lost: utilization = %v, want 1.0", got)
	}
}

func TestResourcePropertyNoOverlap(t *testing.T) {
	// Property: service intervals never overlap and starts are monotone for
	// monotone arrivals.
	f := func(arrivals []uint8) bool {
		var r Resource
		at := Time(0)
		lastEnd := Time(0)
		for _, d := range arrivals {
			at += Time(d)
			start := r.Acquire(at, 7)
			if start < at || start < lastEnd {
				return false
			}
			lastEnd = start + 7
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDaemonEventsDoNotKeepRunAlive checks the observer-hook
// contract: a self-rescheduling daemon samples while live events run, but
// RunAll still terminates (daemons are discarded once only they remain).
func TestEngineDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	var samples []Time
	e.Every(10, func(now Time) { samples = append(samples, now) })
	done := false
	e.At(35, func() { done = true })
	e.RunAll()
	if !done {
		t.Fatal("live event did not run")
	}
	// Samples at 10, 20, 30; the tick at 40 is past the last live event.
	if len(samples) != 3 || samples[0] != 10 || samples[2] != 30 {
		t.Fatalf("samples = %v, want [10 20 30]", samples)
	}
	if e.Pending() != 0 {
		t.Fatalf("daemons left pending after RunAll: %d", e.Pending())
	}
	if e.Now() != 35 {
		t.Fatalf("clock = %v, want 35 (daemons must not advance past the last live event)", e.Now())
	}
}

// TestEngineDaemonOrderingDeterministic checks daemons interleave with live
// events in (time, sequence) order like everything else.
func TestEngineDaemonOrderingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var got []string
		e.At(10, func() { got = append(got, "live10") })
		e.AtDaemon(10, func() { got = append(got, "daemon10") })
		e.At(20, func() { got = append(got, "live20") })
		e.RunAll()
		return got
	}
	a, b := run(), run()
	want := []string{"live10", "daemon10", "live20"}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("daemon ordering: %v / %v, want %v", a, b, want)
		}
	}
}

// TestEngineDaemonOnlyQueueDrainsImmediately: with no live work at all, a
// periodic daemon must not spin the clock forever.
func TestEngineDaemonOnlyQueueDrainsImmediately(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Every(5, func(Time) { fired++ })
	if n := e.RunAll(); n != 0 {
		t.Fatalf("daemon-only RunAll dispatched %d events, want 0", n)
	}
	if fired != 0 || e.Pending() != 0 {
		t.Fatalf("daemon fired %d times, pending %d; want 0/0", fired, e.Pending())
	}
}
