package tune

import (
	"testing"
	"testing/quick"

	"hurricane/internal/sim"
)

// TestNextCapMonotoneInLoad pins the metamorphic property the tuner's
// trustworthiness rests on: for any previous cap, raising either pressure
// signal — home-module utilization or measured mean acquire wait — never
// yields a lower cap. Raising offered load raises both signals, so offered
// load can never lower the chosen backoff cap.
func TestNextCapMonotoneInLoad(t *testing.T) {
	p := Params{}.withDefaults()
	f := func(prevRaw uint32, a, b, wa, wb float64) bool {
		u1, u2 := normUtil(a), normUtil(b)
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		w1, w2 := normWait(wa), normWait(wb)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		prev := MinCap + sim.Duration(prevRaw)%(p.MaxCap-MinCap+1)
		return p.NextCap(prev, u2, w2) >= p.NextCap(prev, u1, w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// normUtil folds an arbitrary float into [0, 1.5] (utilization can exceed
// 1 transiently when service is queued into the future).
func normUtil(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1.5 {
		x /= 2
	}
	return x
}

// normWait folds an arbitrary float into [0, 4000] microseconds — past
// both ends of the cap range, so the quick checks cross every branch.
func normWait(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 4000 {
		x /= 2
	}
	return x
}

func TestNextCapClamps(t *testing.T) {
	p := Params{}.withDefaults()
	if got := p.NextCap(p.MaxCap, 1.0, 4000); got != p.MaxCap {
		t.Fatalf("cap above MaxCap: %v", got)
	}
	if got := p.NextCap(MinCap, 0.0, 0); got != MinCap {
		t.Fatalf("cap below MinCap: %v", got)
	}
	// A wait near the current cap holds it (the factor-of-two dead band),
	// even with the module idle.
	prev := sim.Micros(64)
	if got := p.NextCap(prev, 0.0, 64); got != prev {
		t.Fatalf("cap moved inside the dead band: %v", got)
	}
	// A wait far above the cap doubles it even with the module idle (the
	// moderate-contention regime Figure 5b rewards with longer caps).
	if got := p.NextCap(prev, 0.0, 1000); got != 2*prev {
		t.Fatalf("cap under wait pressure alone = %v, want %v", got, 2*prev)
	}
	// Saturation doubles the cap even when the wait alone would hold it.
	if got := p.NextCap(prev, 0.95, 64); got != 2*prev {
		t.Fatalf("cap under saturation = %v, want %v", got, 2*prev)
	}
	// A short wait shrinks an overshot cap even while the module sits
	// inside the mode-hysteresis band — only saturation pins the cap up.
	mid := (satLow + SatHigh) / 2
	if got := p.NextCap(prev, mid, 0); got != prev/2 {
		t.Fatalf("overshot cap did not decay below saturation: %v", got)
	}
	// At saturation the same short wait cannot shrink it.
	if got := p.NextCap(prev, SatHigh, 0); got != 2*prev {
		t.Fatalf("cap at saturation with short wait = %v, want %v", got, 2*prev)
	}
}

// TestCrossoverRequiresSaturationAtMaxCap: the spin→queue switch happens
// only when backing off further is impossible (cap already MaxCap) and the
// home module is still saturated — the "measured saturation threshold" of
// the paper's analysis, not a queue-length heuristic.
func TestCrossoverRequiresSaturationAtMaxCap(t *testing.T) {
	c := NewController(Params{}, 1)
	p := c.p
	// Saturated, but cap still climbing: stays in spin mode. (The smoothed
	// utilization takes a few windows to register the saturation at all —
	// the anti-flap lag — so bound the loop.)
	for i := 0; c.BackoffCap() < p.MaxCap; i++ {
		if c.Mode() != ModeSpin {
			t.Fatalf("crossed over at cap %v < MaxCap", c.BackoffCap())
		}
		c.Observe(Sample{HomeUtil: 0.95})
		if i > 100 {
			t.Fatal("cap never reached MaxCap under sustained saturation")
		}
	}
	// One more saturated window at MaxCap: cross over.
	c.Observe(Sample{HomeUtil: 0.95})
	if c.Mode() != ModeQueue {
		t.Fatal("did not cross over at MaxCap under saturation")
	}
	// Inside the hysteresis band: stays queued.
	c.Observe(Sample{HomeUtil: (satLow + SatHigh) / 2})
	if c.Mode() != ModeQueue {
		t.Fatal("left queue mode inside the hysteresis band")
	}
	// Sustained idle: back to spinning once the smoothed utilization falls
	// through satLow — and not on the first idle window (anti-flap).
	c.Observe(Sample{HomeUtil: 0.10})
	if c.Mode() != ModeQueue {
		t.Fatal("left queue mode on a single low window (no smoothing lag)")
	}
	for i := 0; c.Mode() != ModeSpin; i++ {
		c.Observe(Sample{HomeUtil: 0.10})
		if i > 20 {
			t.Fatal("did not return to spin mode under sustained idle")
		}
	}
	if c.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", c.Switches())
	}
}

// saturateToQueue drives a controller through sustained saturation until
// it crosses into queue mode, failing the test if it never does.
func saturateToQueue(t *testing.T, c *Controller, wait Counters) {
	t.Helper()
	for i := 0; c.Mode() != ModeQueue; i++ {
		c.Observe(Sample{HomeUtil: 0.95, Lock: wait})
		if i > 200 {
			t.Fatal("never crossed into queue mode under sustained saturation")
		}
	}
}

// TestModeSwitchResetsEWMAWindows pins the crossover-retreat fix: the wait
// samples accumulated under the old mode must not bleed into the first
// post-switch window. Before the fix, the decayed pre-switch wait mass
// (here ~1000us per acquisition) dominated the first queue-mode estimate
// and could bounce the controller straight back.
func TestModeSwitchResetsEWMAWindows(t *testing.T) {
	c := NewController(Params{}, 1)
	saturateToQueue(t, c, Counters{Acquisitions: 4, WaitCycles: sim.Micros(1000 * 4)})
	// First post-switch window: short waits under the new protocol.
	c.Observe(Sample{HomeUtil: 0.30, Lock: Counters{Acquisitions: 4, WaitCycles: sim.Micros(5 * 4)}})
	log := c.Log()
	got := log[len(log)-1].WaitUS
	if got != 5 {
		t.Fatalf("first post-switch wait estimate = %.1fus, want 5 (stale pre-switch samples bled in)", got)
	}
	// The utilization EWMA restarted from the neutral mid-band, not the
	// saturated pre-switch value.
	mid := (satLow + SatHigh) / 2
	if want := waitDecay*mid + (1-waitDecay)*0.30; log[len(log)-1].UtilEWMA != want {
		t.Fatalf("post-switch util EWMA = %.3f, want %.3f (restarted from mid-band)",
			log[len(log)-1].UtilEWMA, want)
	}
}

// TestHysteresisOneSwitchPerDwell alternates load hard enough that an
// un-dwelled controller would flap, and asserts the mode never switches
// twice within one dwell period.
func TestHysteresisOneSwitchPerDwell(t *testing.T) {
	c := NewController(Params{}, 1)
	saturateToQueue(t, c, Counters{})
	// Alternate saturated and idle phases, each shorter than the EWMA
	// horizon plus dwell, for many windows.
	for i := 0; i < 120; i++ {
		util := 0.95
		if (i/3)%2 == 1 {
			util = 0.02
		}
		c.Observe(Sample{HomeUtil: util})
	}
	log := c.Log()
	if uint64(len(log)) != c.samples {
		t.Fatalf("log holds %d of %d windows; a truncated log hides late switches", len(log), c.samples)
	}
	last, seen := -1, 0
	for i := 1; i < len(log); i++ {
		if log[i].Mode == log[i-1].Mode {
			continue
		}
		seen++
		if last >= 0 && i-last < DwellWindows {
			t.Fatalf("modes switched %d windows apart (< dwell %d): windows %d and %d",
				i-last, DwellWindows, last, i)
		}
		last = i
	}
	if seen == 0 {
		t.Fatal("alternating load produced no switches at all; the test is vacuous")
	}
}

// TestEscalatesToCohortUnderSustainedSaturation pins the third controller
// mode: when queue mode leaves the home module saturated on a multi-station
// machine AND the acquisition stream is mostly cross-station (the measured
// ring-traffic signal), the controller escalates to the hierarchical cohort
// shape; with mostly-local traffic or on a single-station machine it never
// does; and sustained idle walks the chain back down cohort → queue → spin.
func TestEscalatesToCohortUnderSustainedSaturation(t *testing.T) {
	// Saturated queue mode whose acquisitions nearly all cross the ring.
	remote := Counters{Acquisitions: 8, RemoteAcquisitions: 7}
	c := NewController(Params{}, 8)
	saturateToQueue(t, c, remote)
	for i := 0; c.Mode() != ModeCohort; i++ {
		c.Observe(Sample{HomeUtil: 0.95, Lock: remote})
		if i > 100 {
			t.Fatal("never escalated to cohort mode under sustained queue-mode saturation")
		}
	}
	if c.Switches() != 2 {
		t.Fatalf("switches = %d, want 2 (spin->queue->cohort)", c.Switches())
	}
	// Sustained idle: retreat all the way back to spin, one dwell at a time.
	for i := 0; c.Mode() != ModeSpin; i++ {
		c.Observe(Sample{HomeUtil: 0.02})
		if i > 100 {
			t.Fatalf("never retreated to spin mode (stuck in %v)", c.Mode())
		}
	}
	if c.Switches() != 4 {
		t.Fatalf("switches = %d, want 4 (cohort->queue->spin retreat)", c.Switches())
	}

	// Single-station machine: cohort mode is unreachable even with the
	// ring signal asserted.
	c1 := NewController(Params{}, 1)
	saturateToQueue(t, c1, remote)
	for i := 0; i < 50; i++ {
		c1.Observe(Sample{HomeUtil: 0.95, Lock: remote})
	}
	if c1.Mode() != ModeQueue {
		t.Fatalf("single-station controller left queue mode: %v", c1.Mode())
	}

	// Multi-station machine whose saturating traffic is station-local:
	// cohort batching would relieve nothing, so the measured ring fraction
	// must hold the controller in queue mode (the old static station-count
	// check would have escalated here).
	local := Counters{Acquisitions: 8, RemoteAcquisitions: 1}
	c2 := NewController(Params{}, 8)
	saturateToQueue(t, c2, local)
	for i := 0; i < 50; i++ {
		c2.Observe(Sample{HomeUtil: 0.95, Lock: local})
	}
	if c2.Mode() != ModeQueue {
		t.Fatalf("local-traffic controller left queue mode: %v", c2.Mode())
	}
}

// TestRingBoundEscalationWithIdleHomeModule pins the large-machine regime
// the NUMAchine-256 sweep exposed: in queue mode the ring serializes
// hand-offs while the home module idles, so utilization reads near zero
// for the whole episode. The controller must (a) hold queue mode through
// the dead windows where attempts arrive but nothing completes — a queue
// forming, not an idle lock — (b) escalate to cohort on the ring signal
// alone once the measured mean wait passes cohortWait, never dipping
// through spin, (c) hold cohort while waits stay above the hysteresis
// band even when station batching makes windows read all-local, and
// (d) retreat once waits genuinely collapse.
func TestRingBoundEscalationWithIdleHomeModule(t *testing.T) {
	c := NewController(Params{}, 16)
	saturateToQueue(t, c, Counters{})
	// Dead windows: waiters pile in (queue-head polls register attempts)
	// but nothing completes and the home module reads idle.
	for i := 0; i < 30; i++ {
		c.Observe(Sample{HomeUtil: 0.02, Lock: Counters{Attempts: 6}})
		if c.Mode() != ModeQueue {
			t.Fatalf("window %d: left queue mode during queue formation: %v", i, c.Mode())
		}
	}
	// Completions arrive, nearly all remote, with 2500us waits — past the
	// 2ms cohortWait and past any spin cap. The module still idles.
	long := Counters{Attempts: 6, Acquisitions: 4, RemoteAcquisitions: 4,
		WaitCycles: sim.Micros(2500 * 4)}
	for i := 0; c.Mode() != ModeCohort; i++ {
		c.Observe(Sample{HomeUtil: 0.05, Lock: long})
		if c.Mode() == ModeSpin {
			t.Fatal("retreated to spin under waits the backoff cap cannot absorb")
		}
		if i > 50 {
			t.Fatal("never escalated to cohort on the ring-bound signal")
		}
	}
	// Cohort holds while waits stay above cohortWait/2, even though station
	// batching now makes every window read all-local.
	held := Counters{Attempts: 6, Acquisitions: 4, WaitCycles: sim.Micros(1500 * 4)}
	for i := 0; i < 30; i++ {
		c.Observe(Sample{HomeUtil: 0.05, Lock: held})
	}
	if c.Mode() != ModeCohort {
		t.Fatalf("cohort retreated with waits above the hysteresis band: %v", c.Mode())
	}
	// Waits collapse to 10us and the attempt backlog drains: genuine calm.
	calm := Counters{Acquisitions: 2, WaitCycles: sim.Micros(10 * 2)}
	for i := 0; c.Mode() != ModeQueue; i++ {
		c.Observe(Sample{HomeUtil: 0.02, Lock: calm})
		if i > 50 {
			t.Fatal("never retreated from cohort after contention drained")
		}
	}
}

// TestCapDecaysToMinUnderIdle: a controller that saw load and then sees an
// idle module walks the cap back down to MinCap (the uncontended-latency
// half of the trade-off).
func TestCapDecaysToMinUnderIdle(t *testing.T) {
	c := NewController(Params{}, 1)
	for i := 0; i < 20; i++ {
		c.Observe(Sample{HomeUtil: 0.95})
	}
	if c.BackoffCap() != c.p.MaxCap {
		t.Fatalf("cap after sustained saturation = %v, want MaxCap", c.BackoffCap())
	}
	for i := 0; i < 20; i++ {
		c.Observe(Sample{HomeUtil: 0.0})
	}
	if c.BackoffCap() != MinCap {
		t.Fatalf("cap after sustained idle = %v, want MinCap", c.BackoffCap())
	}
	if c.Mode() != ModeSpin {
		t.Fatalf("mode after idle = %v, want spin", c.Mode())
	}
}

// TestCapTracksMeasuredWait: the cap converges to within a factor of two
// of the measured wait and then holds, without needing the module
// saturated — and a window with no completed acquisitions carries the
// estimate forward instead of reading as "no waiting".
func TestCapTracksMeasuredWait(t *testing.T) {
	c := NewController(Params{}, 1)
	waited := func(us float64) Sample {
		return Sample{HomeUtil: 0.30, Lock: Counters{
			Acquisitions: 4,
			WaitCycles:   sim.Micros(us * 4),
		}}
	}
	for i := 0; i < 12; i++ {
		c.Observe(waited(300))
	}
	got := c.BackoffCap()
	if got < sim.Micros(150) || got > sim.Micros(600) {
		t.Fatalf("cap = %v after steady 300us waits, want within 2x of 300us", got)
	}
	// An empty window (nothing completed) must not release the pressure.
	c.Observe(Sample{HomeUtil: 0.30})
	if c.BackoffCap() != got {
		t.Fatalf("cap moved on an empty window: %v -> %v", got, c.BackoffCap())
	}
}

// TestCapStableUnderBimodalWait reproduces the estimator hazard an unfair
// spin lock creates: windows alternate between long-waiter completions
// (~1400us) and lucky near-release winners (~5us). A per-window mean would
// flap the cap by 8x every window; the decayed estimator must converge and
// then hold the cap steady near the true mean wait.
func TestCapStableUnderBimodalWait(t *testing.T) {
	c := NewController(Params{}, 1)
	window := func(us float64) Sample {
		return Sample{HomeUtil: 0.30, Lock: Counters{
			Acquisitions: 3,
			WaitCycles:   sim.Micros(us * 3),
		}}
	}
	var caps []sim.Duration
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			c.Observe(window(1400))
		} else {
			c.Observe(window(5))
		}
		caps = append(caps, c.BackoffCap())
	}
	final := caps[len(caps)-1]
	if final < sim.Micros(256) {
		t.Fatalf("cap collapsed to %v under bimodal waits (true mean ~700us)", final)
	}
	for _, got := range caps[len(caps)-10:] {
		if got != final {
			t.Fatalf("cap still flapping in last 10 windows: %v vs %v", got, final)
		}
	}
}

// TestAttachSamplesUtilization drives a bare engine + resource and checks
// the sampler's windowed diffing, including dropping the window that
// straddles a ResetStats.
func TestAttachSamplesUtilization(t *testing.T) {
	eng := sim.NewEngine()
	res := &sim.Resource{Name: "module0"}
	c := NewController(Params{}, 1)
	var utils []float64
	// Shadow controller observation via the log.
	Attach(eng, res, func() Counters { return Counters{} }, c)
	// Window 1 [0,w]: w/2 busy cycles. Window 2 [w,2w]: reset at 1.5w.
	// Window 3 [2w,3w]: 0.3w busy cycles. w is the plane's default period.
	w := sim.Micros(100)
	eng.At(0, func() { res.Acquire(0, w/2) })
	eng.At(w+w*4/10, func() { res.Acquire(w+w*4/10, w/10) })
	eng.At(w+w/2, func() { res.ResetStats(w + w/2) })
	eng.At(2*w+w/10, func() { res.Acquire(2*w+w/10, w*3/10) })
	eng.At(3*w+1, func() {}) // keep the run alive through the third window
	eng.RunAll()
	for _, d := range c.Log() {
		utils = append(utils, d.HomeUtil)
	}
	if len(utils) != 2 {
		t.Fatalf("observed %d windows, want 2 (reset window dropped): %+v", len(utils), c.Log())
	}
	if utils[0] != 0.5 {
		t.Fatalf("window 1 utilization = %v, want 0.5", utils[0])
	}
	// Window 3 diffs from the resynchronized post-reset counter: 0.3w busy
	// cycles over [2w, 3w].
	if utils[1] != 30.0/100.0 {
		t.Fatalf("window 3 utilization = %v, want 0.3", utils[1])
	}
}

// TestAttachDiffsLockCounters checks the sampler hands the controller
// per-window lock counter diffs, not cumulative values.
func TestAttachDiffsLockCounters(t *testing.T) {
	eng := sim.NewEngine()
	res := &sim.Resource{Name: "module0"}
	c := NewController(Params{}, 1)
	cum := Counters{}
	Attach(eng, res, func() Counters { return cum }, c)
	eng.At(10, func() {
		cum = Counters{Attempts: 5, Acquisitions: 3, WaitCycles: 90}
	})
	w := sim.Micros(100) // the plane's default period
	eng.At(w+10, func() {
		cum = Counters{Attempts: 9, Acquisitions: 7, WaitCycles: 150}
	})
	eng.At(2*w+1, func() {})
	eng.RunAll()
	log := c.Log()
	if len(log) != 2 {
		t.Fatalf("observed %d windows, want 2", len(log))
	}
	// Window 1 wait estimate: 90 cycles / 3 acquisitions at 16 cycles/us —
	// proving the sampler fed the window diff, not the cumulative counters.
	if want := 90.0 / 3 / sim.CyclesPerMicrosecond; log[0].WaitUS != want {
		t.Fatalf("window 1 wait = %v, want %v", log[0].WaitUS, want)
	}
	// Window 2 diffs to 60 cycles / 4 acquisitions, blended into the decayed
	// estimator: (0.75*90+60)/(0.75*3+4) cycles.
	if want := (0.75*90 + 60) / (0.75*3 + 4) / sim.CyclesPerMicrosecond; log[1].WaitUS != want {
		t.Fatalf("window 2 wait = %v, want %v", log[1].WaitUS, want)
	}
}

// TestControllerReportRendering sanity-checks the text report.
func TestControllerReportRendering(t *testing.T) {
	c := NewController(Params{}, 1)
	c.Observe(Sample{Now: 100, HomeUtil: 0.9, Lock: Counters{Attempts: 10}})
	s := c.Report()
	if s == "" || c.samples != 1 {
		t.Fatalf("empty report or samples=%d", c.samples)
	}
}
