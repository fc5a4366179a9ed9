package tune

import (
	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
)

// Sampler is the controller's observation hook as an autonomic policy:
// each Tick samples the home module's utilization over the elapsed window
// plus the lock's cumulative counters (via probe, read at zero simulated
// cost) and feeds the windowed diff to the controller. It neither consumes
// simulated time nor keeps the run alive — determinism is preserved, and
// the only feedback path into the simulation is the constants the
// controller publishes.
//
// Resource statistics are windowed (experiments call ResetStats mid-run to
// open a measurement window), so the sampler diffs the cumulative busy
// counter and resynchronizes whenever it observes the counter move
// backwards: the window that straddles a reset is dropped rather than
// mis-measured. Lock counters are monotone and need no such handling.
type Sampler struct {
	c     *Controller
	home  *sim.Resource
	probe func() Counters

	lastBusy sim.Duration
	lastTime sim.Time
	last     Counters
}

// NewSampler builds a sampler for controller c over the lock's home-module
// resource; it snapshots the counters now, so the first window starts at
// construction time.
func NewSampler(home *sim.Resource, probe func() Counters, c *Controller) *Sampler {
	return &Sampler{c: c, home: home, probe: probe, lastBusy: home.Busy, last: probe()}
}

// Name implements autonomic.Policy.
func (s *Sampler) Name() string { return "tune" }

// Tick implements autonomic.Policy: one observation window.
func (s *Sampler) Tick(now sim.Time) {
	busy := s.home.Busy
	cur := s.probe()
	defer func() {
		s.lastBusy, s.lastTime = busy, now
		s.last = cur
	}()
	if busy < s.lastBusy || now <= s.lastTime {
		// A ResetStats landed inside this window; skip it.
		return
	}
	s.c.Observe(Sample{
		Now:      now,
		HomeUtil: float64(busy-s.lastBusy) / float64(now-s.lastTime),
		Lock: Counters{
			Attempts:           cur.Attempts - s.last.Attempts,
			Acquisitions:       cur.Acquisitions - s.last.Acquisitions,
			WaitCycles:         cur.WaitCycles - s.last.WaitCycles,
			RemoteAcquisitions: cur.RemoteAcquisitions - s.last.RemoteAcquisitions,
		},
	})
}

// Attach wires a Controller to a machine: its sampler registers on
// Params.Plane, the shared autonomics plane (one daemon cadence ticks
// every policy in phase order), or, when the lock has none, on a plane of
// its own at the default period, started on eng.
func Attach(eng *sim.Engine, home *sim.Resource, probe func() Counters, c *Controller) {
	s := NewSampler(home, probe, c)
	if pl := c.p.Plane; pl != nil {
		pl.Add(s)
		return
	}
	pl := autonomic.NewPlane(0)
	pl.Add(s)
	pl.Start(eng)
}
