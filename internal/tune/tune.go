// Package tune closes the feedback loop the paper leaves open: instead of
// hard-coding the backoff cap (the kernel's 35us) and the spin-vs-queue
// choice per lock, a Controller consumes the windowed telemetry PR 1 built
// — home-module utilization from sim.Resource windows and per-lock
// acquire-latency and fast-path counters — and adjusts the constants at
// runtime.
//
// The policy follows the paper's §2.1/§4.2 analysis with one measured
// refinement. Two signals drive the backoff cap:
//
//   - The windowed mean acquire latency. A spinner's useful poll rate is
//     set by how long it actually waits — Figure 5b's sweep shows the best
//     fixed cap grows with contention roughly like the wait itself — so
//     the cap multiplicatively tracks the measured wait, staying within a
//     factor of two of the target. This is what lets one
//     lock match the best fixed cap at every contention level.
//
//   - The home module's measured utilization. Spinning remote to a lock's
//     home module steals memory bandwidth from the holder (§2.1), so a
//     saturated module forces the cap up regardless of wait, and when even
//     the maximum cap cannot bring the module out of saturation the
//     controller crosses over from test-and-set spinning to a queue lock,
//     where waiters spin locally and the home module carries only
//     hand-offs.
//
// The controller is deterministic by construction: it observes only at
// daemon sampling events (sim.Engine.Every), which are ordered by the same
// (time, sequence) discipline as all simulation events and consume no
// simulated time, so attaching a tuner changes nothing about a run except
// through the decisions it publishes.
//
// This package, trace/placement's online Daemon, and the autonomic
// Replicator are three instances of one controller pattern, built on the
// shared signal and decision pieces of internal/autonomic: sample at a
// fixed cadence on an autonomic.Plane (shared, or the lock's own), smooth
// the windowed signal (decayed ratios and an EWMA, all at 0.75 retention —
// NUMA traffic and lock waits are equally bursty per window), and act only
// past a threshold with hysteresis (the utilization saturation/relief band
// here; the cost-improvement indifference band plus confirmation streak
// there; the write-fraction band in the replicator). The difference is the
// actuator: this controller publishes constants (backoff cap, lock mode),
// which are free to change, while the placement daemon and replicator move
// or copy kernel data, which charges real traffic — hence their extra
// payback and budget guards.
package tune

import (
	"fmt"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
)

// Mode is the lock shape the controller has currently chosen.
type Mode int

const (
	// ModeSpin: contenders poll the lock word with capped exponential
	// backoff — lowest latency while the home module has headroom.
	ModeSpin Mode = iota
	// ModeQueue: contenders enqueue and spin locally; only the queue head
	// polls the word — the distributed-lock regime past saturation.
	ModeQueue
	// ModeCohort: contenders serialize through a hierarchical cohort lock
	// whose grants batch by station — the regime where even local-spin
	// queueing leaves the home module saturated because every hand-off
	// crosses the ring. Only reachable on machines with more than one
	// station.
	ModeCohort
)

// String names the mode for reports and table rows.
func (m Mode) String() string {
	switch m {
	case ModeQueue:
		return "queue"
	case ModeCohort:
		return "cohort"
	}
	return "spin"
}

// The controller's fixed thresholds. HURRICANE ran its kernel locks on a
// few fixed constants (the 35us backoff cap); the tuner moves the cap and
// the lock shape at run time, but the bounds and bands it moves them within
// are fixed here.
const (
	// SatHigh is the smoothed home-module utilization at or above which the
	// module counts as saturating: the cap doubles, and if the cap is
	// already at MaxCap the lock crosses over to queue mode. 0.70 sits
	// between the holder-only baseline and the ~1.0 a saturated small-cap
	// spin lock measures.
	SatHigh = 0.70
	// satLow is the utilization below which a queue-mode lock returns to
	// spinning. The [satLow, SatHigh] gap is the mode hysteresis band.
	satLow = 0.45
	// MinCap is the floor of the backoff cap (8us), the low end of the
	// paper's own Figure 5 sweep; MaxCap's 2ms default is the other.
	MinCap sim.Duration = 8 * sim.CyclesPerMicrosecond
	// minHead and maxHead clamp the queue head's polling backoff in queue
	// mode.
	minHead sim.Duration = 2 * sim.CyclesPerMicrosecond
	maxHead sim.Duration = 64 * sim.CyclesPerMicrosecond
	// cohortRingFrac is the smoothed cross-station acquisition fraction
	// above which a saturated queue-mode lock escalates to cohort mode. The
	// fraction is measured ring traffic — the share of acquisitions
	// arriving from stations other than the lock's home — so the escalation
	// fires only when ring-crossing hand-offs really are the traffic, not
	// merely because the machine has stations to spare.
	cohortRingFrac = 0.5
	// cohortWait is the ring-bound escalation threshold (2ms, the
	// unconstrained spin stance's largest backoff): in queue mode, a
	// smoothed mean acquire wait at or above it while ring traffic exceeds
	// cohortRingFrac escalates to cohort mode even though the home module
	// looks idle. On a large machine the ring serializes hand-offs while the
	// home module sleeps, so the utilization signal alone reads that regime
	// as "contention gone" and thrashes queue<->spin. It is an absolute
	// duration, deliberately not tied to MaxCap: a latency-bounded
	// deployment clamps MaxCap far below any wait that should force the
	// cohort shape.
	cohortWait sim.Duration = 2000 * sim.CyclesPerMicrosecond
	// DwellWindows is the minimum number of observation windows between
	// mode switches (the EWMA horizon). A switch resets the smoothed
	// signals, and the dwell holds the new mode until the fresh windows can
	// speak, so stale pre-switch samples can never bounce the mode straight
	// back.
	DwellWindows = 4
)

// Params bounds the controller. The zero value takes defaults.
type Params struct {
	// MaxCap clamps the backoff cap from above (default 2ms — with MinCap,
	// the two ends of the paper's own Figure 5 sweep).
	MaxCap sim.Duration
	// Plane, when non-nil, registers the controller's sampler on the shared
	// autonomics plane instead of a plane of its own (Attach): the plane's
	// single cadence then ticks it alongside the placement and replication
	// policies, so each phase observes the others' actions.
	Plane *autonomic.Plane
}

func (p Params) withDefaults() Params {
	if p.MaxCap == 0 {
		p.MaxCap = sim.Micros(2000)
	}
	return p
}

// waitDecay is the per-window retention of the decayed wait sums and the
// utilization EWMA (a ~4 window horizon); waitDenFloor is the decayed-
// acquisition mass below which the wait estimate is frozen rather than
// computed from noise.
const (
	waitDecay    = 0.75
	waitDenFloor = 0.5
)

// logLimit bounds the retained decision log: Log and Report see only the
// first logLimit windows of a run.
const logLimit = 256

// Counters is the cumulative per-lock telemetry a sampling hook reads;
// the sampler diffs successive snapshots into per-window Samples. All
// counters must be monotone non-decreasing.
type Counters struct {
	// Attempts counts fast-path swaps.
	Attempts uint64
	// Acquisitions counts completed Acquire calls.
	Acquisitions uint64
	// WaitCycles accumulates the total acquire latency of those
	// acquisitions, in cycles.
	WaitCycles sim.Duration
	// RemoteAcquisitions counts the subset of Acquisitions made by
	// processors on a different station than the lock's home — the
	// ring-traffic signal the queue→cohort escalation feeds on.
	RemoteAcquisitions uint64
}

// Sample is one observation window delivered to Observe: the home module's
// utilization over the window plus the lock's own windowed counters.
type Sample struct {
	// Now is the sampling time.
	Now sim.Time
	// HomeUtil is the home module's busy fraction over the window.
	HomeUtil float64
	// Lock is the lock telemetry accumulated over the window.
	Lock Counters
}

// Decision is the controller's state after one observation, for reports.
// HomeUtil is the raw window measurement; UtilEWMA is the smoothed value
// the decision was actually taken on.
type Decision struct {
	// At is the simulated time of the observation window's end.
	At sim.Time
	// HomeUtil is the window's raw home-module utilization.
	HomeUtil float64
	// UtilEWMA is the smoothed utilization the decision used.
	UtilEWMA float64
	// WaitUS is the per-acquisition wait estimate, in microseconds.
	WaitUS float64
	// RingFrac is the smoothed cross-station acquisition fraction.
	RingFrac float64
	// Cap is the spin backoff cap in force after the decision.
	Cap sim.Duration
	// Head is the backoff head start in force after the decision.
	Head sim.Duration
	// Mode is the lock shape in force after the decision.
	Mode Mode
}

// Controller adapts one lock's constants from measured utilization. All
// methods are called from simulation context (engine or proc), which is
// single-threaded, so no synchronization is needed — and none is wanted:
// the controller's reads are the zero-cost observation the sampling hook
// promises.
type Controller struct {
	p Params
	// stations is the machine's station count: cohort mode only exists on
	// hierarchical machines, so it is reachable only past one station.
	stations int
	mode     Mode
	cap      sim.Duration
	head     sim.Duration
	// wait is the decayed ratio of windowed wait cycles to completed
	// acquisitions. Under an unfair spin lock the per-window mean is
	// bimodal — windows where only lucky near-release winners complete
	// read a few microseconds while the true long-waiters are still
	// pending — so a single window is a biased estimator. Decaying both
	// sums weights each completion by its actual wait, smooths the
	// alternation, and the floor leaves the ratio untouched (frozen)
	// across windows in which nothing completes.
	wait autonomic.DecayedRatio
	// ring decays remote over total acquisitions on the same horizon — the
	// measured share of acquisitions arriving from off-home stations, the
	// queue→cohort escalation signal.
	ring autonomic.DecayedRatio
	// att decays windowed lock attempts over the same horizon. Its job is
	// to tell "idle" apart from "wedged": a queue forming behind a convoy
	// shows polling attempts with no completed acquisitions, while a
	// genuinely idle lock shows neither — only the latter may walk the
	// mode chain back down.
	att autonomic.DecayedSum
	// util smooths home-module utilization over the same horizon. Windowed
	// spin-lock utilization is bimodal too: each completed acquisition
	// restarts the winner's backoff at 1us, so windows catching a restart
	// burst read near saturation while their neighbors read the long-cap
	// baseline. Decisions are taken on the smoothed value, so only
	// sustained saturation — not a one-window burst — can force the cap up
	// or cross the lock over to queue mode.
	util autonomic.EWMA
	// band is the [satLow, SatHigh] utilization hysteresis band the mode
	// chain walks on.
	band autonomic.Band
	// dwell counts observation windows remaining before another mode
	// switch is permitted. A switch resets the decayed signals (they were
	// measured under the old mode and say nothing about the new one), so
	// the dwell also covers the windows the fresh EWMA needs to mean
	// anything.
	dwell autonomic.Dwell
	// switches counts mode transitions; samples counts observations.
	switches, samples uint64
	log               []Decision
}

// NewController builds a controller for a lock on a machine with the given
// station count, starting in spin mode at MinCap — the optimistic stance:
// assume no contention until the measurements say otherwise.
func NewController(p Params, stations int) *Controller {
	p = p.withDefaults()
	return &Controller{
		p: p, stations: stations, mode: ModeSpin, cap: MinCap, head: minHead,
		wait:  autonomic.DecayedRatio{Decay: waitDecay, Floor: waitDenFloor},
		ring:  autonomic.DecayedRatio{Decay: waitDecay, Floor: waitDenFloor},
		att:   autonomic.DecayedSum{Decay: waitDecay},
		util:  autonomic.EWMA{Decay: waitDecay},
		band:  autonomic.Band{Low: satLow, High: SatHigh},
		dwell: autonomic.Dwell{Windows: DwellWindows},
	}
}

// Mode reports the currently chosen lock shape.
func (c *Controller) Mode() Mode { return c.mode }

// BackoffCap reports the current backoff cap for spinning contenders.
func (c *Controller) BackoffCap() sim.Duration { return c.cap }

// HeadBackoff reports the current cap on queue-head polling.
func (c *Controller) HeadBackoff() sim.Duration { return c.head }

// Switches reports how many spin<->queue transitions have occurred.
func (c *Controller) Switches() uint64 { return c.switches }

// RingFrac reports the smoothed cross-station acquisition fraction.
func (c *Controller) RingFrac() float64 { return c.ring.Value() }

// NextCap is the pure cap-update law. The target is the measured mean
// acquire latency, clamped to [MinCap, MaxCap]; the cap moves
// multiplicatively toward it — doubling while below half the
// target, halving while above double it — so it is always within a factor
// of two of a stable target. Home-module saturation (util >= SatHigh)
// overrides the wait signal in the upward direction only: it forces an
// increase regardless of the wait and blocks any decrease, but a module
// merely inside the hysteresis band never pins an overshot cap in place.
// The law is monotone non-decreasing in util and in waitUS for fixed prev
// — the metamorphic property the tests pin down: raising offered load
// raises both signals, so offered load can never lower the chosen backoff
// cap.
func (p Params) NextCap(prev sim.Duration, util, waitUS float64) sim.Duration {
	p = p.withDefaults()
	target := sim.Micros(waitUS)
	next := prev
	switch {
	case util >= SatHigh || target >= 2*prev:
		next = prev * 2
	case target <= prev/2:
		next = prev / 2
	}
	if next < MinCap {
		next = MinCap
	}
	if next > p.MaxCap {
		next = p.MaxCap
	}
	return next
}

// nextHead applies the utilization half of the law to the queue-head
// polling cap. Only the utilization signal drives it: in queue mode the
// head is the sole poller, so its wait reflects hold time, not bandwidth
// pressure.
func nextHead(prev sim.Duration, util float64) sim.Duration {
	next := prev
	switch {
	case util >= SatHigh:
		next = prev * 2
	case util <= satLow:
		next = prev / 2
	}
	if next < minHead {
		next = minHead
	}
	if next > maxHead {
		next = maxHead
	}
	return next
}

// Observe consumes one sampling window and updates the published constants.
// Both signals are smoothed over a ~4-window horizon before any decision is
// taken (see reactive). The chain runs spin → queue → cohort as pressure
// grows: spinning is abandoned only when the home module stays saturated with the
// cap already at MaxCap — i.e. when backing off further is impossible and
// the module still has no headroom — and queue mode escalates to the
// hierarchical cohort shape (multi-station machines only) when the
// ring-traffic signal shows that ring-crossing hand-offs themselves are the
// traffic — either alongside sustained saturation, or alone once the mean
// wait passes cohortWait (on a large machine the ring serializes hand-offs
// while the home module idles, so utilization alone never sees this
// regime). Retreats require smoothed utilization through satLow and
// evidence that the calm is real: attempts still arriving without
// completions mean a queue is forming, not that the lock is idle.
//
// A mode switch resets the decayed wait sums and the utilization EWMA:
// they were measured under the old mode's protocol, and letting them bleed
// into the first post-switch windows is what used to bounce the mode
// straight back. The EWMA restarts from the middle of the hysteresis band
// (neutral: forces no decision either way) and no further switch is
// permitted for DwellWindows windows — at most one switch per dwell
// period, by construction.
func (c *Controller) Observe(s Sample) {
	c.samples++
	prevMode := c.mode
	c.wait.Observe(float64(s.Lock.WaitCycles), float64(s.Lock.Acquisitions))
	waitUS := c.wait.Value() / sim.CyclesPerMicrosecond
	ringFrac := c.ring.Observe(float64(s.Lock.RemoteAcquisitions), float64(s.Lock.Acquisitions))
	c.att.Add(float64(s.Lock.Attempts))
	util := c.util.Observe(s.HomeUtil)
	c.reactive(util, waitUS, ringFrac, c.dwell.Ready())
	if c.mode != prevMode {
		c.switches++
		// Start the new mode from clean windows: drop the old-mode wait
		// mass (the estimate freezes until fresh acquisitions arrive) and
		// restart the utilization EWMA from the neutral mid-band.
		c.wait.Reset()
		c.ring.Clear()
		// att is deliberately NOT reset: it only ever blocks a retreat,
		// and the attempts backlog it carries across a switch is exactly the
		// evidence that waiters from the old mode are still in flight.
		c.util.Set(c.band.Mid())
		c.dwell.Arm()
	}
	if len(c.log) < logLimit {
		c.log = append(c.log, Decision{
			At: s.Now, HomeUtil: s.HomeUtil, UtilEWMA: util, WaitUS: waitUS,
			RingFrac: c.ring.Value(), Cap: c.cap, Head: c.head, Mode: c.mode,
		})
	}
}

// reactive is the feedback decision body: the multiplicative cap walk and
// the evidence-gated spin -> queue -> cohort mode chain described on
// Observe.
func (c *Controller) reactive(util, waitUS, ringFrac float64, ready bool) {
	atMax := c.cap == c.p.MaxCap
	c.cap = c.p.NextCap(c.cap, util, waitUS)
	c.head = nextHead(c.head, util)
	if ready {
		// ringBound: most acquisitions arrive over the ring AND the mean
		// wait is past the cohortWait threshold. Home-module utilization
		// cannot see this regime — on a large machine the ring serializes
		// hand-offs while the home module idles — so without this signal
		// the controller reads the idle module as "contention gone" and
		// thrashes queue<->spin forever.
		ringBound := c.stations > 1 && ringFrac >= cohortRingFrac &&
			waitUS >= cohortWait.Microseconds()
		// wedged: attempts keep arriving but nothing completes — a queue
		// still forming behind a convoy, not an idle lock. A low home-module
		// reading in this state means the ring (or the queue hand-off
		// chain), not the workload, is the bottleneck; retreating to spin on
		// it would re-create the convoy that wedged the lock.
		wedged := c.att.S >= 1 && c.ring.Mass() < waitDenFloor
		switch c.mode {
		case ModeSpin:
			if c.band.Above(util) && atMax {
				c.mode = ModeQueue
			}
		case ModeQueue:
			switch {
			case ringBound,
				c.band.Above(util) && c.stations > 1 && ringFrac >= cohortRingFrac:
				// Saturated with local-only spinning AND most acquisitions
				// arrive over the ring: hand-off traffic itself is the load,
				// which is what station-batched cohort grants relieve.
				c.mode = ModeCohort
			case c.band.Below(util) && !wedged && waitUS <= c.cap.Microseconds():
				// Retreat to spin only when the waits actually being served
				// fit under the backoff cap the spin stance would resume
				// with; a wait the cap cannot absorb means the low module
				// reading is drain, not idleness.
				c.mode = ModeSpin
			}
		case ModeCohort:
			// The ring signal cannot arbitrate a cohort retreat: station
			// batching makes whole windows read all-local or all-remote by
			// construction. Retreat on the wait signal instead, with a
			// half-threshold hysteresis band under the cohortWait that
			// forced the escalation.
			if c.band.Below(util) && !wedged &&
				waitUS < cohortWait.Microseconds()/2 {
				c.mode = ModeQueue
			}
		}
	}
}

// Log returns the retained decision history (oldest first).
//
//doclint:keep tests in tune, locks and workload read the decision history through it
func (c *Controller) Log() []Decision { return c.log }

// Report renders the decision history and final state as an indented block.
func (c *Controller) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tuner: %d windows, %d mode switches; final mode %s, cap %.0fus, head %.0fus\n",
		c.samples, c.switches, c.mode, c.cap.Microseconds(), c.head.Microseconds())
	// Print the log compressed: only windows where something changed.
	var prev Decision
	shown := 0
	for i, d := range c.log {
		if i > 0 && d.Cap == prev.Cap && d.Head == prev.Head && d.Mode == prev.Mode {
			prev = d
			continue
		}
		fmt.Fprintf(&b, "  t=%-12v util %4.0f%% (ewma %3.0f%%)  wait %7.1fus  ring %3.0f%%  cap %6.0fus  head %4.0fus  %s\n",
			d.At, d.HomeUtil*100, d.UtilEWMA*100, d.WaitUS, d.RingFrac*100,
			d.Cap.Microseconds(), d.Head.Microseconds(), d.Mode)
		prev = d
		shown++
		if shown >= 32 {
			fmt.Fprintf(&b, "  ... (%d more windows)\n", len(c.log)-i-1)
			break
		}
	}
	return b.String()
}
