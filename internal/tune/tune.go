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
// fixed Engine.Every cadence (or on the shared autonomic.Plane), smooth
// the windowed signal (decayed ratios and an EWMA, all at 0.75 retention —
// NUMA traffic and lock waits are equally bursty per window), and act only
// past a threshold with hysteresis (the utilization saturation/relief band
// here; the cost-improvement indifference band plus confirmation streak
// there; the write-fraction band in the replicator). The difference is the
// actuator: this controller publishes constants (backoff cap, lock mode),
// which are free to change, while the placement daemon and replicator move
// or copy kernel data, which charges real traffic — hence their extra
// payback and budget guards.
//
// Since PR 10 the controller also has a model-driven mode: when
// Params.Model carries a calibrated model.Advisor, the reactive walk is
// replaced by analytic pricing — the controller infers the operating point
// from its windowed signals, asks the advisor for the predicted-best shape
// and backoff cap, and jumps straight there (see Observe).
package tune

import (
	"fmt"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/model"
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
	// period is the sampling window of a self-scheduled controller. Shorter
	// windows react faster; longer windows smooth transient bursts. Under a
	// Plane the plane's period rules.
	period sim.Duration = 100 * sim.CyclesPerMicrosecond
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
	// LogLimit bounds the retained decision log (default 256; 0 takes the
	// default, negative disables logging).
	LogLimit int
	// Plane, when non-nil, registers the controller's sampler on the shared
	// autonomics plane instead of a private Engine.Every daemon: the plane's
	// single cadence then ticks it alongside the placement and replication
	// policies, so each phase observes the others' actions. The plane's
	// period rules for a plane-scheduled sampler.
	Plane *autonomic.Plane
	// Model, when non-nil, switches the controller to model-driven mode:
	// instead of walking the cap multiplicatively and escalating through
	// the mode chain on saturation evidence, each decision window infers
	// the operating point (contenders, hold) from the measured wait and
	// completion interval, prices the candidate shapes through the
	// calibrated advisor, and jumps straight to the predicted-best mode
	// and backoff cap. Dwell hysteresis and the signal reset on mode
	// switches still apply — the model prices regimes, the dwell keeps
	// estimate noise from flapping the mode. The advisor's cap bounds
	// should match MinCap/MaxCap.
	Model *model.Advisor
}

func (p Params) withDefaults() Params {
	if p.MaxCap == 0 {
		p.MaxCap = sim.Micros(2000)
	}
	if p.LogLimit == 0 {
		p.LogLimit = 256
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

// ewmaHorizon is the number of windows the 0.75-retention smoothing takes
// to mostly forget an old regime (0.75^4 ≈ 0.32). The model-driven mode
// requires the advised cap to have been stable for this long before it
// will act on a shape recommendation: any shorter and the wait/svc
// evidence still reflects the cap the advisor already rejected.
const ewmaHorizon = 4

// Counters is the cumulative per-lock telemetry a sampling hook reads;
// the sampler diffs successive snapshots into per-window Samples. All
// counters must be monotone non-decreasing.
type Counters struct {
	// Attempts and Failures count fast-path swaps and how many found the
	// word taken.
	Attempts, Failures uint64
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

// failFrac is the window's fast-path failure fraction (0 with no attempts).
func (s Sample) failFrac() float64 {
	if s.Lock.Attempts == 0 {
		return 0
	}
	return float64(s.Lock.Failures) / float64(s.Lock.Attempts)
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
	// FailFrac is the window's failed-swap fraction.
	FailFrac float64
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
	// svc decays window length over completed acquisitions: the smoothed
	// completion interval. Under the saturated closed loop one round
	// completes every hold + overhead, so this is the model-driven mode's
	// estimate of H + C — the denominator that turns the measured wait
	// into an inferred contender count (model.Advisor.Infer). Only
	// consulted when Params.Model is set.
	svc autonomic.DecayedRatio
	// lastNow is the previous sample time, for svc's window length.
	lastNow sim.Time
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
	// capSettled counts consecutive model-mode windows in which the
	// advised cap agreed (within 2x) with the cap already in force; a
	// shape switch waits for a full smoothing horizon of agreement.
	capSettled int
	// rec and recRun track the advisor's current non-incumbent shape
	// recommendation and how many consecutive ready windows it has
	// persisted; recProcs is the contender count the last confirmation
	// window inferred. A shape switch waits for a full horizon of the same
	// recommendation at a stable inferred operating point.
	rec      Mode
	recRun   int
	recProcs int
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
		svc:   autonomic.DecayedRatio{Decay: waitDecay, Floor: waitDenFloor},
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
// taken. With Params.Model set the decision body is the analytic advisor
// (see adviseModel); otherwise the reactive crossover chain below runs.
// The chain runs spin → queue → cohort as pressure grows:
// spinning is abandoned only when the home module stays saturated with the
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
	c.svc.Observe(float64(s.Now-c.lastNow), float64(s.Lock.Acquisitions))
	c.lastNow = s.Now
	ready := c.dwell.Ready()
	if c.p.Model != nil {
		c.adviseModel(util, waitUS, ready, s.Lock.Acquisitions > 0)
	} else {
		c.reactive(util, waitUS, ringFrac, ready)
	}
	if c.mode != prevMode {
		c.switches++
		// Start the new mode from clean windows: drop the old-mode wait
		// mass (the estimate freezes until fresh acquisitions arrive) and
		// restart the utilization EWMA from the neutral mid-band. The
		// completion-interval estimate resets too: it measured the old
		// protocol's overhead.
		c.wait.Reset()
		c.ring.Clear()
		c.svc.Reset()
		// att is deliberately NOT reset: it only ever blocks a retreat,
		// and the attempts backlog it carries across a switch is exactly the
		// evidence that waiters from the old mode are still in flight.
		c.util.Set(c.band.Mid())
		c.dwell.Arm()
	}
	if c.p.LogLimit > 0 && len(c.log) < c.p.LogLimit {
		c.log = append(c.log, Decision{
			At: s.Now, HomeUtil: s.HomeUtil, UtilEWMA: util, WaitUS: waitUS,
			FailFrac: s.failFrac(), RingFrac: c.ring.Value(),
			Cap: c.cap, Head: c.head, Mode: c.mode,
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

// adviseModel is the model-driven decision body: infer the operating
// point from the smoothed wait and completion interval, ask the advisor
// to price the candidate shapes, and jump to the answer. The advisor is
// told the incumbent shape, so a recommendation to move already cleared
// the calibration's uncertainty margin. The cap and head jumps are free
// and happen every window (both knobs are priced by the model — the head
// from BestHeadUS instead of the reactive utilization walk); a mode jump
// still respects the dwell — the model prices regimes, the dwell keeps
// one noisy inference from flapping the shape. While the smoothing
// horizon carries no completed acquisitions (startup, or the post-switch
// signal reset) there is no evidence to invert, and the controller holds
// its position.
func (c *Controller) adviseModel(util, waitUS float64, ready, fresh bool) {
	// Saturation escape, first and unconditionally: a saturating home
	// module with a small cap starves the very signals the inference
	// needs — completions stall, the wait freezes or loses its mass
	// entirely, and any advised cap would be priced at a phantom point —
	// so the cap cannot be trusted to stay down on the model's word.
	// Keep the reactive law's utilization half as a lower bound (double
	// out of saturation); the model reclaims the cap the moment its
	// signals carry mass and price a larger one. The wait-tracking half
	// of the reactive law stays replaced: that is the half the pricing
	// supersedes.
	var escape sim.Duration
	if util >= SatHigh {
		escape = c.cap * 2
		if escape > c.p.MaxCap {
			escape = c.p.MaxCap
		}
	}
	svcUS := c.svc.Value() / sim.CyclesPerMicrosecond
	if c.wait.Mass() < waitDenFloor || svcUS <= 0 {
		if escape > c.cap {
			c.cap = escape
		}
		return
	}
	cur := model.ShapeSpin
	switch c.mode {
	case ModeQueue:
		cur = model.ShapeQueue
	case ModeCohort:
		cur = model.ShapeCohort
	}
	adv := c.p.Model.Advise(cur, float64(c.cap)/sim.CyclesPerMicrosecond, waitUS, svcUS)
	cap := sim.Micros(adv.CapUS)
	if cap < escape {
		cap = escape
	}
	if cap < MinCap {
		cap = MinCap
	}
	if cap > c.p.MaxCap {
		cap = c.p.MaxCap
	}
	// settled: the advised cap has agreed with the cap the measured
	// signals were produced under (within the walk's own doubling step)
	// for a full smoothing horizon. A large cap jump means the horizon's
	// svc and wait were measured at a cap the advisor has just rejected —
	// the startup windows, with the cap still at MinCap, are the canonical
	// case: a 64-processor storm on an 8us cap inflates the completion
	// interval, the inference reads the excess as hold time, and a mode
	// decision on that evidence jumps at a regime that does not exist.
	// Let the cap land first and the smoothed signals re-converge under
	// it; the shape decision follows, priced from evidence the advised
	// cap actually produced.
	if cap <= c.cap*2 && c.cap <= cap*2 {
		c.capSettled++
	} else {
		c.capSettled = 0
	}
	settled := c.capSettled >= ewmaHorizon
	c.cap = cap
	head := sim.Micros(adv.HeadUS)
	if head < minHead {
		head = minHead
	}
	if head > maxHead {
		head = maxHead
	}
	c.head = head
	target := c.mode
	switch adv.Shape {
	case model.ShapeQueue:
		target = ModeQueue
	case model.ShapeCohort:
		// The advisor already gates cohort on a multi-station machine, but
		// the controller's own station count rules.
		if c.stations > 1 {
			target = ModeCohort
		} else {
			target = ModeQueue
		}
	default:
		target = ModeSpin
	}
	// Confirmation: one window's inversion can land on a phantom operating
	// point (the startup storm is the canonical case — wait and completion
	// interval are both storm-dominated, so their ratio reads as two
	// processors with an enormous hold). A single closed form cannot tell
	// that window from a real regime, but a real regime persists: require
	// the same non-incumbent recommendation across a full smoothing
	// horizon of ready windows before acting on it. Phantom points decay
	// with the storm that produced them; real crossings don't.
	// A window with no completed acquisitions carries no new evidence —
	// the wait estimate is frozen and the completion interval only grew —
	// so it neither advances nor resets the run. A window whose inferred
	// contender count disagrees with the previous confirmation window's
	// restarts it: during the startup ramp the inferred point climbs every
	// window as the wait backlog rotates into the estimate, and a
	// recommendation priced at a still-moving point is a recommendation
	// about a regime that is still arriving.
	if target == c.mode {
		c.recRun = 0
	} else if ready && fresh {
		dp := adv.Procs - c.recProcs
		if dp < 0 {
			dp = -dp
		}
		stable := dp <= 1 || dp*4 <= adv.Procs
		if target == c.rec && stable {
			c.recRun++
		} else {
			c.rec, c.recRun = target, 1
		}
		c.recProcs = adv.Procs
	}
	if ready && settled && c.recRun >= ewmaHorizon && target != c.mode {
		c.mode = target
		c.recRun = 0
	}
}

// Log returns the retained decision history (oldest first).
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
