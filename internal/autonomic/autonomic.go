// Package autonomic is the shared controller core of the kernel's
// self-tuning plane. The paper's NUMA kernel runs several feedback
// policies at once — lock tuning (§4.2), data migration and replication
// of read-mostly kernel data (§2.2) — and they are all the same controller
// shape: sample a windowed signal at a fixed daemon cadence, smooth it
// (one-window bursts must not trigger action), act only past a threshold
// with hysteresis, confirm the decision across consecutive windows, and
// bound the blast radius with per-target budgets and cooldowns. When the
// actuation charges real traffic (a copy burst), price it: the projected
// per-window saving must repay the estimated cost within a payback
// horizon.
//
// internal/tune's lock controller and trace/placement's migration daemon
// are both built from these primitives, and the Replicator policy here is
// the third instance. The primitives are deliberately thin — each method
// performs exactly the float operations its users historically inlined,
// in the same order, so refactoring a controller onto them is
// byte-identical on existing sweeps (the property the determinism tests
// pin down).
//
// Signal primitives:
//
//	DecayedSum    s = decay*s + x            (windowed mass with a ~1/(1-decay) horizon)
//	DecayedRatio  two DecayedSums whose ratio freezes below a mass floor
//	EWMA          v = decay*v + (1-decay)*x  (smoothed level signal)
//	Window        an EWMA per module of a cumulative count vector's windows
//
// Decision primitives:
//
//	Band    a [Low, High] hysteresis band with a neutral midpoint
//	Dwell   minimum windows between state switches
//	Streak  consecutive-window confirmation of a candidate action
//	Gate    per-target action budget + cooldown
//	Worthwhile  the rent-vs-buy payback test for priced actuators
//	Costs.Copy  the estimated cost those actuators' copies are priced at
package autonomic

import "hurricane/internal/sim"

// DecayedSum is an exponentially decayed sum: each Add retains Decay of
// the accumulated mass and adds the new window's contribution whole. With
// Decay d the horizon is ~1/(1-d) windows, and — unlike a normalized EWMA
// — a window's contribution is weighted by its own magnitude, which is
// what makes a ratio of two DecayedSums an unbiased per-event mean.
type DecayedSum struct {
	// Decay is the per-window retention factor in [0,1).
	Decay float64
	// S is the current decayed mass.
	S float64
}

// Add folds one window's mass into the sum.
func (d *DecayedSum) Add(x float64) { d.S = d.Decay*d.S + x }

// Reset clears the accumulated mass.
func (d *DecayedSum) Reset() { d.S = 0 }

// DecayedRatio tracks the ratio of two decayed sums — per-event wait, the
// remote-acquisition fraction — with a mass floor: when the denominator's
// decayed mass falls below Floor the ratio freezes at its last computed
// value rather than being recomputed from noise (a window in which nothing
// completes says nothing about the per-completion mean).
type DecayedRatio struct {
	// Decay is the per-window retention factor for both sums.
	Decay float64
	// Floor is the minimum denominator mass below which the ratio freezes.
	Floor float64
	num   DecayedSum
	den   DecayedSum
	ratio float64
}

// Observe folds one window (numerator mass, denominator mass) and returns
// the current — possibly frozen — ratio.
func (r *DecayedRatio) Observe(num, den float64) float64 {
	if r.num.Decay == 0 {
		r.num.Decay, r.den.Decay = r.Decay, r.Decay
	}
	r.num.Add(num)
	r.den.Add(den)
	if r.den.S >= r.Floor {
		r.ratio = r.num.S / r.den.S
	}
	return r.ratio
}

// Value returns the current (possibly frozen) ratio.
func (r *DecayedRatio) Value() float64 { return r.ratio }

// Mass returns the decayed denominator mass (the evidence behind Value).
func (r *DecayedRatio) Mass() float64 { return r.den.S }

// Reset drops the accumulated sums. The frozen ratio is kept: the caller's
// estimate stays at its last defensible value until fresh mass arrives
// (the tune controller's mode-switch semantics).
func (r *DecayedRatio) Reset() { r.num.Reset(); r.den.Reset() }

// Clear drops the sums AND the ratio (the ring-fraction semantics: after a
// mode switch the old mode's traffic mix is meaningless).
func (r *DecayedRatio) Clear() { r.Reset(); r.ratio = 0 }

// EWMA is the normalized smoother: v = Decay*v + (1-Decay)*x. Use it for
// level signals (utilization, per-window access counts) where each window
// should carry equal weight regardless of magnitude.
type EWMA struct {
	// Decay is the smoothing factor: weight kept by the old value.
	Decay float64
	// V is the current smoothed level.
	V float64
}

// Observe folds one window's level and returns the smoothed value.
func (e *EWMA) Observe(x float64) float64 {
	e.V = e.Decay*e.V + (1-e.Decay)*x
	return e.V
}

// Set restarts the smoother from v (e.g. a band midpoint after a switch).
func (e *EWMA) Set(v float64) { e.V = v }

// Window is a data slot's windowed access signal: each Fold diffs a
// cumulative per-module count vector against the snapshot the last Fold
// took and folds that window's counts, module by module, into an EWMA with
// the policy's per-window retention. The data policies smooth one per
// traffic vector they watch.
type Window struct {
	// V is the smoothed per-window count by source module.
	V []float64
	// Raw is the last folded window's count by source module, unsmoothed:
	// what a ledger that prices traffic as it happened adds up.
	Raw   []float64
	snap  []uint64
	decay float64
}

// NewWindow returns an empty window over n modules, smoothing at decay.
func NewWindow(n int, decay float64) Window {
	return Window{V: make([]float64, n), Raw: make([]float64, n), snap: make([]uint64, n), decay: decay}
}

// Fold takes one window: cum is the cumulative vector now. A nil or short
// cum reads as zero past its end.
func (w *Window) Fold(cum []uint64) {
	v := w.V
	snap, raw := w.snap[:len(v)], w.Raw[:len(v)]
	keep, gain := w.decay, 1-w.decay
	for i := range v {
		var cur uint64
		if i < len(cum) {
			cur = cum[i]
		}
		x := float64(cur - snap[i])
		snap[i], raw[i] = cur, x
		v[i] = keep*v[i] + gain*x
	}
}

// Mass reports the smoothed per-window count summed over the modules.
func (w *Window) Mass() float64 {
	var sum float64
	for _, v := range w.V {
		sum += v
	}
	return sum
}

// Total reports the cumulative count at the last Fold, summed over the
// modules.
func (w *Window) Total() float64 {
	var sum float64
	for _, c := range w.snap {
		sum += float64(c)
	}
	return sum
}

// Band is a [Low, High] hysteresis band: escalate at or above High,
// retreat at or below Low, and do nothing in between.
type Band struct {
	// Low and High are the retreat and escalation thresholds.
	Low, High float64
}

// Above reports v at or past the escalation threshold.
func (b Band) Above(v float64) bool { return v >= b.High }

// Below reports v at or past the retreat threshold.
func (b Band) Below(v float64) bool { return v <= b.Low }

// Mid is the band's neutral midpoint — the restart value that forces no
// decision either way.
func (b Band) Mid() float64 { return (b.Low + b.High) / 2 }

// Dwell enforces a minimum number of observation windows between state
// switches: after Arm, Ready returns false (consuming one window per call)
// until Windows windows have passed.
type Dwell struct {
	// Windows is the number of observation windows a fresh dwell holds.
	Windows int
	left    int
}

// Ready consumes one window and reports whether switching is permitted.
func (d *Dwell) Ready() bool {
	if d.left > 0 {
		d.left--
		return false
	}
	return true
}

// Arm starts a fresh dwell period.
func (d *Dwell) Arm() { d.left = d.Windows }

// Streak confirms a candidate action across consecutive windows: Observe
// returns true only once the same candidate has won Confirm windows in a
// row. A burst shorter than the streak can nominate a candidate but never
// confirm it.
type Streak struct {
	// Confirm is how many consecutive wins confirm a candidate.
	Confirm int
	cand    int
	n       int
}

// NewStreak returns a streak requiring confirm consecutive wins.
func NewStreak(confirm int) Streak { return Streak{Confirm: confirm, cand: -1} }

// Observe records that cand won this window and reports confirmation.
func (s *Streak) Observe(cand int) bool {
	if cand != s.cand {
		s.cand, s.n = cand, 1
	} else {
		s.n++
	}
	return s.n >= s.Confirm
}

// Clear drops the candidate (no proposal this window, or action taken).
func (s *Streak) Clear() { s.cand, s.n = -1, 0 }

// Gate is the per-target action limiter: a hard budget over the whole run
// plus a cooldown between consecutive actions on the same target. Ready
// and Spend take the caller's clock: simulated time, or a count of
// windows, in which unit Cooldown is then stated.
type Gate struct {
	// Budget is the hard action limit over the whole run.
	Budget int
	// Cooldown is the minimum gap between actions on this target.
	Cooldown sim.Duration
	used     int
	last     sim.Time
}

// Ready reports whether an action is permitted at time now.
func (g *Gate) Ready(now sim.Time) bool {
	if g.used >= g.Budget {
		return false
	}
	if g.last != 0 && now-g.last < sim.Time(g.Cooldown) {
		return false
	}
	return true
}

// Spend records an action at time now.
func (g *Gate) Spend(now sim.Time) { g.used++; g.last = now }

// Worthwhile is the priced-actuator contract: an action whose estimated
// cost is cost and whose projected per-window benefit is benefit executes
// only if the benefit repays the cost within horizon windows. The caller
// supplies both sides in the same currency (weighted access cycles).
func Worthwhile(benefit float64, horizon int, cost float64) bool {
	return benefit*float64(horizon) >= cost
}

// Topo is the machine topology the placement policies and the trace
// analysis reason over; it must match the running machine. Build one with
// TopoOf from that machine's config.
type Topo struct {
	// Stations and ProcsPerStation mirror sim.Config's topology knobs.
	Stations, ProcsPerStation int
	// StationsPerRing mirrors sim.Config.StationsPerRing: the stations on
	// each local ring of a NUMAchine hierarchy, 0 on a flat ring.
	StationsPerRing int
}

// TopoOf returns the topology of a machine built from cfg, defaults
// applied (sim.Config.WithDefaults).
func TopoOf(cfg sim.Config) Topo {
	cfg = cfg.WithDefaults()
	return Topo{Stations: cfg.Stations, ProcsPerStation: cfg.ProcsPerStation, StationsPerRing: cfg.StationsPerRing}
}

// Modules reports the module count.
func (t Topo) Modules() int { return t.Stations * t.ProcsPerStation }

// Dist classifies the distance from module src to module dst
// (sim.Classify, as the memory system does).
func (t Topo) Dist(src, dst int) sim.DistClass {
	return sim.Classify(src, dst, t.ProcsPerStation, t.StationsPerRing)
}

// Costs weighs one access at each distance class, in cycles. Use the
// running machine's uncontended latencies (CostsFromLatency).
type Costs struct {
	// Local, Station, and Ring weigh one access at each distance class.
	Local, Station, Ring float64
	// Ring2 weighs one access across the global ring of a ring hierarchy
	// (sim.DistGlobal); a flat machine makes none.
	Ring2 float64
}

// CostsFromLatency derives weights from a machine's latency parameters.
func CostsFromLatency(lat sim.Latency) Costs {
	return Costs{Local: float64(lat.Local), Station: float64(lat.Station),
		Ring: float64(lat.Ring), Ring2: float64(lat.Ring2)}
}

// Copy prices copying a region of the given size for a payback gate:
// every word at the ring weight, whatever route the copy takes.
func (c Costs) Copy(words int) float64 { return float64(words) * c.Ring }

// Of weighs one access at the given distance class.
func (c Costs) Of(d sim.DistClass) float64 {
	switch d {
	case sim.DistLocal:
		return c.Local
	case sim.DistStation:
		return c.Station
	case sim.DistGlobal:
		return c.Ring2
	}
	return c.Ring
}

// Weights is Costs.Of(Topo.Dist(src, dst)) tabulated for every pair of the
// topology's modules: a policy builds it once and looks weights up in its
// per-window pricing loops instead of re-deriving them.
type Weights struct {
	n int
	w []float64 // row-major by src
}

// NewWeights tabulates the weights of topology t under costs c.
func NewWeights(t Topo, c Costs) Weights {
	n := t.Modules()
	w := Weights{n: n, w: make([]float64, n*n)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			w.w[src*n+dst] = c.Of(t.Dist(src, dst))
		}
	}
	return w
}

// Row returns the weights of an access from module src to a home at each
// module of the topology, indexed by home. src must be one of them.
func (w Weights) Row(src int) []float64 { return w.w[src*w.n : (src+1)*w.n] }
