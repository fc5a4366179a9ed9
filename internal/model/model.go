// Package model derives closed-form performance predictions for the lock
// zoo from first principles, in the style of "Performance Prediction for
// Coarse-Grained Locking": given the machine's cost constants (module
// service time, station-bus and ring-hop round trips), a contender count,
// and a critical-section hold time, it predicts each lock family's
// per-round overhead and mean acquire wait without running the simulator.
//
// The model answers the same question the reactive tune.Controller answers
// by search — which lock shape is cheapest in this regime — but
// analytically; exp.ModelSweep checks its answers against the simulator.
//
// # Modeling assumptions
//
// The model targets the closed-loop saturated regime of the Figure 5
// stress loop: p processors repeatedly acquire, hold for H microseconds,
// and release, with negligible think time between rounds. Under that
// regime the lock serializes the machine, so one round completes every
// H + C microseconds, where C is the lock's per-hand-off overhead — the
// quantity each family's formula below predicts — and a FIFO contender
// waits (p-1)(H + C) on average. Unfair families (spin with backoff) are
// corrected by a fitted residual, see Calibrate. Predictions are exact in
// the model's own arithmetic but approximate against the simulator;
// Calibrate fits per-lock multiplicative residuals from a small simulator
// grid and reports the leftover error.
//
// All times are float64 microseconds (the simulator's cycle counts divide
// by sim.CyclesPerMicrosecond on the way in via FromConfig).
package model

import (
	"fmt"
	"math"

	"hurricane/internal/sim"
)

// Family identifies a modeled lock family. The families correspond to the
// shapes the tuner can choose between, not to individual locks.Kind values:
// MCS and H2-MCS are both FamilyQueue (one hand-off formula covers both;
// the residual absorbs their constant difference).
type Family int

const (
	// FamilySpin is test-and-set with capped exponential backoff
	// (locks.KindSpin / KindSpin2ms, parameterized by Lock.CapUS).
	FamilySpin Family = iota
	// FamilyQueue is a local-spin FIFO queue lock (MCS, H2-MCS, CLH).
	FamilyQueue
	// FamilyCohort is the station-batched hierarchical cohort lock
	// (locks.Cohort) at the zoo's local-pass budget, batch.
	FamilyCohort
	// FamilyCNA is the compact NUMA-aware queue lock (locks.CNA) at the
	// zoo's spill threshold, batch.
	FamilyCNA
)

// String names the family for table rows and calibration keys.
func (f Family) String() string {
	switch f {
	case FamilyQueue:
		return "queue"
	case FamilyCohort:
		return "cohort"
	case FamilyCNA:
		return "cna"
	}
	return "spin"
}

// batch is the cohort local-pass budget and the CNA spill threshold: it
// mirrors locks.DefaultBatchLimit / DefaultSpillThreshold (not imported:
// model sits below locks in the dependency order).
const batch = 16

// Lock is a modeled lock configuration: a family plus its knob.
type Lock struct {
	// Family selects the cost formula.
	Family Family
	// CapUS is the spin family's backoff cap in microseconds (0 takes the
	// kernel's 35us). Ignored by the other families.
	CapUS float64
}

func (l Lock) withDefaults() Lock {
	if l.Family == FamilySpin && l.CapUS == 0 {
		l.CapUS = 35
	}
	return l
}

// Key is the calibration-residual key: one residual per distinct modeled
// configuration (spin locks with different caps calibrate separately —
// backoff unfairness depends strongly on the cap).
func (l Lock) Key() string {
	l = l.withDefaults()
	switch l.Family {
	case FamilySpin:
		return fmt.Sprintf("spin:%g", l.CapUS)
	case FamilyCohort:
		return fmt.Sprintf("cohort:%d", batch)
	case FamilyCNA:
		return fmt.Sprintf("cna:%d", batch)
	}
	return "queue"
}

// String renders the configuration for table rows.
func (l Lock) String() string {
	l = l.withDefaults()
	if l.Family == FamilySpin {
		return fmt.Sprintf("spin-%gus", l.CapUS)
	}
	return l.Family.String()
}

// Point is one workload operating point: how many processors contend and
// how long each holds the lock.
type Point struct {
	// Procs is the number of contending processors.
	Procs int
	// HoldUS is the critical-section hold time in microseconds.
	HoldUS float64
}

// Prediction is the model's output for one (lock, point).
type Prediction struct {
	// PairUS is the predicted per-round overhead C: the machine-wide
	// elapsed time per completed round minus the hold — the throughput
	// view. Note workload.LockStressResult.PairUS is per per-processor
	// round, i.e. p(H+C)-H under the saturated loop; divide through
	// ((measured+H)/p - H) before comparing, as exp.ModelSweep does.
	PairUS float64
	// WaitUS is the predicted mean acquire latency, comparable to
	// LockStressResult.AcquireUS.
	WaitUS float64
}

// Machine is the cost-constant view of a simulated machine: everything the
// closed forms need, in microseconds. Build one with FromConfig.
type Machine struct {
	// Stations, ProcsPerStation, StationsPerRing mirror sim.Config: the
	// topology that decides how many contenders are bus-local vs
	// ring-remote. StationsPerRing 0 means a flat single ring.
	Stations, ProcsPerStation, StationsPerRing int
	// LocalUS, StationUS, RingUS, Ring2US are uncontended round-trip times
	// for one memory access at each topological distance.
	LocalUS, StationUS, RingUS, Ring2US float64
	// ModuleServiceUS is how long one access occupies the target module —
	// the bandwidth a remote spinner steals from the holder (§2.1).
	ModuleServiceUS float64
	// AtomicAccesses is the module accesses per atomic read-modify-write.
	AtomicAccesses int
	// AtomicExtraUS is the processor-visible extra latency of an atomic.
	AtomicExtraUS float64
	// InstrUS is the cost of one register/branch instruction.
	InstrUS float64
}

// FromConfig derives the model's cost constants from a simulator config,
// with the defaults sim.NewMachine applies (sim.Config.WithDefaults).
func FromConfig(cfg sim.Config) Machine {
	cfg = cfg.WithDefaults()
	us := func(d sim.Duration) float64 { return d.Microseconds() }
	return Machine{
		Stations:        cfg.Stations,
		ProcsPerStation: cfg.ProcsPerStation,
		StationsPerRing: cfg.StationsPerRing,
		LocalUS:         us(cfg.Lat.Local),
		StationUS:       us(cfg.Lat.Station),
		RingUS:          us(cfg.Lat.Ring),
		Ring2US:         us(cfg.Lat.Ring2),
		ModuleServiceUS: us(cfg.Lat.ModuleService),
		AtomicAccesses:  cfg.Lat.AtomicAccesses,
		AtomicExtraUS:   us(cfg.Lat.AtomicExtra),
		InstrUS:         us(cfg.Lat.Reg),
	}
}

// Procs is the machine's total processor count.
func (m Machine) Procs() int { return m.Stations * m.ProcsPerStation }

// station returns the station of contender i under the stress layout
// (contender i runs on module i).
func (m Machine) station(i int) int { return i / m.ProcsPerStation }

// ringGroup returns the local-ring group of a station (0 on flat rings).
func (m Machine) ringGroup(station int) int {
	if m.StationsPerRing <= 0 {
		return 0
	}
	return station / m.StationsPerRing
}

// distUS is the round-trip cost for contender i to reach the lock's home
// module (module 0: the stress layout homes lock and data together).
func (m Machine) distUS(i int) float64 {
	switch {
	case i == 0:
		return m.LocalUS
	case m.station(i) == 0:
		return m.StationUS
	case m.ringGroup(m.station(i)) == 0:
		return m.RingUS
	default:
		return m.Ring2US
	}
}

// avgWordUS is the mean cost of one access to the lock word across the
// first p contenders — nondecreasing in p (later contenders are farther).
func (m Machine) avgWordUS(p int) float64 {
	if p < 1 {
		p = 1
	}
	if p > m.Procs() {
		p = m.Procs()
	}
	sum := 0.0
	for i := 0; i < p; i++ {
		sum += m.distUS(i)
	}
	return sum / float64(p)
}

// stationCounts is how many of the first p contenders sit on each station.
func (m Machine) stationCounts(p int) []int {
	n := (p + m.ProcsPerStation - 1) / m.ProcsPerStation
	counts := make([]int, n)
	for s := 0; s < n; s++ {
		k := p - s*m.ProcsPerStation
		if k > m.ProcsPerStation {
			k = m.ProcsPerStation
		}
		counts[s] = k
	}
	return counts
}

// handoffUS is the mean cost of a FIFO grant store: the releaser writes the
// successor's node, so the cost is the topological distance between two
// contenders drawn uniformly from the distinct ordered pairs. Returns 0
// for p < 2. Nondecreasing in p: growth only adds more-remote pairs.
func (m Machine) handoffUS(p int) float64 {
	if p < 2 {
		return 0
	}
	if p > m.Procs() {
		p = m.Procs()
	}
	counts := m.stationCounts(p)
	total := float64(p) * float64(p-1)
	sameStation, sameGroup := 0.0, 0.0
	for s, k := range counts {
		sameStation += float64(k) * float64(k-1)
		for t, j := range counts {
			if s != t && m.ringGroup(s) == m.ringGroup(t) {
				sameGroup += float64(k) * float64(j)
			}
		}
	}
	fS := sameStation / total
	fR := sameGroup / total
	fR2 := 1 - fS - fR
	return fS*m.StationUS + fR*m.RingUS + fR2*m.Ring2US
}

// repHandoffUS is the mean grant distance between two distinct active
// stations — the global hand-off a hierarchical lock pays when the batch
// moves between stations. Ring within a local-ring group, Ring2 across.
func (m Machine) repHandoffUS(p int) float64 {
	counts := m.stationCounts(p)
	n := len(counts)
	if n < 2 {
		return m.RingUS
	}
	pairs, cross := 0, 0
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			pairs++
			if m.ringGroup(s) != m.ringGroup(t) {
				cross++
			}
		}
	}
	f2 := float64(cross) / float64(pairs)
	return (1-f2)*m.RingUS + f2*m.Ring2US
}

// Modeling constants. backoffDuty is the mean delay a capped-exponential
// backoff sleeps relative to its current cap: locks.Spin draws
// delay/2 + uniform(0, delay/2), mean 3/4 of the cap. holdAccessPeriodUS
// is the stress loop's data-access period inside the critical section
// (workload holdWork stores every 2us) — it sets how exposed the holder is
// to a saturated home module.
const (
	backoffDuty        = 0.75
	holdAccessPeriodUS = 2.0
)

// holdAccessBudgetUS is the per-access allowance the stress loop's hold
// pacing already budgets for (workload holdWork thinks 2us minus 20
// cycles between stores): only the excess of a real access over this
// budget stretches the critical section.
const holdAccessBudgetUS = 20.0 / sim.CyclesPerMicrosecond

// holdExposureUS is the critical-section stretch from the holder's paced
// data accesses: every holdAccessPeriodUS the holder stores to the data,
// which lives on the home module, so a holder remote from the home pays
// the topological round trip instead of the budgeted local-ish access.
// Averaged over which contender holds (uniform under FIFO), that is the
// mean word distance. Negligible on HECTOR, where every access is within
// a couple of budget units; dominant for long holds on NUMAchine, where
// a ring-remote store costs 4.5x the budget. Nondecreasing in both p
// (avgWordUS grows) and the hold (more accesses).
func (m Machine) holdExposureUS(p int, holdUS float64) float64 {
	nd := math.Floor(holdUS / holdAccessPeriodUS)
	e := m.avgWordUS(p) - holdAccessBudgetUS
	if e < 0 || nd <= 0 {
		return 0
	}
	return nd * e
}

// moduleOccupancyUS is how long one atomic poll occupies the home module.
func (m Machine) moduleOccupancyUS() float64 {
	return float64(m.AtomicAccesses) * m.ModuleServiceUS
}

// uncontended is the p=1 overhead shared by every family: one successful
// atomic on the (local) word for acquire and one for release, plus a few
// instructions of per-family bookkeeping.
func (m Machine) uncontended(instrs int) float64 {
	return 2*(m.LocalUS+m.AtomicExtraUS) + float64(instrs)*m.InstrUS
}

// overhead is the uncalibrated per-round overhead C for one (lock, point):
// the family-specific hand-off critical path described in each branch,
// plus the family-independent holder exposure (remote data accesses
// stretching the critical section past its nominal hold).
func (m Machine) overhead(l Lock, pt Point) float64 {
	l = l.withDefaults()
	p := pt.Procs
	if p > m.Procs() {
		p = m.Procs()
	}
	exposure := m.holdExposureUS(p, pt.HoldUS)
	if p <= 1 {
		switch l.Family {
		case FamilyQueue:
			return m.uncontended(6) + exposure
		case FamilyCohort:
			return m.uncontended(10) + exposure
		case FamilyCNA:
			return m.uncontended(8) + exposure
		default:
			return m.uncontended(4) + exposure
		}
	}
	switch l.Family {
	case FamilyQueue:
		return m.queueOverhead(p) + exposure
	case FamilyCohort:
		return m.batchOverhead(p, true) + exposure
	case FamilyCNA:
		return m.batchOverhead(p, false) + exposure
	default:
		return m.spinOverhead(p, pt.HoldUS, l.CapUS) + exposure
	}
}

// queueOverhead: the releaser's swap on the tail word (average contender
// distance), the grant store into the successor's node (average pair
// distance), and the successor noticing on its local spin.
func (m Machine) queueOverhead(p int) float64 {
	return (m.avgWordUS(p) + m.AtomicExtraUS) + m.handoffUS(p) +
		m.LocalUS + 4*m.InstrUS
}

// spinOverhead: between releases the word sits free for the mean residual
// backoff gap; meanwhile the p-1 contenders' polling loads the home
// module, inflating each of the holder's data accesses by the expected
// wait behind an in-service poll. The effective cap is wait-limited —
// backoff doubles from 1us, so a contender that waits W has only ramped
// to ~W/2 — and the poll utilization rho is charged at the same ramped
// interval. The per-access delay is the bounded PASTA form rho x occ/2
// (probability the module is busy with a poll times its mean residual
// service), not an open-queue rho/(1-rho) pole: backoff spaces polls
// near-deterministically, so they do not queue on each other, and the
// bounded form is what keeps the prediction monotone in the hold — in
// the wait-limited regime rho falls exactly as fast as the number of
// exposed accesses grows, so the inflation plateaus instead of
// collapsing.
func (m Machine) spinOverhead(p int, holdUS, capUS float64) float64 {
	if capUS < 1 {
		capUS = 1
	}
	w := float64(p - 1)
	capEff := w * (holdUS + m.spinBaseUS(p)) / 2
	if capEff > capUS {
		capEff = capUS
	}
	if capEff < 1 {
		capEff = 1
	}
	gap := backoffDuty * capEff / w
	occ := m.moduleOccupancyUS()
	rho := w * occ / (backoffDuty * capEff)
	if rho > 1 {
		rho = 1
	}
	nd := holdUS / holdAccessPeriodUS
	inflation := nd * (occ / 2) * rho
	return gap + inflation + m.spinBaseUS(p)
}

// spinBaseUS is the cap-independent part of a spin handoff: the word
// transfer, the atomic swap premium, and the fixed instruction work. It
// also sets the floor of the wait that limits the backoff ramp — a
// contender waits out at least one handoff's worth of overhead per
// holder ahead of it even when the hold itself is negligible, which is
// what keeps the predicted discovery gap from collapsing at short holds.
func (m Machine) spinBaseUS(p int) float64 {
	return m.avgWordUS(p) + m.AtomicExtraUS + 4*m.InstrUS
}

// batchOverhead covers both hierarchical families: a fraction
// batch/(batch+1) of grants stay on the holding station (a station-bus
// hand-off plus local detection), the rest cross the ring to the next
// station's representative. The cohort's global hand-off pays the
// two-level release (global MCS store + re-arm) where CNA pays a single
// queue splice. Within one station both degrade to a local queue. The
// batch is capped at the station's capacity (ProcsPerStation-1 waiters),
// not the instantaneous occupancy, keeping the formula monotone in p.
func (m Machine) batchOverhead(p int, cohort bool) float64 {
	local := m.StationUS + m.LocalUS + 4*m.InstrUS
	if p <= m.ProcsPerStation {
		return local
	}
	bEff := batch
	if limit := m.ProcsPerStation - 1; bEff > limit {
		bEff = limit
	}
	if bEff < 1 {
		bEff = 1
	}
	global := m.repHandoffUS(p) + m.LocalUS + 6*m.InstrUS
	if cohort {
		global += m.repHandoffUS(p) + 2*m.InstrUS
	}
	b := float64(bEff)
	return (b*local + global) / (b + 1)
}

// Predictor pairs a machine with a calibration and produces predictions.
// The zero-value Calibration (no residuals) predicts from the raw closed
// forms.
type Predictor struct {
	// M supplies the cost constants.
	M Machine
	// Cal supplies fitted residuals; see Calibrate.
	Cal Calibration
}

// Predict evaluates the calibrated closed form for one (lock, point).
func (pr Predictor) Predict(l Lock, pt Point) Prediction {
	l = l.withDefaults()
	c := pr.M.overhead(l, pt) * pr.Cal.PairResidual(l)
	// Uncontended, the only wait is the acquire half of the round
	// overhead; contended, a FIFO arrival waits out the queue ahead of it
	// (unfair families are corrected by the fitted wait residual).
	wait := c / 2
	if pt.Procs > 1 {
		wait = float64(pt.Procs-1) * (pt.HoldUS + c) * pr.Cal.WaitResidual(l)
	}
	return Prediction{PairUS: c, WaitUS: wait}
}
