package autonomic

import (
	"fmt"
	"slices"
	"strings"

	"hurricane/internal/sim"
)

// ReplicaSlot is one kernel-data region under replication management. The
// read/write vectors come from the live trace aggregate; the actuators
// dispatch through the kernel (closures, so this package needs no kernel
// dependency). Each actuation interrupts the processor co-located with the
// region's primary home, which must take interrupts (a processor that has
// finished its work idles in cluster.Serve). The policy detects completion
// by watching the region's replica set, not by callback — actuations may
// defer behind an interrupt gate.
type ReplicaSlot struct {
	// Name labels the slot in the action log.
	Name string
	// Region is the slot's sim memory region id.
	Region int
	// Reads and Writes return the cumulative per-source-module read and
	// write vectors for the region (nil while no traffic has arrived).
	Reads, Writes func() []uint64
	// Replicate installs a replica of the region on module to, charging
	// the copy to processor p (possibly deferred through a gate).
	Replicate func(p *sim.Proc, to int)
	// Collapse drops all replicas, leaving the primary copy.
	Collapse func(p *sim.Proc)
}

// The replication policy's fixed thresholds.
const (
	// replicaWriteLow and replicaWriteHigh are the write-fraction hysteresis
	// band: replicate only at or below replicaWriteLow, collapse only at or
	// above replicaWriteHigh. The gap is what keeps an alternating workload
	// from flapping replicate<->collapse every phase shift.
	replicaWriteLow  = 0.05
	replicaWriteHigh = 0.25
	// replicaBudget caps replicate+collapse actions per slot over the whole
	// run.
	replicaBudget = 4
	// replicaCooldown is the minimum time between two actions on the same
	// slot: eight windows of the default 100us cadence. It is an absolute
	// duration, not a multiple of the plane's period, so a plane ticking
	// every 25us spaces actions exactly as one ticking every 100us does.
	replicaCooldown sim.Duration = 800 * sim.CyclesPerMicrosecond
)

// ReplicatorParams bounds the replication policy. The zero value takes
// defaults. The shape is the placement daemon's — EWMA-smoothed windows,
// confirmation streak, per-slot budget and cooldown, priced actuation —
// with a write-fraction hysteresis band choosing between the two
// actuators: a read-mostly region is worth replicating (every write then
// pays an update per replica), a write-hot one must collapse back to a
// single copy that migration alone may place.
type ReplicatorParams struct {
	// Decay is the per-window EWMA retention of the smoothed read/write
	// vectors (default 0.75 — the shared controller horizon).
	Decay float64
	// MinWeight is the smoothed per-window access mass (reads + writes) a
	// slot must carry before the policy considers it (default 16).
	MinWeight float64
	// Confirm is the consecutive-window confirmation streak (default 2).
	Confirm int
	// Payback is the rent-vs-buy horizon in windows (default 64): a
	// replica's projected per-window read saving, net of the write-update
	// penalty, must repay the copy cost (Costs.Copy of the region's words).
	Payback int
}

func (p ReplicatorParams) withDefaults() ReplicatorParams {
	if p.Decay == 0 {
		p.Decay = 0.75
	}
	if p.MinWeight == 0 {
		p.MinWeight = 16
	}
	if p.Confirm == 0 {
		p.Confirm = 2
	}
	if p.Payback == 0 {
		p.Payback = 64
	}
	return p
}

// ReplicaAction records one executed (requested) actuation.
type ReplicaAction struct {
	// Slot names the replicated kernel data slot.
	Slot string
	// Kind is "replicate" or "collapse".
	Kind string
	// Module is the replica's module for a replicate, -1 for a collapse.
	Module int
	// At is the simulated time the action was requested.
	At sim.Time
}

// collapseCand is the Streak candidate code for a collapse (replicate
// candidates are module numbers >= 0).
const collapseCand = -2

// Replicator is the replication policy: per window it folds each slot's
// read and write traffic into smoothed vectors, and on a read-mostly slot
// (write fraction through replicaWriteLow) installs a replica on the
// module where the projected read saving — each reader rerouted to its
// nearest copy — net of the write-update penalty best repays the copy
// within the payback horizon. A slot that turns write-hot (write fraction through
// replicaWriteHigh) collapses back to its primary, returning it to the
// migration policy's jurisdiction: the daemon skips replicated regions, so
// replicate vs migrate vs pin is decided by the write fraction alone and
// the two policies can never fight over one slot.
type Replicator struct {
	m       *sim.Machine
	topo    Topo
	costs   Costs
	weights Weights
	p       ReplicatorParams
	// maxReplicas caps the extra copies per slot beyond the primary: one
	// per other station, at least one — one copy per station is where the
	// read saving saturates.
	maxReplicas int
	slots       []*replicaSlotState
	// byRegion indexes the slots by region id (nil where none), so Claimed
	// finds a slot without a search.
	byRegion []*replicaSlotState
	// serving is bestReplica's per-source buffer: the weight of each
	// reader's current nearest copy.
	serving []float64
	actions []ReplicaAction
	ticks   uint64
}

type replicaSlotState struct {
	ReplicaSlot
	reads, writes Window
	gate          Gate
	streak        Streak
	// pending is an in-flight action: a target module for a replicate,
	// collapseCand for a collapse, -1 when idle.
	pending int
}

// NewReplicator builds the policy over machine m managing the given
// slots. Register it on a Plane to run it.
func NewReplicator(m *sim.Machine, topo Topo, costs Costs, params ReplicatorParams, slots []ReplicaSlot) *Replicator {
	r := &Replicator{m: m, topo: topo, costs: costs, weights: NewWeights(topo, costs), p: params.withDefaults(),
		maxReplicas: max(1, topo.Stations-1), serving: make([]float64, topo.Modules())}
	n := topo.Modules()
	for _, s := range slots {
		st := &replicaSlotState{
			ReplicaSlot: s,
			reads:       NewWindow(n, r.p.Decay),
			writes:      NewWindow(n, r.p.Decay),
			gate:        Gate{Budget: replicaBudget, Cooldown: replicaCooldown},
			streak:      NewStreak(r.p.Confirm),
			pending:     -1,
		}
		r.slots = append(r.slots, st)
		if s.Region < 0 {
			continue
		}
		if s.Region >= len(r.byRegion) {
			r.byRegion = append(r.byRegion, make([]*replicaSlotState, s.Region+1-len(r.byRegion))...)
		}
		if r.byRegion[s.Region] == nil {
			r.byRegion[s.Region] = st // the first slot of a region answers Claimed
		}
	}
	return r
}

// Actions returns the action log (oldest first).
func (r *Replicator) Actions() []ReplicaAction { return r.actions }

// Claimed reports whether the policy considers the region its jurisdiction:
// already replicated, or carrying enough smoothed traffic to act on and not
// write-hot. A co-scheduled migration policy passes this as its Yield hook,
// so the plane's division of labor — replicate read-mostly, migrate
// write-hot — holds even before the first replica is installed, instead of
// the daemon racing the replicator to move a slot it is about to copy.
func (r *Replicator) Claimed(region int) bool {
	if region < 0 || region >= len(r.byRegion) || r.byRegion[region] == nil {
		return false
	}
	s := r.byRegion[region]
	if len(r.m.Mem.Replicas(region)) > 0 {
		return true
	}
	sumW := s.writes.Mass()
	weight := s.reads.Mass() + sumW
	return weight >= r.p.MinWeight && sumW < replicaWriteHigh*weight
}

// Name implements Policy.
func (r *Replicator) Name() string { return "replicate" }

// Tick implements Policy: one observation window.
func (r *Replicator) Tick(now sim.Time) {
	r.ticks++
	for _, s := range r.slots {
		// Fold the window into the EWMAs even when the slot cannot act —
		// the signal must stay fresh for when it can.
		s.reads.Fold(s.Reads())
		s.writes.Fold(s.Writes())

		replicas := r.m.Mem.Replicas(s.Region)
		if s.pending != -1 {
			if s.pending == collapseCand && len(replicas) > 0 {
				continue // collapse still in flight behind a gate
			}
			if s.pending != collapseCand && !slices.Contains(replicas, s.pending) {
				continue // replica copy still in flight
			}
			s.pending = -1
		}
		if !s.gate.Ready(now) {
			continue
		}
		sumW := s.writes.Mass()
		weight := s.reads.Mass() + sumW
		if weight < r.p.MinWeight {
			continue
		}
		wf := sumW / weight
		home := r.m.Mem.Home(s.Region)

		if len(replicas) > 0 && wf >= replicaWriteHigh {
			// Write-hot while replicated: every write is paying an update
			// per replica. Collapse back to the single migratable copy.
			if !s.streak.Observe(collapseCand) {
				continue
			}
			s.streak.Clear()
			s.pending = collapseCand
			s.gate.Spend(now)
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "collapse", Module: -1, At: now})
			r.m.SendIPI(home, s.Collapse)
			continue
		}
		if wf <= replicaWriteLow && len(replicas) < r.maxReplicas {
			cand, benefit := r.bestReplica(s, home, replicas, sumW)
			if cand < 0 {
				s.streak.Clear()
				continue
			}
			if !Worthwhile(benefit, r.p.Payback, r.costs.Copy(r.m.Mem.RegionWords(s.Region))) {
				s.streak.Clear()
				continue
			}
			if !s.streak.Observe(cand) {
				continue
			}
			s.streak.Clear()
			to := cand
			s.pending = to
			s.gate.Spend(now)
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "replicate", Module: to, At: now})
			rep := s.Replicate
			r.m.SendIPI(home, func(p *sim.Proc) { rep(p, to) })
			continue
		}
		// Inside the hysteresis band (or already fully replicated): no
		// action, and no stale streak to confirm later.
		s.streak.Clear()
	}
}

// bestReplica picks the candidate module whose replica yields the largest
// net per-window benefit: each reader's traffic rerouted from its current
// nearest copy to the candidate when closer, minus the write-update
// penalty of one more copy. Returns (-1, 0) when no candidate nets out
// positive. Each reader's current weight is found once per call, and
// each candidate priced once.
func (r *Replicator) bestReplica(s *replicaSlotState, home int, replicas []int, sumW float64) (int, float64) {
	n := r.topo.Modules()
	w := r.weights
	serving := r.serving
	for src := range serving {
		c := w.Of(src, home)
		for _, m := range replicas {
			if v := w.Of(src, m); v < c {
				c = v
			}
		}
		serving[src] = c
	}
	best, bestBenefit := -1, 0.0
	for cand := 0; cand < n; cand++ {
		if cand == home || slices.Contains(replicas, cand) {
			continue
		}
		var saving float64
		for src, reads := range s.reads.V {
			if reads == 0 {
				continue
			}
			cur := serving[src]
			if c := w.Of(src, cand); c < cur {
				saving += reads * (cur - c)
			}
		}
		// Every write to the region now also updates the new copy.
		benefit := saving - sumW*w.Of(home, cand)
		if benefit > bestBenefit {
			best, bestBenefit = cand, benefit
		}
	}
	return best, bestBenefit
}

// Report renders the action log as an indented block.
func (r *Replicator) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replication policy: %d windows, %d actions\n", r.ticks, len(r.actions))
	for _, a := range r.actions {
		if a.Kind == "collapse" {
			fmt.Fprintf(&b, "  t=%-12v %-12s collapse to primary\n", a.At, a.Slot)
		} else {
			fmt.Fprintf(&b, "  t=%-12v %-12s replicate -> module %d\n", a.At, a.Slot, a.Module)
		}
	}
	return b.String()
}
