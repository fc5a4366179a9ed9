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
	// above replicaWriteHigh (and only once the replica set has lost more
	// than a copy's price, see Replicator). The gap is what keeps an
	// alternating workload from flapping replicate<->collapse every phase
	// shift.
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
// pays an update per replica), a write-hot one whose updates have cost
// more than its copies saved must collapse back to a single copy that
// migration alone may place.
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

// ReplicaAction records one executed (requested) actuation and the priced
// inputs that fired it, in weighted access cycles.
type ReplicaAction struct {
	// Slot names the replicated kernel data slot.
	Slot string
	// Kind is "replicate" or "collapse".
	Kind string
	// Module is the replica's module for a replicate, -1 for a collapse.
	Module int
	// At is the simulated time the action was requested.
	At sim.Time
	// Benefit is a replicate's projected per-window read saving net of the
	// new copy's write updates (0 for a collapse).
	Benefit float64
	// Saved and Charged are a collapse's ledger since the replica set last
	// changed: the read cycles its copies saved and the write-update cycles
	// they charged (0 for a replicate).
	Saved, Charged float64
	// Copy is the price of one copy of the region: what a replicate's
	// payback horizon must repay, and what a collapse's net loss exceeded.
	Copy float64
}

// collapseCand is the Streak candidate code for a collapse (replicate
// candidates are module numbers >= 0).
const collapseCand = -2

// Replicator is the replication policy: per window it folds each slot's
// read and write traffic into smoothed vectors, and on a read-mostly slot
// (write fraction through replicaWriteLow) installs a replica on the
// module where the projected read saving — each reader rerouted to its
// nearest copy — net of the new copy's write updates best repays the copy
// within the payback horizon.
//
// Collapse is priced the same way, after the fact. While a slot is
// replicated the policy keeps a ledger of each window's raw traffic since
// the replica set last changed: a read served by a nearer copy saved the
// weight difference to the primary, and a write charged one update per
// copy from its writer's module, as Memory.access charges it. A replicated
// slot collapses back to its primary only when its smoothed write fraction
// is through replicaWriteHigh AND the updates have cost more than the
// reads saved by over one copy's price: a smoothed write fraction spans
// only a few requests, so one write burst on read-mostly data crosses the
// band without repaying anything, and the ledger keeps that data
// replicated. A collapse returns the slot to the migration policy's
// jurisdiction: the daemon skips replicated regions and yields claimed
// ones, so the two policies can never fight over one slot.
type Replicator struct {
	m       *sim.Machine
	topo    Topo
	costs   Costs
	weights Weights
	p       ReplicatorParams
	// maxReplicas caps the extra copies per slot beyond the primary: one
	// per other station, at least one. It is a budget on copies and their
	// write updates, not where the read saving stops: on HECTOR-16 a
	// second copy inside a station still turns its own processor's reads
	// from station to local (19 to 10 cycles).
	maxReplicas int
	slots       []*replicaSlotState
	// byRegion indexes the slots by region id (nil where none), so Claimed
	// finds a slot without a search.
	byRegion []*replicaSlotState
	// saving is bestReplica's per-candidate buffer: the read saving a copy
	// on each module would bring.
	saving  []float64
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
	// copies is the size of the replica set the ledger prices; a set only
	// grows by one copy or collapses to none, so a new size is a new set.
	copies int
	// saved and charged are the ledger: the read cycles the current
	// replica set saved and the write-update cycles it charged, summed
	// over the raw windows since the set last changed.
	saved, charged float64
}

// NewReplicator builds the policy over machine m managing the given
// slots. Register it on a Plane to run it.
func NewReplicator(m *sim.Machine, topo Topo, costs Costs, params ReplicatorParams, slots []ReplicaSlot) *Replicator {
	r := &Replicator{m: m, topo: topo, costs: costs, weights: NewWeights(topo, costs), p: params.withDefaults(),
		maxReplicas: max(1, topo.Stations-1), saving: make([]float64, topo.Modules())}
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
		home := r.m.Mem.Home(s.Region)
		// The ledger prices the current replica set alone: a new set,
		// grown by a copy or collapsed, starts from zero.
		if len(replicas) != s.copies {
			s.copies, s.saved, s.charged = len(replicas), 0, 0
		}
		if len(replicas) > 0 {
			r.price(s, home, replicas)
		}
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
		copyCost := r.costs.Copy(r.m.Mem.RegionWords(s.Region))

		if len(replicas) > 0 && wf >= replicaWriteHigh && s.charged-s.saved > copyCost {
			// Write-hot while replicated, and the updates have already cost
			// more than a copy beyond what the reads saved. Collapse back to
			// the single migratable copy.
			if !s.streak.Observe(collapseCand) {
				continue
			}
			s.streak.Clear()
			s.pending = collapseCand
			s.gate.Spend(now)
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "collapse", Module: -1, At: now,
				Saved: s.saved, Charged: s.charged, Copy: copyCost})
			r.m.SendIPI(home, s.Collapse)
			continue
		}
		if wf <= replicaWriteLow && len(replicas) < r.maxReplicas {
			cand, benefit := r.bestReplica(s, home, replicas)
			if cand < 0 {
				s.streak.Clear()
				continue
			}
			if !Worthwhile(benefit, r.p.Payback, copyCost) {
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
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "replicate", Module: to, At: now,
				Benefit: benefit, Copy: copyCost})
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
// nearest copy to the candidate when closer, minus the updates one more
// copy would charge the smoothed writes. Returns (-1, 0) when no candidate
// nets out positive. Each reader's row of weights is walked once, summing
// every candidate's saving in reader order, and a candidate's updates are
// priced only when its saving could still win.
func (r *Replicator) bestReplica(s *replicaSlotState, home int, replicas []int) (int, float64) {
	saving := r.saving
	clear(saving)
	for src, reads := range s.reads.V {
		if reads == 0 {
			continue
		}
		row := r.weights.Row(src)
		cur := nearest(row, home, replicas)
		for cand, c := range row {
			if c < cur {
				saving[cand] += reads * (cur - c)
			}
		}
	}
	best, bestBenefit := -1, 0.0
	for cand, sv := range saving {
		// An existing copy, the primary included, is no nearer to any
		// reader than its nearest copy, so it saves nothing; and updates
		// cost >= 0, so a saving at or below the best cannot win.
		if sv <= bestBenefit {
			continue
		}
		// Every write to the region now also updates the new copy.
		if benefit := sv - r.updates(s.writes.V, cand); benefit > bestBenefit {
			best, bestBenefit = cand, benefit
		}
	}
	return best, bestBenefit
}

// nearest is the weight, in row (one source module's weights), of the
// source's nearest copy: the primary on module home or a replica.
func nearest(row []float64, home int, replicas []int) float64 {
	c := row[home]
	for _, m := range replicas {
		c = min(c, row[m])
	}
	return c
}

// updates prices the update transfers a copy on module to charges a
// window of writes (count by source module): one from each writer's
// module, as Memory.access charges them. Both sides of the policy price
// updates with it.
func (r *Replicator) updates(writes []float64, to int) float64 {
	var c float64
	for src, n := range writes {
		if n != 0 {
			c += n * r.weights.Row(src)[to]
		}
	}
	return c
}

// price adds the last window's raw traffic to the slot's ledger under the
// current replica set: each read saved the primary's weight less its
// nearest copy's, and each copy charged every write its update.
func (r *Replicator) price(s *replicaSlotState, home int, replicas []int) {
	wrote := false
	for src, n := range s.reads.Raw {
		wrote = wrote || s.writes.Raw[src] != 0
		if n == 0 {
			continue
		}
		row := r.weights.Row(src)
		s.saved += n * (row[home] - nearest(row, home, replicas))
	}
	if !wrote {
		return // most windows of read-mostly data charge nothing
	}
	for _, m := range replicas {
		s.charged += r.updates(s.writes.Raw, m)
	}
}

// Report renders the action log as an indented block.
func (r *Replicator) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replication policy: %d windows, %d actions\n", r.ticks, len(r.actions))
	for _, a := range r.actions {
		if a.Kind == "collapse" {
			fmt.Fprintf(&b, "  t=%-12v %-12s collapse to primary: updates %.0f - saved %.0f > copy %.0f cycles\n",
				a.At, a.Slot, a.Charged, a.Saved, a.Copy)
		} else {
			fmt.Fprintf(&b, "  t=%-12v %-12s replicate -> module %d: saves %.1f cycles/window, copy %.0f\n",
				a.At, a.Slot, a.Module, a.Benefit, a.Copy)
		}
	}
	return b.String()
}
