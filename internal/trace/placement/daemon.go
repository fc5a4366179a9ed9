package placement

import (
	"fmt"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/kernel"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
)

// DaemonParams bounds the online placement controller. The zero value takes
// defaults. The controller shape deliberately mirrors internal/tune's lock
// tuner: a fixed sampling cadence (the autonomics plane's, zero simulated
// cost), EWMA smoothing of the windowed signal so one-window bursts cannot
// trigger action, and a hysteresis/indifference band plus hard budgets so
// the feedback loop cannot thrash. The cadence is the plane's alone: each
// of its ticks diffs the live trace.Aggregate region vectors into one
// observation window, and two moves of one slot are at least eight windows
// apart.
type DaemonParams struct {
	// Decay is the per-window EWMA retention of the smoothed access
	// vectors (default 0.75, a ~4-window horizon — the same constant tune
	// uses for its wait and utilization signals, and for the same reason:
	// per-window NUMA traffic is bursty, and decisions taken on raw
	// windows flap).
	Decay float64
	// MinWeight is the smoothed per-window access mass a slot must carry
	// before the daemon will consider moving it (default 16). Cold slots
	// are never touched: a move's copy charge can only be repaid by
	// traffic that exists.
	MinWeight float64
	// Improve is the indifference band: a move happens only when the
	// current home's projected cost exceeds the best candidate's by more
	// than this fraction (default 0.10 — wider than the offline analyzer's
	// 2%, because an online move charges real copy traffic and a marginal
	// improvement cannot repay it).
	Improve float64
	// Budget caps how many times one slot may move over the whole run
	// (default 4). With hysteresis this is belt-and-braces; it also bounds
	// worst-case migration traffic for an adversarial workload.
	Budget int
	// Confirm is how many consecutive windows the same destination must win
	// before the move executes (default 2). A burst shorter than Confirm
	// windows — one processor's single fault, say — can nominate a
	// destination but never confirm it, so only sustained shifts move data.
	Confirm int
	// Yield, when non-nil, marks regions another policy has claimed: the
	// daemon folds their windows but never moves them. Attach wires it to
	// the replication policy's Claimed when both run, so a read-mostly
	// slot the replicator is about to copy is never shuffled by the
	// migrator first (nil: the daemon only defers to already-installed
	// replicas).
	Yield func(region int) bool
}

func (p DaemonParams) withDefaults() DaemonParams {
	if p.Decay == 0 {
		p.Decay = 0.75
	}
	if p.MinWeight == 0 {
		p.MinWeight = 16
	}
	if p.Improve == 0 {
		p.Improve = 0.10
	}
	if p.Budget == 0 {
		p.Budget = 4
	}
	if p.Confirm == 0 {
		p.Confirm = 2
	}
	return p
}

// payback is the rent-vs-buy horizon, in windows: a move executes only if
// its projected per-window saving repays the copy's estimated cost
// (autonomic.Costs.Copy of the region's words) within payback windows. This
// is what keeps large slots from chasing small improvements — the copy
// grows with the slot, the saving does not — while leaving small slots
// cheap to re-home.
const payback = 64

// DaemonSlot is one migratable object under daemon management.
type DaemonSlot struct {
	// Name labels the slot in the move log.
	Name string
	// Region is the slot's sim memory region id; the live aggregate's
	// accesses to it by source module, reads plus writes, are the daemon's
	// control signal.
	Region int
	// Migrate performs the move on processor p. It may defer through an
	// interrupt gate; the daemon detects completion by watching the
	// region's physical home, not by callback.
	Migrate func(p *sim.Proc, to int)
}

// Move records one executed (requested) migration and the priced inputs
// that fired it, in weighted access cycles.
type Move struct {
	Slot     string
	From, To int
	At       sim.Time
	// Saves is the projected per-window access saving of the new home over
	// the old one, from the smoothed window the move was decided on.
	Saves float64
	// Copy is the price of copying the region, which Saves had to repay
	// within the payback horizon.
	Copy float64
}

// Daemon is the online placement controller. It is an autonomic.Policy with
// no cadence of its own: at every tick of the plane it runs on, it sums
// the live aggregate's per-region read and write vectors into a buffer it
// owns, diffs that into a window, EWMA-smooths it, asks the analyzer's
// propose() for a ring-minimizing home against the machine's cost model,
// and — when the improvement clears the Improve band and the slot has
// budget and cooldown headroom — executes the move by interrupting the
// processor co-located with the slot's current home. The migration itself
// (copy burst + brief migration lock) is charged by the kernel's
// MigrateSlot path; the daemon's own observation and decision cycle costs
// no simulated time, so a daemon that never finds a worthwhile move leaves
// the run bit-identical.
type Daemon struct {
	m       *sim.Machine
	agg     *trace.Aggregate
	costs   autonomic.Costs
	weights autonomic.Weights
	p       DaemonParams
	slots   []*slotState
	moves   []Move
	ticks   uint64
	// load and cost are Tick's per-module buffers: the projected load and
	// propose's per-candidate costs.
	load, cost []float64
	// access is Tick's per-source buffer: one region's reads plus writes.
	access []uint64
}

type slotState struct {
	DaemonSlot
	win    autonomic.Window // the region's smoothed access vector, propose's input
	gate   autonomic.Gate   // per-slot move budget + cooldown
	target int              // requested home of an in-flight move, -1 when idle
	streak autonomic.Streak // destination confirmation across windows
}

// NewDaemon builds a daemon over machine m, observing the live aggregate
// agg (which must be installed as the machine's tracer and count the
// accesses of topo's modules) and managing the given slots. Register it on
// an autonomic.Plane to begin sampling; Attach does both.
func NewDaemon(m *sim.Machine, agg *trace.Aggregate, topo autonomic.Topo, costs autonomic.Costs, params DaemonParams, slots []DaemonSlot) *Daemon {
	n := modules(agg, topo)
	d := &Daemon{m: m, agg: agg, costs: costs, weights: autonomic.NewWeights(topo, costs), p: params.withDefaults(),
		load: make([]float64, n), cost: make([]float64, n), access: make([]uint64, n)}
	for _, s := range slots {
		d.slots = append(d.slots, &slotState{
			DaemonSlot: s,
			win:        autonomic.NewWindow(n, d.p.Decay),
			// The cooldown between two moves of one slot is eight windows
			// of the plane (the gate's clock is the window count), so an
			// oscillating workload at most flips a slot once per cooldown
			// until the budget runs out.
			gate:   autonomic.Gate{Budget: d.p.Budget, Cooldown: 8},
			target: -1,
			streak: autonomic.NewStreak(d.p.Confirm),
		})
	}
	return d
}

// Moves returns the move log (oldest first).
func (d *Daemon) Moves() []Move { return d.moves }

// Name implements autonomic.Policy.
func (d *Daemon) Name() string { return "migrate" }

// Tick implements autonomic.Policy: one observation window. It consumes no
// simulated time; the only feedback path into the simulation is the
// migrations the daemon requests, so determinism holds as it does for
// tune's samplers.
func (d *Daemon) Tick(now sim.Time) {
	d.ticks++
	// Projected per-module load for propose()'s tie-breaking, from the
	// cumulative physical access matrix.
	load := d.load
	for i := range load {
		load[i] = float64(d.agg.AccessTotal(i))
	}
	for _, s := range d.slots {
		// Fold this window into the EWMA even when the slot cannot move
		// right now — the signal must stay fresh for when it can.
		s.win.Fold(d.regionAccess(s.Region))
		home := d.m.Mem.Home(s.Region)
		if s.target >= 0 {
			if home != s.target {
				continue // move still in flight (deferred behind a gate)
			}
			s.target = -1
		}
		// A replicated slot belongs to the replication policy until it
		// collapses back to one copy: migrating the primary under live
		// replicas is not a defined operation. A claimed one (Yield) is
		// spoken for the same way before the first copy even lands.
		if d.m.Mem.Replicated(s.Region) {
			continue
		}
		if d.p.Yield != nil && d.p.Yield(s.Region) {
			s.streak.Clear()
			continue
		}
		if !s.gate.Ready(sim.Time(d.ticks)) {
			continue
		}
		if s.win.Mass() < d.p.MinWeight {
			continue
		}
		to, cur, next := propose(home, s.win.V, d.weights, load, d.cost, d.p.Improve)
		var benefit, copyCost float64
		if to != home {
			// Rent vs buy: the per-window saving must repay the copy
			// within the payback horizon.
			benefit = cur - next
			copyCost = d.costs.Copy(d.m.Mem.RegionWords(s.Region))
			if !autonomic.Worthwhile(benefit, payback, copyCost) {
				to = home
			}
		}
		if to == home {
			s.streak.Clear()
			continue
		}
		if !s.streak.Observe(to) {
			continue
		}
		s.streak.Clear()
		s.target = to
		s.gate.Spend(sim.Time(d.ticks))
		// Shift the slot's cumulative traffic in the projected-load vector
		// so the next slot this tick sees it and near-tied candidates
		// spread instead of piling up (mirrors Analyze's assignment loop).
		slotTotal := s.win.Total()
		load[to] += slotTotal
		load[home] -= slotTotal
		d.moves = append(d.moves, Move{Slot: s.Name, From: home, To: to, At: now, Saves: benefit, Copy: copyCost})
		mig := s.Migrate
		d.m.SendIPI(home, func(h *sim.Proc) { mig(h, to) })
	}
}

// regionAccess returns the live aggregate's cumulative accesses to region
// by source module, reads plus writes, in the daemon's buffer; nil while the
// region has seen no access.
func (d *Daemon) regionAccess(region int) []uint64 {
	reads, writes := d.agg.RegionReads.Of(region), d.agg.RegionWrites.Of(region)
	if reads == nil {
		return nil
	}
	for i := range d.access {
		d.access[i] = reads[i] + writes[i]
	}
	return d.access
}

// Report renders the move log as an indented block, each move with the
// saving and copy price it acted on.
func (d *Daemon) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement daemon: %d windows, %d moves\n", d.ticks, len(d.moves))
	for _, mv := range d.moves {
		fmt.Fprintf(&b, "  t=%-12v %-12s module %d -> %d: saves %.1f cycles/window, copy %.0f\n",
			mv.At, mv.Slot, mv.From, mv.To, mv.Saves, mv.Copy)
	}
	return b.String()
}

// ManageKernel builds the daemon's slot list from a kernel configured with
// Migratable: one DaemonSlot per kernel-data slot, whose Migrate dispatches
// through the kernel's interrupt gate (so a masked processor defers the
// copy to its next gate exit, exactly like an RPC handler).
func ManageKernel(k *kernel.Kernel) []DaemonSlot {
	var slots []DaemonSlot
	for _, ref := range k.MigratableSlots() {
		slots = append(slots, DaemonSlot{
			Name:   ref.Name(),
			Region: ref.Region,
			Migrate: func(p *sim.Proc, to int) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.MigrateSlot(h, ref.Cluster, ref.Slot, to)
				})
			},
		})
	}
	return slots
}

// ReplicateKernel builds the replication policy's slot list from the same
// kernel: per-slot read/write vectors come from the live aggregate's
// split region matrices, and the actuators dispatch through the kernel's
// interrupt gate like migrations do. Attach pairs it with ManageKernel on
// one autonomic.Plane — the daemon skips replicated slots and the
// replicator collapses write-hot ones whose updates have outspent their
// reads, so the two policies hand objects back and forth instead of
// fighting.
func ReplicateKernel(k *kernel.Kernel, agg *trace.Aggregate) []autonomic.ReplicaSlot {
	var slots []autonomic.ReplicaSlot
	for _, ref := range k.MigratableSlots() {
		slots = append(slots, autonomic.ReplicaSlot{
			Name:   ref.Name(),
			Region: ref.Region,
			Reads:  func() []uint64 { return agg.RegionReads.Of(ref.Region) },
			Writes: func() []uint64 { return agg.RegionWrites.Of(ref.Region) },
			Replicate: func(p *sim.Proc, to int) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.ReplicateSlot(h, ref.Cluster, ref.Slot, to)
				})
			},
			Collapse: func(p *sim.Proc) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.CollapseSlot(h, ref.Cluster, ref.Slot)
				})
			},
		})
	}
	return slots
}

// Attach wires the data policies over machine m onto plane and starts the
// plane. The replicator registers first when rp is non-nil, managing
// replicas, then the migration daemon when dp is non-nil, managing slots,
// so each tick's migrator sees the traffic a replication just rerouted.
// When both run, the daemon's Yield is the replicator's Claimed: the
// migrator never moves a slot the replicator is about to copy. Both
// policies read the topology and access costs of m and observe agg, which
// must see m's whole event stream (its tracer, or a sink of its pipeline).
// Each actuation interrupts the processor co-located with the data, so
// every processor must take interrupts (cluster.Serve when idle, as under
// core.System). A kernel's slot lists are ReplicateKernel and ManageKernel.
// A nil return is a policy that does not run.
func Attach(plane *autonomic.Plane, m *sim.Machine, agg *trace.Aggregate, rp *autonomic.ReplicatorParams, replicas []autonomic.ReplicaSlot, dp *DaemonParams, slots []DaemonSlot) (*autonomic.Replicator, *Daemon) {
	topo, costs := autonomic.TopoOf(m.Config()), autonomic.CostsFromLatency(m.Lat())
	var rep *autonomic.Replicator
	var d *Daemon
	if rp != nil {
		rep = autonomic.NewReplicator(m, topo, costs, *rp, replicas)
		plane.Add(rep)
	}
	if dp != nil {
		p := *dp
		if rep != nil {
			p.Yield = rep.Claimed
		}
		d = NewDaemon(m, agg, topo, costs, p, slots)
		plane.Add(d)
	}
	plane.Start(m.Eng)
	return rep, d
}
