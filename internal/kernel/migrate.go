package kernel

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// SlotRef names one migratable kernel-data slot: cluster c's slot-th data
// stripe, backed by a sim memory region whose physical home the online
// placement daemon may move.
type SlotRef struct {
	Cluster int
	Slot    int
	// Region is the slot's virtual module id (≥ NumModules). Resolve its
	// current physical home with Machine.Mem.Home(Region).
	Region int
	// Label, when set, names the slot in reports instead of the default
	// c<N>/slot<M> (workload-registered slots — see RegisterSlot).
	Label string
}

// Name labels the slot in reports and move logs.
func (s SlotRef) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("c%d/slot%d", s.Cluster, s.Slot)
}

// MigratableSlots lists every kernel-data slot the autonomics policies may
// act on, in (cluster, slot) order: the VM's built-in slots (present under
// Config.Migratable) followed by workload-registered extras (RegisterSlot).
func (k *Kernel) MigratableSlots() []SlotRef {
	var refs []SlotRef
	if v := k.VM; v.slotRegions != nil {
		for c, slots := range v.slotRegions {
			for s, region := range slots {
				refs = append(refs, SlotRef{Cluster: c, Slot: s, Region: region})
			}
		}
	}
	refs = append(refs, k.extras...)
	return refs
}

// slotRef resolves a (cluster, slot) pair to its SlotRef: VM slots under
// Config.Migratable, then workload extras.
func (k *Kernel) slotRef(c, slot int) SlotRef {
	if slot < slotsPerCluster {
		if k.VM.slotRegions == nil {
			panic("kernel: slot migration without Config.Migratable")
		}
		return SlotRef{Cluster: c, Slot: slot, Region: k.VM.slotRegions[c][slot]}
	}
	for _, e := range k.extras {
		if e.Cluster == c && e.Slot == slot {
			return e
		}
	}
	panic(fmt.Sprintf("kernel: unknown slot c%d/slot%d", c, slot))
}

// migrationLock is the lock that guards a slot's data against concurrent
// kernel use: the cluster's coarse memory-manager lock for the MM slots,
// the address-space table's own lock for the AS slot. Holding it for the
// duration of the copy is the paper-realistic "brief migration lock" — the
// fault path stalls behind it exactly as it would behind any other holder.
func (k *Kernel) migrationLock(c, slot int) locks.Lock {
	if slot == 3 {
		return k.VM.aspaces[c].Lock()
	}
	return k.VM.mmLocks[c]
}

// actOnSlot is the body every slot actuation shares: act runs masked
// against interrupt handlers (the gate) and under the slot's guarding lock
// (migrationLock); after the gate exits, record counts the actuation in
// Stats and names its span's target module and argument; then the span,
// named name and timed from before the gate, and the slot's replica-set
// check, blamed on `when`, follow.
func (k *Kernel) actOnSlot(p *sim.Proc, ref SlotRef, name, when string, act func(), record func() (to int, arg uint64)) {
	l := k.migrationLock(ref.Cluster, ref.Slot)
	start := p.Now()
	k.Gate.Enter(p)
	l.Acquire(p)
	act()
	l.Release(p)
	k.Gate.Exit(p)
	to, arg := record()
	k.M.EmitSpan(sim.SpanMigrate, name, p.ID(), start, p.Now(), to, arg)
	k.checkReplicaSet(ref, when)
}

// MigrateSlot re-homes cluster c's kernel-data slot onto physical module
// `to`, charging the full cost to processor p: the slot's guarding lock is
// held across a DMA-style copy burst that occupies the source module, the
// interconnect along the path, and the destination module for one service
// time per allocated word (sim.Memory.MigrateRegion). It reports the words
// copied (0 if the slot already lives on `to`, in which case no lock is
// taken and no cost is charged). Panics unless Config.Migratable is set.
//
// Call it from any processor context, including an IPI handler dispatched
// through the Gate — the daemon's executor does exactly that, interrupting
// the processor co-located with the slot's current home.
func (k *Kernel) MigrateSlot(p *sim.Proc, c, slot, to int) int {
	ref := k.slotRef(c, slot)
	region := ref.Region
	if k.M.Mem.Home(region) == to && !k.M.Mem.Replicated(region) {
		return 0
	}
	var words int
	var cost sim.Duration
	k.actOnSlot(p, ref, "migrate", "after a migration", func() {
		// A replicated slot collapses before its primary moves: migration
		// under live replicas is undefined (the copies would point at stale
		// homes).
		if n := k.M.Mem.CollapseRegion(region); n > 0 {
			k.Stats.Collapses++
		}
		words, cost = k.M.Mem.MigrateRegion(p, region, to)
	}, func() (int, uint64) {
		k.Stats.Migrations++
		k.Stats.MigratedWords += uint64(words)
		k.Stats.MigrationCycles += uint64(cost)
		return to, uint64(words)
	})
	return words
}

// ReplicateSlot installs a copy of cluster c's kernel-data slot on physical
// module `to`, charging the copy burst to processor p under the slot's
// guarding lock, exactly like MigrateSlot charges a move. Returns the words
// copied (0 if `to` already holds a copy — no lock taken, no cost).
func (k *Kernel) ReplicateSlot(p *sim.Proc, c, slot, to int) int {
	ref := k.slotRef(c, slot)
	region := ref.Region
	if k.M.Mem.NearestCopy(region, to) == to {
		return 0
	}
	var words int
	var cost sim.Duration
	k.actOnSlot(p, ref, "replicate", "after a replication", func() {
		words, cost = k.M.Mem.ReplicateRegion(p, region, to)
	}, func() (int, uint64) {
		k.Stats.Replications++
		k.Stats.ReplicatedWords += uint64(words)
		k.Stats.ReplicationCycles += uint64(cost)
		return to, uint64(words)
	})
	return words
}

// CollapseSlot drops every replica of cluster c's kernel-data slot,
// returning how many were dropped (0 when unreplicated — no lock taken).
// The invalidation itself is free; the lock hold serializes it against
// concurrent kernel use of the slot.
func (k *Kernel) CollapseSlot(p *sim.Proc, c, slot int) int {
	ref := k.slotRef(c, slot)
	region := ref.Region
	if !k.M.Mem.Replicated(region) {
		return 0
	}
	var n int
	k.actOnSlot(p, ref, "collapse", "after a collapse", func() {
		n = k.M.Mem.CollapseRegion(region)
	}, func() (int, uint64) {
		if n > 0 {
			k.Stats.Collapses++
		}
		return k.M.Mem.Home(region), uint64(n)
	})
	return n
}
