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
	l := k.migrationLock(c, slot)
	start := p.Now()
	k.Gate.Enter(p)
	l.Acquire(p)
	// A replicated slot collapses before its primary moves: migration under
	// live replicas is undefined (the copies would point at stale homes).
	if n := k.M.Mem.CollapseRegion(region); n > 0 {
		k.Stats.Collapses++
	}
	words, cost := k.M.Mem.MigrateRegion(p, region, to)
	l.Release(p)
	k.Gate.Exit(p)
	k.Stats.Migrations++
	k.Stats.MigratedWords += uint64(words)
	k.Stats.MigrationCycles += uint64(cost)
	k.M.EmitSpan(sim.SpanMigrate, "migrate", p.ID(), start, p.Now(), to, uint64(words))
	k.checkReplicaSet(ref, "after a migration")
	return words
}

// ReplicateSlot installs a copy of cluster c's kernel-data slot on physical
// module `to`, charging the copy burst to processor p under the slot's
// guarding lock, exactly like MigrateSlot charges a move. Returns the words
// copied (0 if `to` already holds a copy — no lock taken, no cost).
func (k *Kernel) ReplicateSlot(p *sim.Proc, c, slot, to int) int {
	ref := k.slotRef(c, slot)
	region := ref.Region
	if k.M.Mem.Home(region) == to {
		return 0
	}
	for _, r := range k.M.Mem.Replicas(region) {
		if r == to {
			return 0
		}
	}
	l := k.migrationLock(c, slot)
	start := p.Now()
	k.Gate.Enter(p)
	l.Acquire(p)
	words, cost := k.M.Mem.ReplicateRegion(p, region, to)
	l.Release(p)
	k.Gate.Exit(p)
	k.Stats.Replications++
	k.Stats.ReplicatedWords += uint64(words)
	k.Stats.ReplicationCycles += uint64(cost)
	k.M.EmitSpan(sim.SpanMigrate, "replicate", p.ID(), start, p.Now(), to, uint64(words))
	k.checkReplicaSet(ref, "after a replication")
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
	l := k.migrationLock(c, slot)
	start := p.Now()
	k.Gate.Enter(p)
	l.Acquire(p)
	n := k.M.Mem.CollapseRegion(region)
	l.Release(p)
	k.Gate.Exit(p)
	if n > 0 {
		k.Stats.Collapses++
	}
	k.M.EmitSpan(sim.SpanMigrate, "collapse", p.ID(), start, p.Now(), k.M.Mem.Home(region), uint64(n))
	k.checkReplicaSet(ref, "after a collapse")
	return n
}
