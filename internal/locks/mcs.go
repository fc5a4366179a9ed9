package locks

import "hurricane/internal/sim"

// Variant selects which of the paper's distributed-lock versions an MCS
// lock runs (Figure 3a/3b).
type Variant int

const (
	// VariantOriginal is the unmodified Mellor-Crummey/Scott algorithm
	// built from fetch-and-store: queue-node initialization in the acquire
	// path, successor check in the release path.
	VariantOriginal Variant = iota
	// VariantH1 pre-initializes queue nodes once and re-initializes them
	// only on the contended paths that modify them, removing the
	// initialization store from the uncontended acquire (first HURRICANE
	// modification, §3.1).
	VariantH1
	// VariantH2 is VariantH1 with the successor check removed from
	// release: release always swaps the lock word and repairs the queue if
	// a successor existed (second HURRICANE modification, §3.1).
	VariantH2
)

func (v Variant) String() string {
	switch v {
	case VariantOriginal:
		return "MCS"
	case VariantH1:
		return "H1-MCS"
	case VariantH2:
		return "H2-MCS"
	}
	return "MCS?"
}

// Queue-node layout, one node per processor per lock, in the processor's
// local memory. locked is pre-initialized to 1 for the H1/H2 variants
// (waiters spin while locked == 1).
const (
	qnNext   = 0 // Addr of successor's node, 0 if none
	qnLocked = 1 // 1 while the owner must keep waiting
)

// MCS is a distributed (queue) lock. Waiting processors enqueue themselves
// with a single fetch-and-store on the lock word and then spin on a flag in
// their own local memory, so waiting generates no traffic on the
// interconnection network or the lock's home memory module.
type MCS struct {
	variant Variant
	lock    sim.Addr   // tail of the waiter queue; 0 when free
	nodes   []sim.Addr // queue nodes, one per slot (local memory)
	slot    []int      // proc id -> node index (identity for per-proc locks)
}

// NewMCS builds a distributed lock whose lock word lives on module home.
// Queue nodes are allocated in each processor's local memory and, for the
// H1/H2 variants, pre-initialized (next=0, locked=1) as the paper requires.
func NewMCS(m *sim.Machine, home int, v Variant) *MCS {
	homes := make([]int, m.NumProcs())
	slot := make([]int, m.NumProcs())
	for i := range homes {
		homes[i] = i
		slot[i] = i
	}
	return newMCSSlots(m, home, v, homes, slot)
}

// newMCSSlots builds an MCS lock whose queue nodes are shared state indexed
// by slot rather than strictly per processor: nodeHomes[s] is the module
// slot s's node lives on, and slot[id] maps each processor to its slot.
// The cohort lock uses one slot per station for its global lock, so the
// global acquisition a station representative made can be released by a
// different processor of the same station after a batch of local
// hand-offs. Callers must guarantee at most one processor per slot uses
// the lock at a time — exactly what holding the station's local lock
// provides.
func newMCSSlots(m *sim.Machine, home int, v Variant, nodeHomes, slot []int) *MCS {
	l := &MCS{
		variant: v,
		lock:    m.Alloc(home, 1),
		nodes:   make([]sim.Addr, len(nodeHomes)),
		slot:    slot,
	}
	for i, h := range nodeHomes {
		n := m.Alloc(h, 2)
		l.nodes[i] = n
		if v != VariantOriginal {
			// Pre-initialization outside the critical path (H1).
			m.Mem.Poke(n+qnLocked, 1)
		}
	}
	return l
}

// Name implements Lock.
func (l *MCS) Name() string { return l.variant.String() }

// Home implements Lock.
func (l *MCS) Home() int { return l.lock.Module() }

// NodeOf exposes the queue node address of processor id (for tests).
func (l *MCS) NodeOf(id int) sim.Addr { return l.nodes[l.slot[id]] }

// Word exposes the lock word address (for tests).
func (l *MCS) Word() sim.Addr { return l.lock }

// Acquire implements Lock. Instruction charges mirror the MC88100 assembly
// the paper counted in Figure 4: the uncontended path of the original
// variant is 1 atomic + 1 mem + 1 reg + 2 br; H1/H2 drop the mem.
func (l *MCS) Acquire(p *sim.Proc) {
	i := l.nodes[l.slot[p.ID()]]
	if l.variant == VariantOriginal {
		p.Store(i+qnNext, 0) // I->next := nil (init in critical path)
	}
	p.Reg(1) // argument setup for the swap
	pred := sim.Addr(p.Swap(l.lock, uint64(i)))
	p.Branch(2) // predecessor test + return
	if pred == 0 {
		return
	}
	// Contended path: link behind the predecessor and spin locally.
	if l.variant == VariantOriginal {
		p.Store(i+qnLocked, 1) // I->locked := true (init in critical path)
	}
	p.Store(pred+qnNext, uint64(i))
	p.WaitLocal(i+qnLocked, func(v uint64) bool { return v == 0 })
	if l.variant != VariantOriginal {
		// Re-initialize the flag the releaser cleared, so the node is
		// ready for the next acquisition (the H1 discipline: re-init where
		// the modification happened, off the uncontended path).
		p.Store(i+qnLocked, 1)
	}
}

// Release implements Lock.
func (l *MCS) Release(p *sim.Proc) {
	i := l.nodes[l.slot[p.ID()]]
	if l.variant == VariantH2 {
		l.releaseH2(p, i)
		return
	}
	// Original and H1: check for a successor first.
	succ := sim.Addr(p.Load(i + qnNext)) // the Figure 4 "Mem" in release
	p.Branch(1)
	if succ != 0 {
		p.Store(succ+qnLocked, 0)
		if l.variant != VariantOriginal {
			p.Store(i+qnNext, 0) // re-init off the uncontended path
		}
		p.Branch(1) // return
		return
	}
	p.Reg(2) // compare operand setup
	old := sim.Addr(p.Swap(l.lock, 0))
	p.Branch(2) // tail test + return
	if old == i {
		return // no successor: lock is free
	}
	l.repair(p, i, old)
}

// releaseH2 is release with the successor check removed: always swap, and
// repair the queue whenever a successor existed (constant extra overhead in
// the contended case, none in the uncontended case).
func (l *MCS) releaseH2(p *sim.Proc, i sim.Addr) {
	p.Reg(2) // compare operand setup
	old := sim.Addr(p.Swap(l.lock, 0))
	p.Branch(2) // tail test + return
	if old == i {
		return
	}
	l.repair(p, i, old)
}

// repair handles the fetch-and-store race: the lock word was swapped to nil
// while waiters were queued (old is the true tail). Processors that
// enqueued in the window ("usurpers") have taken the lock; our successors
// are spliced in behind them.
func (l *MCS) repair(p *sim.Proc, i, oldTail sim.Addr) {
	usurper := sim.Addr(p.Swap(l.lock, uint64(oldTail)))
	// Our successor may not have stored its link yet.
	succ := sim.Addr(p.WaitLocal(i+qnNext, func(v uint64) bool { return v != 0 }))
	p.Branch(1)
	if usurper != 0 {
		// Usurpers got in: hand our successors to the end of their queue.
		p.Store(usurper+qnNext, uint64(succ))
	} else {
		p.Store(succ+qnLocked, 0)
	}
	if l.variant != VariantOriginal {
		p.Store(i+qnNext, 0)
	}
}
