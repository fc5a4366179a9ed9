package locks

import "hurricane/internal/sim"

// TryLockV1 is the paper's first TryLock attempt (§3.2): each processor's
// pre-allocated queue node carries an in-use flag, set on acquire and
// cleared on release. An interrupt handler checks the flag: if clear, it
// cannot have interrupted a holder/waiter on this processor, so it may
// safely enqueue and wait (not a true TryLock — it waits — but it prevents
// deadlock). The flag maintenance adds two stores to every acquire/release
// pair, degrading the uncontended base performance, which is why the paper
// moved on to V2.
type TryLockV1 struct {
	mcs   *MCS
	inuse []sim.Addr // per-processor flag, local memory
}

// NewTryLockV1 builds the flag-based variant over an H2-MCS lock homed on
// module home.
func NewTryLockV1(m *sim.Machine, home int) *TryLockV1 {
	l := &TryLockV1{
		mcs:   NewMCS(m, home, VariantH2),
		inuse: make([]sim.Addr, m.NumProcs()),
	}
	for i := range l.inuse {
		l.inuse[i] = m.Alloc(i, 1)
	}
	return l
}

// Name implements Lock.
func (l *TryLockV1) Name() string { return "TryLockV1" }

// Home implements Lock.
func (l *TryLockV1) Home() int { return l.mcs.Home() }

// Acquire implements Lock: H2-MCS plus the in-use flag store.
func (l *TryLockV1) Acquire(p *sim.Proc) {
	p.Store(l.inuse[p.ID()], 1) // the extra store the paper regrets
	l.mcs.Acquire(p)
}

// Release implements Lock.
func (l *TryLockV1) Release(p *sim.Proc) {
	l.mcs.Release(p)
	p.Store(l.inuse[p.ID()], 0) // the other extra store
}

// TryAcquire implements TryLocker. Called from an interrupt handler: if the
// local node is in use we interrupted a holder or waiter and must back off;
// otherwise enqueueing is deadlock-free, so wait for the lock.
func (l *TryLockV1) TryAcquire(p *sim.Proc) bool {
	if p.Load(l.inuse[p.ID()]) != 0 {
		p.Branch(1)
		return false
	}
	p.Branch(1)
	l.Acquire(p)
	return true
}

// TryLockV2 is the paper's second variant: a true TryLock. Interrupt
// handlers use a separate local queue node; a handler that discovers the
// lock already held abandons its node in the queue and returns failure, and
// abandoned nodes are garbage-collected by later Release operations. The
// grant/abandon race is resolved by a swap handshake on the node's state
// word. This variant only adds overhead to Release in the contended case —
// but, as §3.2 observes, it is fundamentally unfair to remote retry-based
// callers: a saturated lock is handed queue-to-queue among local waiters
// and a TryAcquire never sees it free.
type TryLockV2 struct {
	lock sim.Addr
	// nodes are the normal acquire nodes; tryNodes the interrupt-handler
	// nodes. current records which node a holder used, for Release.
	nodes    []sim.Addr
	tryNodes []sim.Addr
	current  []sim.Addr
}

// Node state word values for TryLockV2. Granted must be 0 so the waiting
// spin matches the MCS "locked" convention.
const (
	v2Granted   = 0
	v2Waiting   = 1
	v2Abandoned = 2
	v2Free      = 3
)

// Node layout: next (offset 0), state (offset 1).

// NewTryLockV2 builds the abandon/GC variant homed on module home.
func NewTryLockV2(m *sim.Machine, home int) *TryLockV2 {
	l := &TryLockV2{
		lock:     m.Alloc(home, 1),
		nodes:    make([]sim.Addr, m.NumProcs()),
		tryNodes: make([]sim.Addr, m.NumProcs()),
		current:  make([]sim.Addr, m.NumProcs()),
	}
	for i := range l.nodes {
		l.nodes[i] = m.Alloc(i, 2)
		m.Mem.Poke(l.nodes[i]+qnLocked, v2Waiting)
		l.tryNodes[i] = m.Alloc(i, 2)
		m.Mem.Poke(l.tryNodes[i]+qnLocked, v2Free)
	}
	return l
}

// Name implements Lock.
func (l *TryLockV2) Name() string { return "TryLockV2" }

// Home implements Lock.
func (l *TryLockV2) Home() int { return l.lock.Module() }

// Acquire implements Lock (the normal, waiting path — H1/H2 style).
func (l *TryLockV2) Acquire(p *sim.Proc) {
	i := l.nodes[p.ID()]
	l.current[p.ID()] = i
	p.Reg(1)
	pred := sim.Addr(p.Swap(l.lock, uint64(i)))
	p.Branch(2)
	if pred == 0 {
		return
	}
	p.Store(pred+qnNext, uint64(i))
	p.WaitLocal(i+qnLocked, func(v uint64) bool { return v == v2Granted })
	p.Store(i+qnLocked, v2Waiting) // re-init off the uncontended path
}

// TryAcquire implements TryLocker: a single attempt that never waits. On
// failure the node stays in the queue (state abandoned) until a Release
// garbage-collects it; further attempts before that fail immediately.
func (l *TryLockV2) TryAcquire(p *sim.Proc) bool {
	i := l.tryNodes[p.ID()]
	if p.Load(i+qnLocked) != v2Free {
		p.Branch(1)
		return false // still queued from an earlier failed attempt
	}
	p.Branch(1)
	p.Store(i+qnLocked, v2Waiting)
	p.Store(i+qnNext, 0)
	p.Reg(1)
	pred := sim.Addr(p.Swap(l.lock, uint64(i)))
	p.Branch(1)
	if pred == 0 {
		l.current[p.ID()] = i
		return true
	}
	// Lock held: link (so a releaser can find and GC us), then abandon.
	p.Store(pred+qnNext, uint64(i))
	old := p.Swap(i+qnLocked, v2Abandoned)
	p.Branch(1)
	if old == v2Granted {
		// The releaser granted us the lock in the window before we
		// abandoned: we hold it after all. Repair the state word.
		p.Store(i+qnLocked, v2Waiting)
		l.current[p.ID()] = i
		return true
	}
	return false
}

// Release implements Lock: hand the lock to the first live successor,
// garbage-collecting abandoned interrupt nodes along the way.
func (l *TryLockV2) Release(p *sim.Proc) {
	node := l.current[p.ID()]
	mine := node
	for {
		succ := sim.Addr(p.Load(node + qnNext))
		p.Branch(1)
		if succ == 0 {
			old := sim.Addr(p.Swap(l.lock, 0))
			p.Branch(1)
			if old == node {
				l.reclaim(p, node, mine)
				return // queue empty; lock free
			}
			// Someone enqueued: restore the tail and find our successor.
			usurper := sim.Addr(p.Swap(l.lock, uint64(old)))
			succ = sim.Addr(p.WaitLocal(node+qnNext, func(v uint64) bool { return v != 0 }))
			p.Store(node+qnNext, 0)
			p.Branch(1)
			if usurper != 0 {
				// Usurpers took the lock; splice our successors behind.
				p.Store(usurper+qnNext, uint64(succ))
				l.reclaim(p, node, mine)
				return
			}
		} else {
			p.Store(node+qnNext, 0)
		}
		l.reclaim(p, node, mine)
		// Grant succ via the state-word handshake.
		old := p.Swap(succ+qnLocked, v2Granted)
		p.Branch(1)
		if old == v2Waiting {
			return // a live waiter now owns the lock
		}
		// Abandoned node: we still hold the lock; keep passing from it.
		node = succ
	}
}

// reclaim marks a garbage-collected abandoned node free for reuse. Our own
// node needs no reclamation unless it is a try node.
func (l *TryLockV2) reclaim(p *sim.Proc, node, mine sim.Addr) {
	if node == mine {
		if node == l.tryNodes[p.ID()] {
			p.Store(node+qnLocked, v2Free)
		}
		return
	}
	p.Store(node+qnLocked, v2Free)
}
