package locks

import "hurricane/internal/sim"

// DefaultSpillThreshold bounds how many consecutive same-station grants a
// CNA lock performs before it splices the deferred (secondary) queue back
// in front and grants in plain FIFO order — the CNA starvation bound,
// playing the same role as the cohort lock's batch limit.
const DefaultSpillThreshold = 16

// CNA is a compact NUMA-aware queue lock: a single MCS-style queue whose
// release reorders waiters by station instead of keeping per-station lock
// state. The releaser scans the primary queue for the first waiter on its
// own station, moves the skipped (remote) waiters to a secondary queue,
// and grants locally; after spill consecutive same-station grants
// — or when no local waiter exists — the secondary queue is spliced back
// in front of the primary queue and the lock is granted in arrival order.
// Locality batching thus costs one pointer scan per release and two words
// of lock state, not a lock per station.
//
// Enqueueing is a single fetch-and-store on the tail word and waiting is a
// local spin on the waiter's own node, exactly as in MCS; the scan's loads
// walk the waiters' nodes, each charged at the reader's true topological
// distance. Queue bookkeeping (the primary/secondary lists and the pass
// counter) is holder-private state threaded through the grant, so it is
// mutated only between the holder's charged operations — the simulator's
// single-threaded linearization stands in for the CAS handshakes the
// native port uses.
type CNA struct {
	m    *sim.Machine
	lock sim.Addr   // tail word: charged enqueue/free vehicle
	node []sim.Addr // per-proc node: qnNext, qnLocked (flag pre-init 1)
	// primary is the arrival-order queue of waiting proc ids; sec holds
	// waiters a releaser skipped to grant locally.
	primary, sec []int
	tail         int // proc id of the last enqueuer (holder or waiter), -1 when free
	passes       int // consecutive same-station grants since the last spill
	spill        int // the starvation bound
}

// NewCNA builds a CNA lock whose tail word lives on module home, spilling
// after spill consecutive same-station grants (New uses
// DefaultSpillThreshold).
func NewCNA(m *sim.Machine, home, spill int) *CNA {
	l := &CNA{
		m:     m,
		lock:  m.Alloc(home, 1),
		node:  make([]sim.Addr, m.NumProcs()),
		tail:  -1,
		spill: spill,
	}
	for i := range l.node {
		n := m.Alloc(i, 2)
		l.node[i] = n
		m.Mem.Poke(n+qnLocked, 1) // pre-init, H1 discipline
	}
	return l
}

// Name implements Lock.
func (l *CNA) Name() string { return "CNA" }

// Home implements Lock.
func (l *CNA) Home() int { return l.lock.Module() }

// station maps a proc id to its station (proc id == module number).
func (l *CNA) station(id int) int { return id / l.m.Config().ProcsPerStation }

// Acquire implements Lock: one fetch-and-store to enqueue, then a local
// spin — the MCS shape with the grant order decided at release.
func (l *CNA) Acquire(p *sim.Proc) {
	id := p.ID()
	n := l.node[id]
	p.Reg(1)
	p.Swap(l.lock, uint64(n))
	p.Branch(2)
	// Linearization point of the enqueue: the swap has completed and no
	// other charged operation has run since.
	prev := l.tail
	l.tail = id
	if prev == -1 {
		return
	}
	l.primary = append(l.primary, id)
	p.Store(l.node[prev]+qnNext, uint64(n)) // link behind the predecessor
	p.WaitLocal(n+qnLocked, func(v uint64) bool { return v == 0 })
	p.Store(n+qnLocked, 1) // re-init off the uncontended path
}

// pick applies the grant policy to the live queues and removes the chosen
// successor: while the pass budget lasts, the first primary waiter on
// station s is granted and the skipped prefix is deferred; otherwise the
// secondary queue is spliced back in front and the head is granted in
// arrival order, resetting the pass counter.
func (l *CNA) pick(s int) int {
	if l.passes < l.spill {
		for i, w := range l.primary {
			if l.station(w) == s {
				l.sec = append(l.sec, l.primary[:i]...)
				l.primary = append([]int(nil), l.primary[i+1:]...)
				l.passes++
				return w
			}
		}
	}
	l.primary = append(l.sec, l.primary...)
	l.sec = nil
	w := l.primary[0]
	l.primary = append([]int(nil), l.primary[1:]...)
	l.passes = 0
	return w
}

// Release implements Lock. The scan's loads are charged against the
// scanned waiters' nodes (each lives on its owner's module), so deferring
// remote waiters costs the releaser real traffic — the price CNA pays for
// its compactness.
func (l *CNA) Release(p *sim.Proc) {
	id := p.ID()
	s := l.station(id)
	// Charge the successor scan the policy is about to perform.
	if l.passes < l.spill {
		for _, w := range append([]int(nil), l.primary...) {
			p.Load(l.node[w] + qnNext) // read the node's station word
			p.Branch(1)
			if l.station(w) == s {
				break
			}
		}
	}
	if len(l.primary) == 0 && len(l.sec) == 0 {
		// No known successor: try to close the queue.
		p.Reg(2)
		old := p.Swap(l.lock, 0)
		p.Branch(2)
		if len(l.primary) == 0 && len(l.sec) == 0 {
			// The lock goes free: its next owner starts a fresh batch.
			l.tail = -1
			l.passes = 0
			return
		}
		// An enqueue raced in during the release: restore the tail and
		// grant (the MCS repair shape, one extra swap).
		p.Swap(l.lock, old)
	}
	p.Store(l.node[l.pick(s)]+qnLocked, 0)
}

// TryAcquire implements TryLocker: a single attempt that never waits and
// never joins the queue. A failed attempt restores the word it perturbed
// (one extra store), the simulator's stand-in for the CAS attempt the
// native port makes.
func (l *CNA) TryAcquire(p *sim.Proc) bool {
	id := p.ID()
	p.Reg(1)
	p.Swap(l.lock, uint64(l.node[id]))
	p.Branch(2)
	if l.tail == -1 {
		l.tail = id
		return true
	}
	p.Store(l.lock, uint64(l.node[l.tail]))
	return false
}
