// Package native implements the paper's locking techniques with Go's
// sync/atomic for use on real hardware, alongside the simulator-hosted
// implementations the experiments use. The Go runtime hides NUMA placement,
// so these cannot reproduce the paper's second-order measurements — that is
// what the simulator is for — but they are faithful, usable ports of the
// algorithms: an MCS queue lock (with the H1/H2 uncontended-path
// optimizations where they translate), a capped exponential-backoff
// test-and-set lock, a true TryLock on the queue lock (abandon + garbage
// collection by release, §3.2), and the hybrid coarse-lock/reserve-bit
// table of §2.1.
package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// qnode is an MCS queue node. Nodes are per-goroutine-acquisition and live
// in a pool on the lock.
type qnode struct {
	next   atomic.Pointer[qnode]
	locked atomic.Bool
	// abandoned marks a node whose TryAcquire gave up (§3.2 V2); release
	// garbage-collects it. 0 = live, 1 = abandoned, 2 = granted.
	state atomic.Int32
}

const (
	nsWaiting   = 0
	nsAbandoned = 1
	nsGranted   = 2
)

// MCS is a queue lock: waiters spin on their own node, acquisitions are
// FIFO. The zero value is ready to use.
type MCS struct {
	tail atomic.Pointer[qnode]
	pool pool
}

// Acquire blocks until the lock is held and returns a token that must be
// passed to Release.
func (l *MCS) Acquire() *qnode {
	n, held := l.Enqueue()
	if !held {
		l.WaitGrant(n)
	}
	return n
}

// Enqueue joins the queue and reports whether the lock was free — in which
// case the caller holds it immediately. On false the caller is queued and
// must complete the acquisition with WaitGrant. Acquire is Enqueue +
// WaitGrant; the split exists so a replay harness can pin the enqueue
// order (the order of tail swaps, which for a queue lock determines the
// grant order) while the waiting itself stays on the acquiring goroutine —
// this is what the sim↔native cross-validation tests use.
func (l *MCS) Enqueue() (*qnode, bool) {
	n := l.pool.get()
	n.next.Store(nil)
	n.locked.Store(true)
	n.state.Store(nsWaiting)
	pred := l.tail.Swap(n)
	if pred == nil {
		return n, true
	}
	pred.next.Store(n)
	return n, false
}

// WaitGrant spins until the node enqueued by Enqueue is granted the lock.
func (l *MCS) WaitGrant(n *qnode) {
	for spins := 0; n.locked.Load(); spins++ {
		pause(spins)
	}
}

// HasWaiter reports whether anyone is queued behind the holder's node n.
// Like any MCS tail check it can race with an in-flight enqueue — a false
// answer only means nobody had swapped the tail yet — but a true answer is
// definite, which is what the cohort lock's local-pass decision needs.
func (l *MCS) HasWaiter(n *qnode) bool { return l.tail.Load() != n }

// TryAcquire makes a single attempt (§3.2's second variant): if the lock is
// held, the node is left abandoned in the queue for a later Release to
// collect, and TryAcquire reports false immediately.
//
//doclint:keep the native port of §3.2's abandon-and-collect TryLock, kept beside the simulated TryLockV2
func (l *MCS) TryAcquire() (*qnode, bool) {
	n := l.pool.get()
	n.next.Store(nil)
	n.locked.Store(true)
	n.state.Store(nsWaiting)
	pred := l.tail.Swap(n)
	if pred == nil {
		return n, true
	}
	pred.next.Store(n)
	// Abandon — unless the releaser granted us in the window.
	if !n.state.CompareAndSwap(nsWaiting, nsAbandoned) {
		// state was nsGranted: we own the lock after all.
		return n, true
	}
	return nil, false
}

// Release unlocks. Abandoned successor nodes are garbage-collected: the
// lock passes over them to the first live waiter.
func (l *MCS) Release(n *qnode) {
	cur := n
	for {
		succ := cur.next.Load()
		if succ == nil {
			// No known successor: try to close the queue.
			if l.tail.CompareAndSwap(cur, nil) {
				l.pool.put(cur)
				return
			}
			// Someone is enqueueing: wait for the link.
			for spins := 0; ; spins++ {
				if succ = cur.next.Load(); succ != nil {
					break
				}
				pause(spins)
			}
		}
		l.pool.put(cur)
		// Grant or collect.
		if succ.state.CompareAndSwap(nsWaiting, nsGranted) {
			succ.locked.Store(false)
			return
		}
		// Abandoned: we still hold the lock; keep passing from succ.
		cur = succ
	}
}

// pool recycles queue nodes between acquisitions.
type pool struct {
	p sync.Pool
}

func (p *pool) get() *qnode {
	if n, ok := p.p.Get().(*qnode); ok {
		return n
	}
	return &qnode{}
}

func (p *pool) put(n *qnode) { p.p.Put(n) }

// maxBackoff caps the delay between a Spin's attempts and between a
// Table reservation's re-searches.
const maxBackoff = 100 * time.Microsecond

// Spin is a test-and-set lock with capped exponential backoff (Figure 3c).
type Spin struct {
	word atomic.Uint32
}

// Acquire spins (with backoff) until the lock is held.
func (l *Spin) Acquire() {
	if l.word.CompareAndSwap(0, 1) {
		return
	}
	delay := time.Microsecond
	for {
		time.Sleep(delay)
		if l.word.CompareAndSwap(0, 1) {
			return
		}
		delay = min(2*delay, maxBackoff)
	}
}

// Release unlocks.
func (l *Spin) Release() { l.word.Store(0) }

// pause yields progressively: busy-spin briefly, then hand the processor to
// the scheduler (the Go analogue of local spinning).
func pause(spins int) {
	if spins < 16 {
		return
	}
	runtime.Gosched()
}
