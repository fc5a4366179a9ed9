package native

import "sync/atomic"

// This file ports the two hierarchical NUMA-aware locks from the simulator
// zoo (internal/locks/cohort.go and cna.go) to sync/atomic. The Go runtime
// neither exposes nor pins NUMA placement, so "station" is a caller-supplied
// integer — the cross-validation tests assign one per actor — and the wins
// these locks exist for (keeping hand-offs on one station's bus) cannot be
// measured here. What can be validated is the algorithm itself: the grant
// order, the batch/spill bookkeeping and the starvation bound are exactly
// the simulator's, step for step, which is what crossval_test.go checks.

// DefaultBatchLimit bounds consecutive local passes of the cohort lock, and
// DefaultSpillThreshold bounds consecutive same-station grants of the CNA
// lock, when the caller leaves the knob zero. They mirror the simulator
// defaults in internal/locks.
const (
	DefaultBatchLimit     = 16
	DefaultSpillThreshold = 16
)

// cohortStation is one station's share of the cohort lock. Its fields are
// plain because only the station's local-lock holder touches them: the local
// MCS grant chain orders every access (Go's atomics are sequentially
// consistent, so the grant store/load pair carries the happens-before edge).
type cohortStation struct {
	// own is true while the station holds the global lock — set by the
	// acquirer that won it, inherited through local passes, cleared by the
	// releaser that gives it up.
	own bool
	// gnode is the station's live global-lock token, handed from the
	// acquiring local holder to whichever local holder eventually releases
	// globally.
	gnode *qnode
	// batch counts local passes since the station acquired the global lock.
	batch int
}

// Cohort is the hierarchical cohort lock: one local MCS queue per station
// plus one global MCS queue of station representatives. A releaser that
// sees a local waiter passes the lock within the station — leaving the
// global lock held by the station — until the batch limit is spent, then
// releases globally so other stations get their turn. Starvation bound:
// once a remote representative is queued globally it waits at most
// BatchLimit+1 critical sections.
//
// Cohort has no TryAcquire: the native MCS trylock abandons its node in the
// queue, and an abandoned node inside a local batch could leave the station
// owning the global lock with no holder to release it. The simulator-hosted
// Cohort keeps the trylock protocol; its property tests live there.
type Cohort struct {
	global MCS
	local  []MCS
	st     []cohortStation
	// BatchLimit bounds consecutive local passes; zero means
	// DefaultBatchLimit. Set it before first use.
	//
	//doclint:keep the sim-native cross-validation replays schedules at several limits
	BatchLimit int
	// gEnqueues counts global-queue enqueues; the cross-validation
	// coordinator settles on it to pin the (otherwise racy) global order.
	gEnqueues atomic.Uint64
}

// NewCohort builds a cohort lock over the given number of stations.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func NewCohort(stations int) *Cohort {
	return &Cohort{
		local: make([]MCS, stations),
		st:    make([]cohortStation, stations),
	}
}

// Acquire blocks until the lock is held and returns the local-queue token
// that must be passed to Release along with the same station.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *Cohort) Acquire(station int) *qnode {
	n, held := l.EnqueueLocal(station)
	if !held {
		l.local[station].WaitGrant(n)
	}
	l.FinishAcquire(station)
	return n
}

// EnqueueLocal joins the station's local queue and reports whether the
// local lock was free. It is Acquire's first half, split out (like
// MCS.Enqueue) so a replay harness can pin the local enqueue order; the
// caller must then WaitGrantLocal (unless held) and FinishAcquire.
func (l *Cohort) EnqueueLocal(station int) (*qnode, bool) {
	return l.local[station].Enqueue()
}

// WaitGrantLocal spins until the local queue grants the node.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *Cohort) WaitGrantLocal(station int, n *qnode) {
	l.local[station].WaitGrant(n)
}

// FinishAcquire runs after the caller holds the station's local lock: if
// the station inherited global ownership from a local pass, the lock is
// held outright; otherwise the caller acquires the global lock on the
// station's behalf.
func (l *Cohort) FinishAcquire(station int) {
	st := &l.st[station]
	if st.own {
		return
	}
	gn, held := l.global.Enqueue()
	l.gEnqueues.Add(1)
	if !held {
		l.global.WaitGrant(gn)
	}
	st.gnode = gn
	st.own = true
	st.batch = 0
}

// GlobalEnqueues returns the number of global-queue enqueues so far.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *Cohort) GlobalEnqueues() uint64 { return l.gEnqueues.Load() }

// Release unlocks: pass locally while a waiter is queued and the batch
// budget lasts, else release the global lock first and then the local one.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *Cohort) Release(station int, n *qnode) {
	limit := l.BatchLimit
	if limit == 0 {
		limit = DefaultBatchLimit
	}
	st := &l.st[station]
	if l.local[station].HasWaiter(n) && st.batch < limit {
		st.batch++
		l.local[station].Release(n)
		return
	}
	st.own = false
	st.batch = 0
	gn := st.gnode
	st.gnode = nil
	l.global.Release(gn)
	l.local[station].Release(n)
}

// cnaNode is a CNA queue node. Nodes are per-acquisition and not pooled:
// a node the releaser defers moves to the holder-private secondary list and
// outlives its acquisition, so recycling would need epoch bookkeeping the
// tests don't justify.
type cnaNode struct {
	next    atomic.Pointer[cnaNode]
	locked  atomic.Bool
	station int
}

// CNA is the compact-NUMA-aware queue lock: a single MCS-style queue whose
// releaser scans the waiters it owns for one on its own station, grants it,
// and parks the skipped prefix on a secondary list. When no local waiter
// exists — or after SpillThreshold consecutive local grants — the secondary
// list splices back in front of the main queue (its waiters are oldest) and
// the head is granted regardless of station. Starvation bound: a deferred
// waiter is granted within SpillThreshold+1 critical sections of being
// skipped.
type CNA struct {
	tail atomic.Pointer[cnaNode]
	// secHead/secTail/passes are holder-private: the grant hand-off
	// (locked.Store(false) observed by locked.Load()) orders every access,
	// exactly like the cohortStation fields above.
	secHead, secTail *cnaNode
	passes           int
	// SpillThreshold bounds consecutive same-station grants; zero means
	// DefaultSpillThreshold. Set it before first use.
	//
	//doclint:keep the sim-native cross-validation replays schedules at several thresholds
	SpillThreshold int
}

// NewCNA returns a ready-to-use CNA lock.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func NewCNA() *CNA { return &CNA{} }

// Acquire blocks until the lock is held and returns the token for Release.
// station tags the acquisition for the releaser's locality scan.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *CNA) Acquire(station int) *cnaNode {
	n, held := l.Enqueue(station)
	if !held {
		l.WaitGrant(n)
	}
	return n
}

// Enqueue joins the queue and reports whether the lock was free, in which
// case the caller holds it immediately; on false the caller must complete
// the acquisition with WaitGrant. The split serves the same replay purpose
// as MCS.Enqueue.
func (l *CNA) Enqueue(station int) (*cnaNode, bool) {
	n := &cnaNode{station: station}
	n.locked.Store(true)
	pred := l.tail.Swap(n)
	if pred == nil {
		return n, true
	}
	pred.next.Store(n)
	return n, false
}

// WaitGrant spins until the enqueued node is granted the lock.
func (l *CNA) WaitGrant(n *cnaNode) {
	for spins := 0; n.locked.Load(); spins++ {
		pause(spins)
	}
}

// TryAcquire makes a single attempt: a free queue is claimed with one CAS,
// a busy one fails immediately with nothing left behind — CNA needs no
// abandonment protocol because a trylock never enqueues.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *CNA) TryAcquire(station int) (*cnaNode, bool) {
	n := &cnaNode{station: station}
	n.locked.Store(true)
	if l.tail.CompareAndSwap(nil, n) {
		return n, true
	}
	return nil, false
}

// Release unlocks, choosing the successor by the CNA policy. The chain from
// n's successor up to the queue tail is owned by the holder (new arrivals
// touch only the tail), so the scan is single-threaded; the only waits are
// for in-flight next-pointer links, as in any MCS release.
//
//doclint:keep reference port that the sim↔native cross-validation replays schedules against
func (l *CNA) Release(n *cnaNode) {
	spill := l.SpillThreshold
	if spill == 0 {
		spill = DefaultSpillThreshold
	}
	// Holder-private state must be written BEFORE the atomic op that hands
	// the lock on (a tail CAS that frees it, or a grant store): the next
	// holder's first read of these fields is ordered only by that op.
	passes := l.passes
	succ := n.next.Load()
	if succ == nil {
		if l.secHead == nil {
			// Nobody anywhere: close the queue.
			l.passes = 0
			if l.tail.CompareAndSwap(n, nil) {
				return
			}
			l.passes = passes // still held: restore for the scan below
		} else {
			// Main queue empty but deferred waiters exist: promote the
			// secondary list to be the queue. Its tail's next pointer is a
			// stale intra-scan link; clear it before publishing the node as
			// the queue tail so the next release doesn't chase it.
			head, tail := l.secHead, l.secTail
			tail.next.Store(nil)
			l.secHead, l.secTail = nil, nil
			l.passes = 0
			if l.tail.CompareAndSwap(n, tail) {
				head.locked.Store(false)
				return
			}
			l.secHead, l.secTail = head, tail
			l.passes = passes
		}
		// An enqueue beat the CAS: wait for its link, then fall through
		// with a non-empty main queue.
		for spins := 0; ; spins++ {
			if succ = n.next.Load(); succ != nil {
				break
			}
			pause(spins)
		}
	}
	if l.passes < spill {
		// Scan the owned chain for the first same-station waiter.
		var prev *cnaNode
		cur := succ
		for cur != nil {
			if cur.station == n.station {
				if prev != nil {
					// Defer the skipped prefix [succ..prev]: append it to
					// the secondary list (the segment is already internally
					// linked through its next pointers).
					if l.secHead == nil {
						l.secHead = succ
					} else {
						l.secTail.next.Store(succ)
					}
					l.secTail = prev
				}
				l.passes++
				cur.locked.Store(false)
				return
			}
			next := cur.next.Load()
			if next == nil {
				if l.tail.Load() == cur {
					break // cur is the last waiter; no local successor
				}
				for spins := 0; next == nil; spins++ {
					pause(spins)
					next = cur.next.Load()
				}
			}
			prev, cur = cur, next
		}
	}
	// Spill: splice the deferred waiters (oldest first) ahead of the main
	// queue and grant the head cross-station.
	l.passes = 0
	head := succ
	if l.secHead != nil {
		l.secTail.next.Store(succ)
		head = l.secHead
		l.secHead, l.secTail = nil, nil
	}
	head.locked.Store(false)
}
