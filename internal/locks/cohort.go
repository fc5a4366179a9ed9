package locks

import "hurricane/internal/sim"

// DefaultBatchLimit bounds how many consecutive local hand-offs a station
// may take before the global lock is released — the cohort starvation
// bound. The value trades hand-off locality against cross-station latency:
// larger batches keep the critical section's data hot on one station
// longer, but make a remote contender wait up to BatchLimit hold times.
const DefaultBatchLimit = 16

// Cohort is a hierarchical (cohort) lock: one local queue lock per station
// plus one global lock, with the global lock handed off *inside* a station
// as long as local waiters exist and the batch limit permits. A processor
// first acquires its station's local lock; if the local lock arrives with
// global ownership attached (a local hand-off), the processor holds the
// lock outright and never touches the ring. Otherwise it competes for the
// global lock on behalf of its station.
//
// Release prefers a local successor: if the station's queue is non-empty
// and fewer than BatchLimit consecutive local hand-offs have happened, the
// global lock stays with the station and only the local lock is passed —
// one local store instead of a ring crossing. The batch limit is the
// starvation bound: after BatchLimit local passes the global lock is
// released regardless, so a waiter on another station waits at most
// BatchLimit hold times once its station representative is queued on the
// global lock.
//
// Both levels are H2-MCS queues, so the construction needs only
// fetch-and-store and all waiting is local spinning — on the waiter's own
// module for the local lock, on the station representative's module for
// the global lock.
type Cohort struct {
	global *MCS
	locals []*MCS // one per station, homed on the station's first module
	// ownGlobal[s] is a per-station word (on station s's first module): 1
	// when the local lock was handed off with global ownership attached.
	ownGlobal []sim.Addr
	// batch[s] counts consecutive local hand-offs in the current global
	// tenure (holder-private state; only the lock holder reads or writes
	// its station's counter, so it needs no charged accesses beyond the
	// ownGlobal word that carries the hand-off itself).
	batch []int
	// BatchLimit is the starvation bound (DefaultBatchLimit when built via
	// New; mutate before first use only).
	BatchLimit int
}

// NewCohort builds a cohort lock whose global lock word lives on module
// home; each station's local lock and ownGlobal word live on the station's
// first module.
func NewCohort(m *sim.Machine, home int) *Cohort {
	cfg := m.Config()
	// The global lock's queue nodes are per-station (not per-proc): a
	// station's global acquisition is released by whichever member ends the
	// batch, so the node must be station state. The station's local lock
	// guarantees only one member at a time touches it.
	gHomes := make([]int, cfg.Stations)
	gSlot := make([]int, m.NumProcs())
	for s := 0; s < cfg.Stations; s++ {
		gHomes[s] = s * cfg.ProcsPerStation
	}
	for i := range gSlot {
		gSlot[i] = i / cfg.ProcsPerStation
	}
	l := &Cohort{
		global:     newMCSSlots(m, home, VariantH2, gHomes, gSlot),
		locals:     make([]*MCS, cfg.Stations),
		ownGlobal:  make([]sim.Addr, cfg.Stations),
		batch:      make([]int, cfg.Stations),
		BatchLimit: DefaultBatchLimit,
	}
	for s := 0; s < cfg.Stations; s++ {
		first := s * cfg.ProcsPerStation
		l.locals[s] = NewMCS(m, first, VariantH2)
		l.ownGlobal[s] = m.Alloc(first, 1)
	}
	return l
}

// Name implements Lock.
func (l *Cohort) Name() string { return "Cohort" }

// Home implements Lock.
func (l *Cohort) Home() int { return l.global.Home() }

// Acquire implements Lock: local lock first, then the global lock unless
// it arrived with the local hand-off.
func (l *Cohort) Acquire(p *sim.Proc) {
	s := p.Station()
	l.locals[s].Acquire(p)
	own := p.Load(l.ownGlobal[s]) // station-local: cheap for every member
	p.Branch(1)
	if own != 0 {
		return // local hand-off carried the global lock with it
	}
	l.global.Acquire(p)
}

// Release implements Lock: pass locally while a local waiter exists and
// the batch limit permits; otherwise drop the global lock first so another
// station's representative can take it, then free the local lock.
func (l *Cohort) Release(p *sim.Proc) {
	s := p.Station()
	// A successor exists iff the local tail is not our own node (the same
	// check Adaptive's release does against its queue word).
	tail := sim.Addr(p.Load(l.locals[s].Word()))
	p.Branch(2)
	if tail != l.locals[s].NodeOf(p.ID()) && l.batch[s] < l.BatchLimit {
		l.batch[s]++
		p.Store(l.ownGlobal[s], 1)
		l.locals[s].Release(p)
		return
	}
	l.batch[s] = 0
	p.Store(l.ownGlobal[s], 0)
	l.global.Release(p)
	l.locals[s].Release(p)
}

// TryAcquire implements TryLocker in the deadlock-avoidance style of §3.2:
// a single check that never waits behind a batch. The attempt fails unless
// both levels read free — in particular it fails immediately while another
// station holds the global lock, even if our local lock is free, which is
// exactly the case where enqueueing could deadlock an interrupt handler
// behind a remote station's batch.
func (l *Cohort) TryAcquire(p *sim.Proc) bool {
	s := p.Station()
	if p.Load(l.locals[s].Word()) != 0 {
		p.Branch(1)
		return false
	}
	p.Branch(1)
	if p.Load(l.global.Word()) != 0 {
		p.Branch(1)
		return false
	}
	p.Branch(1)
	// Both levels free: take them. The enqueues cannot wait behind a
	// batch — the local queue was empty, and the global queue can at worst
	// have gained a same-instant enqueue whose holder is live (not blocked
	// on us), so the wait is bounded by one hold time, the same bound the
	// plain MCS TryAcquire variants accept.
	l.locals[s].Acquire(p)
	own := p.Load(l.ownGlobal[s])
	p.Branch(1)
	if own == 0 {
		l.global.Acquire(p)
	}
	return true
}
