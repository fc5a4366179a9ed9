package native

// Sim↔native cross-validation for the hierarchical lock families. The CNA
// lock is validated exactly like MCS: the coordinator pins the tail-swap
// order and the release policy is a deterministic function of queue content,
// so the critical-section entry order must match the abstract model's. The
// cohort lock has one extra source of nondeterminism — global-queue
// enqueues happen on actor goroutines when a local grant arrives, not at
// coordinator steps — so the coordinator settles on the lock's global
// enqueue counter after every step: the abstract model predicts the
// cumulative count, and waiting for it pins the global order step by step.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hurricane/internal/locks"
	hsim "hurricane/internal/sim"
)

// runSimHierSchedule replays a schedule on a simulator-hosted lock, exactly
// like runSimSchedule but for a caller-built lock (the hierarchical locks
// need their batch knobs set).
func runSimHierSchedule(t *testing.T, steps []schedStep, actors int, mk func(*hsim.Machine) locks.Lock) []csEntry {
	t.Helper()
	m := hsim.NewMachine(hsim.Config{Seed: 99})
	l := mk(m)
	type timedOp struct {
		at hsim.Time
		op int
	}
	sep := hsim.Micros(200)
	ops := make([][]timedOp, actors)
	for i, s := range steps {
		ops[s.actor] = append(ops[s.actor], timedOp{at: hsim.Time(i+1) * sep, op: s.op})
	}
	var entries []csEntry
	busy, holding := 0, 0
	for a := 0; a < actors; a++ {
		a := a
		m.Go(a, func(p *hsim.Proc) {
			for _, o := range ops[a] {
				if o.at > p.Now() {
					p.Think(o.at - p.Now())
				}
				if o.op == opEnqueue {
					contended := busy > 0
					busy++
					l.Acquire(p)
					holding++
					if holding != 1 {
						t.Errorf("sim: %d holders after actor %d acquired", holding, a)
					}
					entries = append(entries, csEntry{a, contended})
				} else {
					holding--
					l.Release(p)
					busy--
				}
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	return entries
}

// genCNASchedule draws a schedule and abstract-executes the CNA grant
// policy over it: a releaser with batch budget grants the first
// same-station waiter in the main queue and defers the skipped prefix to
// the secondary list; otherwise the secondary list (oldest waiters) splices
// back in front and the head is granted.
func genCNASchedule(seed uint64, actors, acquires, pps, spill int) ([]schedStep, []csEntry) {
	rng := seed*2 + 1
	pick := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	station := func(a int) int { return a / pps }
	const (
		stIdle = iota
		stWaiting
		stHolding
	)
	state := make([]int, actors)
	holder := -1
	var primary, sec []int
	passes := 0
	var steps []schedStep
	var expected []csEntry
	left := acquires
	for left > 0 || holder != -1 {
		var cands []schedStep
		if left > 0 {
			for a := 0; a < actors; a++ {
				if state[a] == stIdle {
					cands = append(cands, schedStep{a, opEnqueue})
				}
			}
		}
		if holder != -1 {
			cands = append(cands, schedStep{holder, opRelease})
		}
		s := cands[pick(len(cands))]
		steps = append(steps, s)
		if s.op == opEnqueue {
			left--
			if holder == -1 {
				holder = s.actor
				state[s.actor] = stHolding
				expected = append(expected, csEntry{s.actor, false})
			} else {
				primary = append(primary, s.actor)
				state[s.actor] = stWaiting
			}
			continue
		}
		state[holder] = stIdle
		sh := station(holder)
		if len(primary) == 0 && len(sec) == 0 {
			holder = -1
			passes = 0
			continue
		}
		granted := -1
		if passes < spill {
			for i, w := range primary {
				if station(w) == sh {
					sec = append(sec, primary[:i]...)
					granted = w
					primary = append([]int(nil), primary[i+1:]...)
					passes++
					break
				}
			}
		}
		if granted == -1 {
			q := append(append([]int(nil), sec...), primary...)
			granted = q[0]
			primary = q[1:]
			sec = nil
			passes = 0
		}
		holder = granted
		state[granted] = stHolding
		expected = append(expected, csEntry{granted, true})
	}
	return steps, expected
}

// runNativeCNASchedule replays the schedule on the native CNA lock: the
// coordinator performs the enqueues (tail swaps) in schedule order, actors
// wait/enter/release concurrently. Releases are synchronous with their
// step, so the release-time queue content — and therefore the grant choice
// — is exactly the abstract model's.
func runNativeCNASchedule(t *testing.T, steps []schedStep, actors, pps, spill int) []csEntry {
	t.Helper()
	l := NewCNA()
	l.SpillThreshold = spill
	var entries []csEntry
	var holders atomic.Int32
	type acqCmd struct {
		n    *cnaNode
		held bool
	}
	cmd := make([]chan acqCmd, actors)
	entered := make([]chan struct{}, actors)
	release := make([]chan struct{}, actors)
	done := make([]chan struct{}, actors)
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		a := a
		cmd[a] = make(chan acqCmd)
		entered[a] = make(chan struct{}, 1)
		release[a] = make(chan struct{})
		done[a] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cmd[a] {
				if !c.held {
					l.WaitGrant(c.n)
				}
				if h := holders.Add(1); h != 1 {
					t.Errorf("native cna: %d holders after actor %d acquired", h, a)
				}
				entries = append(entries, csEntry{a, !c.held})
				entered[a] <- struct{}{}
				<-release[a]
				holders.Add(-1)
				l.Release(c.n)
				done[a] <- struct{}{}
			}
		}()
	}
	for _, s := range steps {
		if s.op == opEnqueue {
			n, held := l.Enqueue(s.actor / pps)
			cmd[s.actor] <- acqCmd{n, held}
		} else {
			<-entered[s.actor]
			release[s.actor] <- struct{}{}
			<-done[s.actor]
		}
	}
	for a := 0; a < actors; a++ {
		close(cmd[a])
	}
	wg.Wait()
	return entries
}

// TestSimNativeCNACrossValidation drives seeded schedules through the
// simulator-hosted and native CNA locks; both must reproduce the abstract
// policy's entry order — including the deferred-then-spilled reorderings —
// and its hand-off counts.
func TestSimNativeCNACrossValidation(t *testing.T) {
	const actors, acquires, pps, spill = 8, 40, 4, 3
	for _, seed := range []uint64{2, 5, 1994} {
		steps, want := genCNASchedule(seed, actors, acquires, pps, spill)
		contended, reordered := 0, false
		enq := []int{}
		for _, s := range steps {
			if s.op == opEnqueue {
				enq = append(enq, s.actor)
			}
		}
		for i, e := range want {
			if e.contended {
				contended++
			}
			if e.actor != enq[i] {
				reordered = true
			}
		}
		if contended == 0 || contended == len(want) {
			t.Fatalf("seed %d: degenerate schedule (%d/%d contended)", seed, contended, len(want))
		}
		if !reordered {
			t.Fatalf("seed %d: CNA never reordered the queue; schedule exercises nothing FIFO wouldn't", seed)
		}
		simGot := runSimHierSchedule(t, steps, actors, func(m *hsim.Machine) locks.Lock {
			if m.Config().ProcsPerStation != pps {
				t.Fatalf("sim machine has %d procs/station, model assumed %d", m.Config().ProcsPerStation, pps)
			}
			return locks.NewCNA(m, 0, spill)
		})
		natGot := runNativeCNASchedule(t, steps, actors, pps, spill)
		diffEntries(t, "sim cna", simGot, want)
		diffEntries(t, "native cna", natGot, want)
	}
}

// cohortModel abstract-executes the cohort policy: per-station local FIFO
// queues, a global FIFO of station representatives, ownership inherited
// through local passes until the batch limit. It also predicts the
// cumulative global-enqueue count after each step, which the native replay
// settles on.
type cohortModel struct {
	pps, limit  int
	localQ      [][]int
	localHolder []int
	globalQ     []int // station ids, head = global holder
	own         []bool
	batch       []int
	csHolder    int
	gEnq        uint64
	nbusy       int
}

func newCohortModel(stations, pps, limit int) *cohortModel {
	m := &cohortModel{pps: pps, limit: limit, csHolder: -1}
	m.localQ = make([][]int, stations)
	m.localHolder = make([]int, stations)
	m.own = make([]bool, stations)
	m.batch = make([]int, stations)
	for s := range m.localHolder {
		m.localHolder[s] = -1
	}
	return m
}

// enqueue settles an actor's arrival and returns its CS entry if it enters
// immediately (nil otherwise).
func (m *cohortModel) enqueue(a int) *csEntry {
	contended := m.nbusy > 0
	m.nbusy++
	s := a / m.pps
	if m.localHolder[s] != -1 {
		m.localQ[s] = append(m.localQ[s], a)
		return nil
	}
	// A free local lock implies the station does not own the global lock
	// (the last local holder released it on the way out), so the new local
	// holder enqueues globally.
	m.localHolder[s] = a
	m.gEnq++
	m.globalQ = append(m.globalQ, s)
	if len(m.globalQ) == 1 {
		m.own[s] = true
		m.batch[s] = 0
		m.csHolder = a
		return &csEntry{a, contended}
	}
	return nil
}

// release settles the CS holder's release and returns the next entry if the
// lock transfers (nil if it goes free).
func (m *cohortModel) release(a int) *csEntry {
	s := a / m.pps
	m.nbusy--
	m.csHolder = -1
	hasWaiter := len(m.localQ[s]) > 0
	if hasWaiter && m.batch[s] < m.limit {
		// Local pass: the successor inherits global ownership.
		m.batch[s]++
		succ := m.localQ[s][0]
		m.localQ[s] = m.localQ[s][1:]
		m.localHolder[s] = succ
		m.csHolder = succ
		return &csEntry{succ, true}
	}
	// Global release first (matching the native/sim release order), then
	// the local release; a local successor re-enqueues globally at the tail.
	m.own[s] = false
	m.batch[s] = 0
	m.globalQ = m.globalQ[1:]
	var entry *csEntry
	if len(m.globalQ) > 0 {
		s2 := m.globalQ[0]
		m.own[s2] = true
		m.batch[s2] = 0
		m.csHolder = m.localHolder[s2]
		entry = &csEntry{m.localHolder[s2], true}
	}
	if hasWaiter {
		succ := m.localQ[s][0]
		m.localQ[s] = m.localQ[s][1:]
		m.localHolder[s] = succ
		m.gEnq++
		m.globalQ = append(m.globalQ, s)
		if len(m.globalQ) == 1 {
			m.own[s] = true
			m.batch[s] = 0
			m.csHolder = succ
			entry = &csEntry{succ, true}
		}
	} else {
		m.localHolder[s] = -1
	}
	return entry
}

// genCohortSchedule draws a schedule, abstract-executes the cohort policy,
// and returns the steps, the expected entry order, and the predicted
// cumulative global-enqueue count after each step.
func genCohortSchedule(seed uint64, actors, acquires, pps, limit int) ([]schedStep, []csEntry, []uint64) {
	rng := seed*2 + 1
	pick := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	stations := (actors + pps - 1) / pps
	m := newCohortModel(stations, pps, limit)
	idle := make([]bool, actors)
	for a := range idle {
		idle[a] = true
	}
	var steps []schedStep
	var expected []csEntry
	var gexp []uint64
	left := acquires
	for left > 0 || m.nbusy > 0 {
		var cands []schedStep
		if left > 0 {
			for a := 0; a < actors; a++ {
				if idle[a] {
					cands = append(cands, schedStep{a, opEnqueue})
				}
			}
		}
		if m.csHolder != -1 {
			cands = append(cands, schedStep{m.csHolder, opRelease})
		}
		s := cands[pick(len(cands))]
		steps = append(steps, s)
		var e *csEntry
		if s.op == opEnqueue {
			left--
			idle[s.actor] = false
			e = m.enqueue(s.actor)
		} else {
			idle[s.actor] = true
			e = m.release(s.actor)
		}
		if e != nil {
			expected = append(expected, *e)
		}
		gexp = append(gexp, m.gEnq)
	}
	return steps, expected, gexp
}

// runNativeCohortSchedule replays the schedule on the native cohort lock.
// Local enqueues are coordinator-pinned through EnqueueLocal; global
// enqueues happen on actor goroutines inside FinishAcquire, so after every
// step the coordinator waits for the lock's global-enqueue counter to reach
// the model's prediction — pinning the global order without serializing the
// waiting, entering or releasing, which all stay concurrent under -race.
func runNativeCohortSchedule(t *testing.T, steps []schedStep, actors, pps, limit int, gexp []uint64) []csEntry {
	t.Helper()
	l := NewCohort((actors + pps - 1) / pps)
	l.BatchLimit = limit
	var entries []csEntry
	var holders atomic.Int32
	type acqCmd struct {
		n         *qnode
		held      bool
		contended bool
	}
	cmd := make([]chan acqCmd, actors)
	entered := make([]chan struct{}, actors)
	release := make([]chan struct{}, actors)
	done := make([]chan struct{}, actors)
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		a := a
		s := a / pps
		cmd[a] = make(chan acqCmd)
		entered[a] = make(chan struct{}, 1)
		release[a] = make(chan struct{})
		done[a] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cmd[a] {
				if !c.held {
					l.WaitGrantLocal(s, c.n)
				}
				l.FinishAcquire(s)
				if h := holders.Add(1); h != 1 {
					t.Errorf("native cohort: %d holders after actor %d acquired", h, a)
				}
				entries = append(entries, csEntry{a, c.contended})
				entered[a] <- struct{}{}
				<-release[a]
				holders.Add(-1)
				l.Release(s, c.n)
				done[a] <- struct{}{}
			}
		}()
	}
	busy := 0
	for i, s := range steps {
		if s.op == opEnqueue {
			n, held := l.EnqueueLocal(s.actor / pps)
			cmd[s.actor] <- acqCmd{n, held, busy > 0}
			busy++
		} else {
			<-entered[s.actor]
			release[s.actor] <- struct{}{}
			<-done[s.actor]
			busy--
		}
		deadline := time.Now().Add(5 * time.Second)
		for spins := 0; l.GlobalEnqueues() != gexp[i]; spins++ {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: global enqueues stuck at %d, model predicts %d",
					i, l.GlobalEnqueues(), gexp[i])
			}
			pause(spins)
		}
	}
	for a := 0; a < actors; a++ {
		close(cmd[a])
	}
	wg.Wait()
	return entries
}

// TestSimNativeCohortCrossValidation drives seeded schedules through the
// simulator-hosted and native cohort locks; both must reproduce the
// abstract policy's entry order — local batches, inherited global
// ownership, batch-limit expiry — and its hand-off counts.
func TestSimNativeCohortCrossValidation(t *testing.T) {
	const actors, acquires, pps, limit = 8, 40, 4, 3
	for _, seed := range []uint64{3, 9, 77} {
		steps, want, gexp := genCohortSchedule(seed, actors, acquires, pps, limit)
		contended, batched := 0, false
		last := -1
		run := 0
		for _, e := range want {
			if e.contended {
				contended++
			}
			if e.actor/pps == last {
				run++
				if run >= 2 {
					batched = true
				}
			} else {
				run = 0
			}
			last = e.actor / pps
		}
		if contended == 0 || contended == len(want) {
			t.Fatalf("seed %d: degenerate schedule (%d/%d contended)", seed, contended, len(want))
		}
		if !batched {
			t.Fatalf("seed %d: no local batching in expected order; schedule exercises nothing", seed)
		}
		simGot := runSimHierSchedule(t, steps, actors, func(m *hsim.Machine) locks.Lock {
			if m.Config().ProcsPerStation != pps {
				t.Fatalf("sim machine has %d procs/station, model assumed %d", m.Config().ProcsPerStation, pps)
			}
			l := locks.NewCohort(m, 0)
			l.BatchLimit = limit
			return l
		})
		natGot := runNativeCohortSchedule(t, steps, actors, pps, limit, gexp)
		diffEntries(t, "sim cohort", simGot, want)
		diffEntries(t, "native cohort", natGot, want)
	}
}
