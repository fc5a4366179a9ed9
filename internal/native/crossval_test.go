package native

// Sim↔native cross-validation: the simulator-hosted locks (internal/locks,
// instruction-level models of the paper's Figure 3 and of the §5
// hierarchical families) and the sync/atomic ports in this package
// implement the same algorithms, so the same acquire/release schedule must
// produce the same observable behaviour from both: the same
// critical-section entry order and the same hand-off counts (which
// acquisitions found the lock taken and were served by a grant rather than
// a free word).
//
// A schedule is a deterministic sequence of enqueue/release steps drawn
// from a seeded generator, which abstract-executes a grant-policy model
// over it: FIFO for MCS, the spill policy for CNA, per-station batches
// under a global queue for the cohort lock. The sim side replays it by
// spacing the steps out in simulated time (steps are 200us apart, far
// beyond any hand-off latency, so the interleaving is exactly the
// schedule). The native side replays it through each lock's
// Enqueue/WaitGrant split: a coordinator goroutine performs the enqueues
// in schedule order while the waiting, the critical sections and the
// releases stay on per-actor goroutines — so under -race this also
// exercises the real concurrent hand-off path. The cohort lock has one
// extra source of nondeterminism — global-queue enqueues happen on actor
// goroutines when a local grant arrives, not at coordinator steps — so the
// coordinator settles on the lock's global enqueue counter after every
// step: the model predicts the cumulative count, and waiting for it pins
// the global order step by step.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hurricane/internal/locks"
	hsim "hurricane/internal/sim"
)

const (
	opEnqueue = iota
	opRelease
)

// schedStep is one schedule step. settle is the model's settle counter
// after the step, which the native replay waits for.
type schedStep struct {
	actor, op int
	settle    uint64
}

// csEntry records one critical-section entry: who entered, and whether the
// acquisition was contended (the lock was held or queued at enqueue time —
// i.e. it will be served by a hand-off, not a free word).
type csEntry struct {
	actor     int
	contended bool
}

// lockModel abstract-executes one lock's grant policy.
type lockModel interface {
	// enqueue settles actor a's arrival and reports whether a enters the
	// critical section at once.
	enqueue(a int) bool
	// release settles the holder's release and returns the actor the lock
	// passes to, or -1 if it goes free.
	release() int
	// holder is the actor in the critical section, or -1.
	holder() int
	// settled is the cumulative count the native replay settles on after
	// each step; models with nothing to settle return 0.
	settled() uint64
}

// genSchedule draws a valid schedule from a seeded generator and
// abstract-executes m over it, returning the steps and the expected entry
// sequence. An entry is contended if any actor was between its enqueue and
// its release when it enqueued.
func genSchedule(seed uint64, actors, acquires int, m lockModel) ([]schedStep, []csEntry) {
	rng := seed*2 + 1
	pick := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	var steps []schedStep
	var expected []csEntry
	inUse, contended := make([]bool, actors), make([]bool, actors)
	busy := 0
	for left := acquires; left > 0 || busy > 0; {
		var cands []schedStep
		if left > 0 {
			for a := 0; a < actors; a++ {
				if !inUse[a] {
					cands = append(cands, schedStep{actor: a, op: opEnqueue})
				}
			}
		}
		if h := m.holder(); h != -1 {
			cands = append(cands, schedStep{actor: h, op: opRelease})
		}
		s := cands[pick(len(cands))]
		next := -1
		if s.op == opEnqueue {
			left--
			inUse[s.actor] = true
			contended[s.actor] = busy > 0
			busy++
			if m.enqueue(s.actor) {
				next = s.actor
			}
		} else {
			inUse[s.actor] = false
			busy--
			next = m.release()
		}
		if next != -1 {
			expected = append(expected, csEntry{next, contended[next]})
		}
		s.settle = m.settled()
		steps = append(steps, s)
	}
	return steps, expected
}

// fifoModel is MCS's grant policy: the lock passes to the oldest waiter.
type fifoModel struct {
	cs    int
	queue []int
}

func newFIFOModel() *fifoModel { return &fifoModel{cs: -1} }

func (m *fifoModel) enqueue(a int) bool {
	if m.cs == -1 {
		m.cs = a
		return true
	}
	m.queue = append(m.queue, a)
	return false
}

func (m *fifoModel) release() int {
	m.cs = -1
	if len(m.queue) > 0 {
		m.cs, m.queue = m.queue[0], m.queue[1:]
	}
	return m.cs
}

func (m *fifoModel) holder() int     { return m.cs }
func (m *fifoModel) settled() uint64 { return 0 }

// cnaModel is CNA's grant policy: a releaser with batch budget grants the
// first same-station waiter in the main queue and defers the skipped
// prefix to the secondary list; otherwise the secondary list (oldest
// waiters) splices back in front and the head is granted. A lock that goes
// free starts its next owner with a fresh batch budget.
type cnaModel struct {
	pps, spill, passes int
	cs                 int
	primary, sec       []int
}

func newCNAModel(pps, spill int) *cnaModel {
	return &cnaModel{pps: pps, spill: spill, cs: -1}
}

func (m *cnaModel) enqueue(a int) bool {
	if m.cs == -1 {
		m.cs = a
		return true
	}
	m.primary = append(m.primary, a)
	return false
}

func (m *cnaModel) release() int {
	sh := m.cs / m.pps
	m.cs = -1
	if len(m.primary) == 0 && len(m.sec) == 0 {
		m.passes = 0
		return -1
	}
	if m.passes < m.spill {
		for i, w := range m.primary {
			if w/m.pps == sh {
				m.sec = append(m.sec, m.primary[:i]...)
				m.primary = append([]int(nil), m.primary[i+1:]...)
				m.passes++
				m.cs = w
				return w
			}
		}
	}
	q := append(append([]int(nil), m.sec...), m.primary...)
	m.cs, m.primary, m.sec = q[0], q[1:], nil
	m.passes = 0
	return m.cs
}

func (m *cnaModel) holder() int     { return m.cs }
func (m *cnaModel) settled() uint64 { return 0 }

// cohortModel is the cohort lock's grant policy: per-station local FIFO
// queues, a global FIFO of station representatives, ownership inherited
// through local passes until the batch limit. Its settle counter is the
// cumulative global-enqueue count.
type cohortModel struct {
	pps, limit  int
	localQ      [][]int
	localHolder []int
	globalQ     []int // station ids, head = global holder
	batch       []int
	cs          int
	gEnq        uint64
}

func newCohortModel(stations, pps, limit int) *cohortModel {
	m := &cohortModel{pps: pps, limit: limit, cs: -1}
	m.localQ = make([][]int, stations)
	m.localHolder = make([]int, stations)
	m.batch = make([]int, stations)
	for s := range m.localHolder {
		m.localHolder[s] = -1
	}
	return m
}

// enqueueGlobal makes actor a its station's representative at the global
// queue's tail and reports whether that gave a the lock outright.
func (m *cohortModel) enqueueGlobal(a int) bool {
	s := a / m.pps
	m.localHolder[s] = a
	m.gEnq++
	m.globalQ = append(m.globalQ, s)
	if len(m.globalQ) > 1 {
		return false
	}
	m.batch[s] = 0
	m.cs = a
	return true
}

func (m *cohortModel) enqueue(a int) bool {
	s := a / m.pps
	if m.localHolder[s] != -1 {
		m.localQ[s] = append(m.localQ[s], a)
		return false
	}
	// A free local lock implies the station does not own the global lock
	// (the last local holder released it on the way out), so the new local
	// holder enqueues globally.
	return m.enqueueGlobal(a)
}

func (m *cohortModel) release() int {
	s := m.cs / m.pps
	m.cs = -1
	hasWaiter := len(m.localQ[s]) > 0
	var succ int
	if hasWaiter {
		succ, m.localQ[s] = m.localQ[s][0], m.localQ[s][1:]
	}
	if hasWaiter && m.batch[s] < m.limit {
		// Local pass: the successor inherits global ownership.
		m.batch[s]++
		m.localHolder[s] = succ
		m.cs = succ
		return succ
	}
	// Global release first (matching the native/sim release order), then
	// the local release; a local successor re-enqueues globally at the tail.
	m.globalQ = m.globalQ[1:]
	if len(m.globalQ) > 0 {
		s2 := m.globalQ[0]
		m.batch[s2] = 0
		m.cs = m.localHolder[s2]
	}
	m.localHolder[s] = -1
	if hasWaiter {
		m.enqueueGlobal(succ)
	}
	return m.cs
}

func (m *cohortModel) holder() int     { return m.cs }
func (m *cohortModel) settled() uint64 { return m.gEnq }

// runSim replays the schedule on a simulator-hosted lock, each step at its
// own well-separated simulated time, and records the observed entry order.
// The simulator is single-threaded, so the harness counters need no
// synchronization.
func runSim(t *testing.T, steps []schedStep, actors int, mk func(*hsim.Machine) locks.Lock) []csEntry {
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

// replayLock adapts a native lock to runNative. The coordinator calls
// enqueue in schedule order; the acquiring actor's goroutine calls acquire
// and later release with the token enqueue returned.
type replayLock[T any] interface {
	// enqueue joins actor a to the lock's queue and returns its token,
	// whether the lock was free, and whether the entry counts as contended.
	enqueue(a int) (tok T, held, contended bool)
	// acquire completes the acquisition: it waits for the grant unless held.
	acquire(a int, tok T, held bool)
	release(a int, tok T)
	// settled is the lock's side of the model's settle counter.
	settled() uint64
}

// queueReplay adapts a one-queue lock (MCS, CNA): an entry is contended
// when the lock's own Enqueue found it held.
type queueReplay[T any] struct {
	enq       func(a int) (T, bool)
	wait, rel func(T)
}

func (r queueReplay[T]) enqueue(a int) (T, bool, bool) {
	n, held := r.enq(a)
	return n, held, !held
}

func (r queueReplay[T]) acquire(_ int, n T, held bool) {
	if !held {
		r.wait(n)
	}
}

func (r queueReplay[T]) release(_ int, n T) { r.rel(n) }
func (queueReplay[T]) settled() uint64      { return 0 }

// cohortReplay pins only the local enqueue order: its held answer is the
// local lock's, so an entry is contended when any actor was busy at its
// enqueue, counted from enqueue to release.
type cohortReplay struct {
	l    *Cohort
	busy atomic.Int32
}

func (r *cohortReplay) enqueue(a int) (*qnode, bool, bool) {
	n, held := r.l.EnqueueLocal(a / crossPPS)
	return n, held, r.busy.Add(1) > 1
}

func (r *cohortReplay) acquire(a int, n *qnode, held bool) {
	if !held {
		r.l.WaitGrantLocal(a/crossPPS, n)
	}
	r.l.FinishAcquire(a / crossPPS)
}

func (r *cohortReplay) release(a int, n *qnode) {
	r.l.Release(a/crossPPS, n)
	r.busy.Add(-1)
}

func (r *cohortReplay) settled() uint64 { return r.l.GlobalEnqueues() }

// replayWait bounds every wait of the native replay on a lock that may be
// granting wrongly.
const replayWait = 5 * time.Second

// runNative replays the schedule on a native lock. The coordinator
// performs the enqueues in schedule order; everything else — waiting for
// the grant, the critical section, the release — runs concurrently on
// per-actor goroutines. At a release step the coordinator waits for the
// model's holder to enter, failing if another actor enters or nobody does
// within replayWait; after every step it waits for the lock's settle
// counter to reach the model's. The entries slice is appended to while
// holding the lock, so the race detector doubles as the mutual-exclusion
// check.
func runNative[T any](t *testing.T, steps []schedStep, actors int, l replayLock[T]) []csEntry {
	t.Helper()
	var entries []csEntry
	var holders atomic.Int32
	type acqCmd struct {
		tok             T
		held, contended bool
	}
	cmd := make([]chan acqCmd, actors)
	release := make([]chan struct{}, actors)
	entered := make(chan int, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		cmd[a] = make(chan acqCmd)
		release[a] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cmd[a] {
				l.acquire(a, c.tok, c.held)
				if h := holders.Add(1); h != 1 {
					t.Errorf("native: %d holders after actor %d acquired", h, a)
				}
				entries = append(entries, csEntry{a, c.contended})
				entered <- a
				<-release[a]
				holders.Add(-1)
				l.release(a, c.tok)
				done <- struct{}{}
			}
		}()
	}
	for i, s := range steps {
		if s.op == opEnqueue {
			tok, held, contended := l.enqueue(s.actor)
			cmd[s.actor] <- acqCmd{tok, held, contended}
		} else {
			select {
			case a := <-entered:
				if a != s.actor {
					t.Fatalf("step %d: actor %d entered, but the model's holder is actor %d", i, a, s.actor)
				}
			case <-time.After(replayWait):
				t.Fatalf("step %d: actor %d, the model's holder, never entered", i, s.actor)
			}
			release[s.actor] <- struct{}{}
			<-done
		}
		deadline := time.Now().Add(replayWait)
		for spins := 0; l.settled() != s.settle; spins++ {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: settle counter stuck at %d, model predicts %d", i, l.settled(), s.settle)
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

func diffEntries(t *testing.T, label string, got, want []csEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	gotHandoffs, wantHandoffs := 0, 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
		if got[i].contended {
			gotHandoffs++
		}
		if want[i].contended {
			wantHandoffs++
		}
	}
	if gotHandoffs != wantHandoffs {
		t.Fatalf("%s: %d hand-offs, want %d", label, gotHandoffs, wantHandoffs)
	}
}

// The hierarchical families' cross-validations share the simulator's
// HECTOR station width and a small batch budget, so that schedules of a
// few dozen acquisitions both batch and spill.
const (
	crossPPS   = 4
	crossBatch = 3
)

// lockFamily is one lock family under cross-validation: its grant model
// and its simulator-hosted and native implementations.
type lockFamily struct {
	name   string
	model  func(actors int) lockModel
	sim    func(m *hsim.Machine) locks.Lock
	native func(t *testing.T, steps []schedStep, actors int) []csEntry
}

var (
	mcsFamily = lockFamily{
		name:  "mcs",
		model: func(int) lockModel { return newFIFOModel() },
		sim:   func(m *hsim.Machine) locks.Lock { return locks.NewMCS(m, 0, locks.VariantH2) },
		native: func(t *testing.T, steps []schedStep, actors int) []csEntry {
			l := &MCS{}
			enq := func(int) (*qnode, bool) { return l.Enqueue() }
			return runNative(t, steps, actors, queueReplay[*qnode]{enq, l.WaitGrant, l.Release})
		},
	}
	cnaFamily = lockFamily{
		name:  "cna",
		model: func(int) lockModel { return newCNAModel(crossPPS, crossBatch) },
		sim:   func(m *hsim.Machine) locks.Lock { return locks.NewCNA(m, 0, crossBatch) },
		native: func(t *testing.T, steps []schedStep, actors int) []csEntry {
			l := NewCNA()
			l.SpillThreshold = crossBatch
			enq := func(a int) (*cnaNode, bool) { return l.Enqueue(a / crossPPS) }
			return runNative(t, steps, actors, queueReplay[*cnaNode]{enq, l.WaitGrant, l.Release})
		},
	}
	cohortFamily = lockFamily{
		name: "cohort",
		model: func(actors int) lockModel {
			return newCohortModel((actors+crossPPS-1)/crossPPS, crossPPS, crossBatch)
		},
		sim: func(m *hsim.Machine) locks.Lock {
			l := locks.NewCohort(m, 0)
			l.BatchLimit = crossBatch
			return l
		},
		native: func(t *testing.T, steps []schedStep, actors int) []csEntry {
			l := NewCohort((actors + crossPPS - 1) / crossPPS)
			l.BatchLimit = crossBatch
			return runNative(t, steps, actors, &cohortReplay{l: l})
		},
	}
)

// schedule draws f's schedule for seed and reports whether it is
// degenerate: every acquisition or none contended, so that the comparison
// is vacuous.
func (f lockFamily) schedule(seed uint64, actors, acquires int) (steps []schedStep, want []csEntry, degenerate bool) {
	steps, want = genSchedule(seed, actors, acquires, f.model(actors))
	contended := 0
	for _, e := range want {
		if e.contended {
			contended++
		}
	}
	return steps, want, contended == 0 || contended == len(want)
}

// runSim replays the schedule on f's simulator-hosted lock.
func (f lockFamily) runSim(t *testing.T, steps []schedStep, actors int) []csEntry {
	t.Helper()
	return runSim(t, steps, actors, func(m *hsim.Machine) locks.Lock {
		if got := m.Config().ProcsPerStation; got != crossPPS {
			t.Fatalf("sim machine has %d procs/station, model assumed %d", got, crossPPS)
		}
		return f.sim(m)
	})
}

// crossValidate replays the schedule on f's simulator-hosted and native
// locks and requires both to reproduce the model's entries.
func (f lockFamily) crossValidate(t *testing.T, steps []schedStep, want []csEntry, actors int) {
	t.Helper()
	simGot := f.runSim(t, steps, actors)
	natGot := f.native(t, steps, actors)
	diffEntries(t, "sim "+f.name, simGot, want)
	diffEntries(t, "native "+f.name, natGot, want)
}

// TestSimNativeCrossValidation drives the same seeded schedules through
// the simulator-hosted and the native MCS lock and requires identical
// mutual-exclusion orderings and hand-off counts from both.
func TestSimNativeCrossValidation(t *testing.T) {
	const actors, acquires = 6, 40
	for _, seed := range []uint64{1, 7, 1994} {
		steps, want, degenerate := mcsFamily.schedule(seed, actors, acquires)
		if degenerate {
			t.Fatalf("seed %d: degenerate schedule", seed)
		}
		mcsFamily.crossValidate(t, steps, want, actors)
	}
}

// TestSimNativeCNACrossValidation drives seeded schedules through the
// simulator-hosted and native CNA locks; both must reproduce the abstract
// policy's entry order — including the deferred-then-spilled reorderings —
// and its hand-off counts.
func TestSimNativeCNACrossValidation(t *testing.T) {
	const actors, acquires = 8, 40
	for _, seed := range []uint64{2, 5, 1994} {
		steps, want, degenerate := cnaFamily.schedule(seed, actors, acquires)
		if degenerate {
			t.Fatalf("seed %d: degenerate schedule", seed)
		}
		var enq []int
		for _, s := range steps {
			if s.op == opEnqueue {
				enq = append(enq, s.actor)
			}
		}
		reordered := false
		for i, e := range want {
			reordered = reordered || e.actor != enq[i]
		}
		if !reordered {
			t.Fatalf("seed %d: CNA never reordered the queue; schedule exercises nothing FIFO wouldn't", seed)
		}
		cnaFamily.crossValidate(t, steps, want, actors)
	}
}

// TestSimNativeCohortCrossValidation drives seeded schedules through the
// simulator-hosted and native cohort locks; both must reproduce the
// abstract policy's entry order — local batches, inherited global
// ownership, batch-limit expiry — and its hand-off counts.
func TestSimNativeCohortCrossValidation(t *testing.T) {
	const actors, acquires = 8, 40
	for _, seed := range []uint64{3, 9, 77} {
		steps, want, degenerate := cohortFamily.schedule(seed, actors, acquires)
		if degenerate {
			t.Fatalf("seed %d: degenerate schedule", seed)
		}
		batched := false
		for i := 2; i < len(want); i++ {
			s := want[i].actor / crossPPS
			batched = batched || (want[i-1].actor/crossPPS == s && want[i-2].actor/crossPPS == s)
		}
		if !batched {
			t.Fatalf("seed %d: no local batching in expected order; schedule exercises nothing", seed)
		}
		cohortFamily.crossValidate(t, steps, want, actors)
	}
}

// FuzzCrossValidation searches schedules past the tests' seeds: its input
// picks a family (0 MCS, 1 CNA, 2 cohort), a seed, 2–8 actors and 1–60
// acquisitions, and every non-degenerate schedule must cross-validate.
func FuzzCrossValidation(f *testing.F) {
	f.Fuzz(func(t *testing.T, family uint8, seed uint64, actors, acquires uint8) {
		fam := []lockFamily{mcsFamily, cnaFamily, cohortFamily}[family%3]
		na, nq := 2+int(actors%7), 1+int(acquires%60)
		steps, want, degenerate := fam.schedule(seed, na, nq)
		if degenerate {
			t.Skip("degenerate schedule")
		}
		fam.crossValidate(t, steps, want, na)
	})
}
