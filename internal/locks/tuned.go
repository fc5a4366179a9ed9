package locks

import (
	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// Tuned is the utilization-tuned lock: the Adaptive lock's machinery (a
// test-and-set word as the fast path, an H2-MCS queue for waiters, grant
// hand-offs for fairness) with the fixed constants replaced by a
// tune.Controller fed from the lock's home-module utilization.
//
// In spin mode every contender polls the word with capped exponential
// backoff, like Spin, but the cap is the controller's — it climbs as the
// home module approaches saturation, so spinning never steals the
// bandwidth the holder needs. When even the maximum cap leaves the module
// saturated the controller crosses over to queue mode: contenders enqueue
// and spin locally, only the queue head polls the word (bounded by the
// controller's head backoff), and the home module carries only hand-offs.
// On machines with more than one station a third escalation exists: when
// queue mode still cannot relieve the module — the sign that ring-crossing
// hand-offs are themselves the traffic — the controller crosses to cohort
// mode, and contenders serialize through a hierarchical cohort lock whose
// grants batch by station before polling the word.
//
// Both modes share one protocol, so a mode switch needs no stop-the-world
// hand-over: a releaser that sees queued waiters writes a grant instead of
// freeing the word, and any spinner that swallows a grant restores it and
// joins the queue — exactly the Adaptive discipline, which remains correct
// with spinners and queuers mixed during a transition.
//
// The controller's reads (mode, caps) and the lock's observation counters
// cost no simulated time: they model per-lock tuning state the kernel
// would keep adjacent to the lock word, maintained off the critical path
// by the sampling interrupt.
type Tuned struct {
	word        sim.Addr
	queue       *MCS
	cohort      *Cohort
	ctl         *tune.Controller
	home        int
	homeStation int

	// counts holds the observation counters the controller's sampling hook
	// diffs into windows, sharded by the acquiring processor's station and
	// padded so that in parallel mode two stations never write-share a
	// cache line. The sampling hook sums the shards at a quiesced point (a
	// daemon event — in parallel mode, a window barrier), so the totals it
	// sees are exactly the serial engine's.
	counts []tunedCounts
}

// tunedCounts is one station's shard of the Tuned observation counters:
// fast-path swaps, completed Acquire calls (and how many came from off-home
// stations), and their total acquire latency. All cumulative; padded to a
// 64-byte line.
type tunedCounts struct {
	fastAttempts       uint64
	acquisitions       uint64
	remoteAcquisitions uint64
	waitCycles         sim.Duration
	_                  [4]uint64
}

// NewTuned builds a tuned lock homed on module home and attaches its
// sampling hook to the machine's engine. Zero-value params take defaults.
func NewTuned(m *sim.Machine, home int, p tune.Params) *Tuned {
	l := &Tuned{
		word:        m.Mem.Alloc(home, 1),
		queue:       NewMCS(m, home, VariantH2),
		cohort:      NewCohort(m, home),
		ctl:         tune.NewController(p, m.Config().Stations),
		home:        home,
		homeStation: m.Mem.StationOf(home),
		counts:      make([]tunedCounts, m.Config().Stations),
	}
	tune.Attach(m.Eng, m.Mem.Module(home), func() tune.Counters {
		var t tune.Counters
		for i := range l.counts {
			c := &l.counts[i]
			t.Attempts += c.fastAttempts
			t.Acquisitions += c.acquisitions
			t.RemoteAcquisitions += c.remoteAcquisitions
			t.WaitCycles += c.waitCycles
		}
		return t
	}, l.ctl)
	return l
}

// Name implements Lock.
func (l *Tuned) Name() string { return "Tuned" }

// Home implements Lock.
func (l *Tuned) Home() int { return l.home }

// Controller exposes the feedback controller (for reports and tests).
func (l *Tuned) Controller() *tune.Controller { return l.ctl }

// Acquire implements Lock.
func (l *Tuned) Acquire(p *sim.Proc) {
	t0 := p.Now()
	l.acquire(p)
	c := &l.counts[p.Station()]
	c.acquisitions++
	if p.Station() != l.homeStation {
		c.remoteAcquisitions++
	}
	c.waitCycles += p.Now() - t0
}

// acquire is the acquisition protocol; Acquire wraps it with the zero-cost
// latency accounting the controller's wait signal consumes.
func (l *Tuned) acquire(p *sim.Proc) {
	if l.TryAcquire(p) {
		return
	}
	c := &l.counts[p.Station()]
	// Contended. Spin on the word while the controller says the home
	// module has headroom; fall through to the queue on crossover.
	delay := initialBackoff
	for l.ctl.Mode() == tune.ModeSpin {
		p.Think(delay/2 + p.RNG().Duration(delay/2+1))
		old := p.Swap(l.word, adHeld)
		p.Branch(1)
		c.fastAttempts++
		if old == adFree {
			return
		}
		if old == adGranted {
			p.Store(l.word, adGranted)
		}
		delay *= 2
		if cap := l.ctl.BackoffCap(); delay > cap {
			delay = cap
		}
	}
	// Queue mode is the Adaptive queue path with the head's polling bound
	// taken from the controller. Cohort mode is the hierarchical path:
	// contenders serialize through the cohort lock, whose grant order
	// batches by station. Either way the word protocol is unchanged, so
	// spinners and queuers from an in-flight mode transition mix safely.
	var q Lock = l.queue
	if l.ctl.Mode() == tune.ModeCohort {
		q = l.cohort
	}
	headPoll(p, l.word, q, l.ctl.HeadBackoff, c)
}

// TryAcquire implements TryLocker: a single fast-path attempt.
func (l *Tuned) TryAcquire(p *sim.Proc) bool {
	c := &l.counts[p.Station()]
	p.Reg(1)
	old := p.Swap(l.word, adHeld)
	p.Branch(2)
	c.fastAttempts++
	if old == adFree {
		return true
	}
	if old == adGranted {
		p.Store(l.word, adGranted)
	}
	return false
}

// Release implements Lock. In queue mode: hand off to the queue head if
// anyone is queued, else free the word (the Adaptive release). In spin and
// cohort modes the releaser skips the queue-tail load and just frees the
// word — that remote load is pure overhead when contenders poll the word
// directly (spinners, or the current cohort holder), and it is safe to
// skip because any straggler still sitting in the queue after a mode
// switch polls the word itself (bounded by the head backoff), so it
// competes like a spinner instead of waiting for a grant that would never
// come.
func (l *Tuned) Release(p *sim.Proc) {
	if l.ctl.Mode() != tune.ModeQueue {
		// Swap first, then charge the mode-test/return branch, matching
		// Spin.Release's split: the branch retires while the swap's store
		// half drains the module, so an immediate re-acquire queues behind
		// one access, not two. Charging the branch up front (as an earlier
		// revision did) made the hybrid's uncontended round-trip one cycle
		// slower than the spin lock it claims to match.
		p.Swap(l.word, adFree)
		p.Branch(1)
		return
	}
	p.Branch(1)
	tail := p.Load(l.queue.Word())
	p.Branch(2)
	if tail != 0 {
		p.Store(l.word, adGranted)
		return
	}
	p.Swap(l.word, adFree)
}
