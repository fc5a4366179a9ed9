package locks

import "hurricane/internal/sim"

// Adaptive word states.
const (
	adFree    = 0 // unlocked
	adHeld    = 1 // locked
	adGranted = 2 // passed directly to the waiter queue's head
)

// Adaptive is the "adaptive technique" §3.1 mentions as the alternative
// the authors considered before optimizing MCS directly: a test-and-set
// word as the fast path (near-spin-lock uncontended cost) backed by an
// MCS queue for waiters, so at most one processor ever polls the word.
//
// Fairness needs a hand-off: a releaser that sees waiters queued writes a
// grant (adGranted) instead of freeing the word, so fast-path arrivals
// cannot steal the lock from the queue head. Built from fetch-and-store
// only: a fast-path swap that accidentally consumes a grant restores it
// and joins the queue. Uncontended cost is one extra memory access over
// the plain spin lock (the release-side queue check — the same check the
// H2 modification deleted from MCS, resurfacing here).
type Adaptive struct {
	word  sim.Addr
	queue *MCS
	// headBackoff bounds the queue head's polling of the word:
	// DefaultHeadBackoff, a deliberately tighter bound than the kernel's
	// 35us DefaultSpinCap for contender spinning, because only one
	// processor (the queue head) ever polls here.
	headBackoff sim.Duration
}

// NewAdaptive builds an adaptive lock homed on module home.
func NewAdaptive(m *sim.Machine, home int) *Adaptive {
	return &Adaptive{
		word:        m.Mem.Alloc(home, 1),
		queue:       NewMCS(m, home, VariantH2),
		headBackoff: DefaultHeadBackoff,
	}
}

// Name implements Lock.
func (l *Adaptive) Name() string { return "Adaptive" }

// Home implements Lock.
func (l *Adaptive) Home() int { return l.word.Module() }

// Acquire implements Lock: the fast path, else a place in the queue.
func (l *Adaptive) Acquire(p *sim.Proc) {
	if l.TryAcquire(p) {
		return
	}
	headPoll(p, l.word, l.queue, func() sim.Duration { return l.headBackoff }, nil)
}

// TryAcquire implements TryLocker: a single fast-path attempt.
func (l *Adaptive) TryAcquire(p *sim.Proc) bool {
	p.Reg(1)
	old := p.Swap(l.word, adHeld)
	p.Branch(2)
	if old == adFree {
		return true
	}
	if old == adGranted {
		// We consumed a hand-off meant for the queue head; put it back.
		p.Store(l.word, adGranted)
	}
	return false
}

// headPoll is the waiting path Adaptive and Tuned share: serialize through
// q, and as its holder — the only processor polling — swap the word until
// it is free or granted, backing off exponentially below bound (re-read
// every poll: the tuner may move it mid-wait). c, when non-nil, is the
// poller's counter shard; the sampler reads it mid-wait, so it counts
// every poll as it happens.
func headPoll(p *sim.Proc, word sim.Addr, q Lock, bound func() sim.Duration, c *tunedCounts) {
	q.Acquire(p)
	delay := initialBackoff
	for {
		old := p.Swap(word, adHeld)
		p.Branch(1)
		if c != nil {
			c.fastAttempts++
		}
		if old == adFree || old == adGranted {
			break
		}
		p.Think(delay/2 + p.RNG().Duration(delay/2+1))
		if delay < bound() {
			delay *= 2
		}
	}
	q.Release(p)
}

// Release implements Lock: hand off to the queue head if anyone is
// queued, else free the word.
func (l *Adaptive) Release(p *sim.Proc) {
	tail := p.Load(l.queue.Word())
	p.Branch(2)
	if tail != 0 {
		p.Store(l.word, adGranted)
		return
	}
	p.Swap(l.word, adFree)
}
