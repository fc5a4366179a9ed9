package locks

import (
	"fmt"

	"hurricane/internal/sim"
)

// Spin is the test-and-set lock with capped exponential backoff of the
// paper's Figure 3c. Every acquisition attempt is an atomic swap on the
// lock's home module, so contended spinning loads the module and the
// interconnect — the second-order effect distributed locks avoid.
type Spin struct {
	lock sim.Addr
	// max caps the backoff delay; the paper's kernel uses a 35us cap for
	// cluster-internal locks (DefaultSpinCap) and Figure 5 also measures
	// 2ms (Figure5SpinCap). Tuned is the lock whose cap moves.
	max  sim.Duration
	name string
}

// initialBackoff is the first backoff delay of every spinning contender.
const initialBackoff sim.Duration = 1 * sim.CyclesPerMicrosecond

// NewSpin builds a backoff spin lock with the given cap, homed on module
// home. The initial backoff is one microsecond.
func NewSpin(m *sim.Machine, home int, max sim.Duration) *Spin {
	return &Spin{
		lock: m.Alloc(home, 1),
		max:  max,
		name: fmt.Sprintf("Spin-%gus", max.Microseconds()),
	}
}

// Name implements Lock.
func (l *Spin) Name() string { return l.name }

// Home implements Lock.
func (l *Spin) Home() int { return l.lock.Module() }

// Acquire implements Lock. Uncontended cost: 1 atomic + 1 reg + 2 br
// (Figure 4's Spin row, split across the acquire/release pair).
func (l *Spin) Acquire(p *sim.Proc) {
	if l.TryAcquire(p) {
		return
	}
	// Back off locally, with jitter so contenders desynchronize.
	p.BackoffSwap(l.lock, initialBackoff, l.max)
}

// TryAcquire implements TryLocker: one swap, no waiting.
func (l *Spin) TryAcquire(p *sim.Proc) bool {
	p.Reg(1) // operand setup
	ok := p.Swap(l.lock, 1) == 0
	p.Branch(2) // test + return
	return ok
}

// Release implements Lock. HECTOR's only write primitive that the paper
// counts as atomic is the swap, so release is a swap too (Figure 4 counts
// two atomics for the spin lock's acquire/release pair).
func (l *Spin) Release(p *sim.Proc) {
	p.Swap(l.lock, 0)
	p.Branch(1) // return
}
