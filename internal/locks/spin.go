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
	m    *sim.Machine
	lock sim.Addr
	// Initial and Max bound the backoff delay; the paper's kernel uses a
	// 35us cap for cluster-internal locks (DefaultSpinCap) and Figure 5
	// also measures 2ms (Figure5SpinCap). Prefer Tuned over mutating Max
	// at runtime: the tuner owns the cap there and adapts it to measured
	// home-module utilization.
	Initial, Max sim.Duration
	name         string
}

// NewSpin builds a backoff spin lock with the given cap, homed on module
// home. The initial backoff is one microsecond.
func NewSpin(m *sim.Machine, home int, max sim.Duration) *Spin {
	return NewSpinFull(m, home, sim.Micros(1), max)
}

// NewSpinFull also sets the initial backoff.
func NewSpinFull(m *sim.Machine, home int, initial, max sim.Duration) *Spin {
	if initial == 0 {
		initial = 1
	}
	return &Spin{
		m:       m,
		lock:    m.Alloc(home, 1),
		Initial: initial,
		Max:     max,
		name:    fmt.Sprintf("Spin-%gus", max.Microseconds()),
	}
}

// Name implements Lock.
func (l *Spin) Name() string { return l.name }

// Home implements Lock.
func (l *Spin) Home() int { return l.lock.Module() }

// Word exposes the lock word address (for tests).
func (l *Spin) Word() sim.Addr { return l.lock }

// Acquire implements Lock. Uncontended cost: 1 atomic + 1 reg + 2 br
// (Figure 4's Spin row, split across the acquire/release pair).
func (l *Spin) Acquire(p *sim.Proc) {
	p.Reg(1) // operand setup
	if p.Swap(l.lock, 1) == 0 {
		p.Branch(2) // test + return
		return
	}
	p.Branch(2)
	// Back off locally, with jitter so contenders desynchronize.
	p.BackoffSwap(l.lock, l.Initial, l.Max)
}

// TryAcquire implements TryLocker: one swap, no waiting.
func (l *Spin) TryAcquire(p *sim.Proc) bool {
	p.Reg(1)
	ok := p.Swap(l.lock, 1) == 0
	p.Branch(2)
	return ok
}

// Release implements Lock. HECTOR's only write primitive that the paper
// counts as atomic is the swap, so release is a swap too (Figure 4 counts
// two atomics for the spin lock's acquire/release pair).
func (l *Spin) Release(p *sim.Proc) {
	p.Swap(l.lock, 0)
	p.Branch(1) // return
}
