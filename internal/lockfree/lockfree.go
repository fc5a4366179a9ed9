// Package lockfree implements the §5 "advanced atomic primitives"
// extension: a lock-free counter built on compare-and-swap, runnable on a
// CAS-capable simulated machine (sim.Config.HasCAS, as on
// machine.NUMAchine64). The paper's position is
// that lock-free techniques suit single-word leaf state — counters, free
// lists — particularly state touched by interrupt handlers, while larger
// structures stay under hybrid locks. The Compare experiment puts numbers
// on that: a CAS counter versus the same counter under a spin lock or a
// distributed lock.
package lockfree

import (
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// Counter is a lock-free counter: one word, updated with CAS retry.
type Counter struct {
	addr sim.Addr
}

// NewCounter allocates the counter word on the given module.
func NewCounter(m *sim.Machine, module int) *Counter {
	return &Counter{addr: m.Mem.Alloc(module, 1)}
}

// Add atomically adds delta and returns the new value.
func (c *Counter) Add(p *sim.Proc, delta uint64) uint64 {
	for {
		old := p.Load(c.addr)
		p.Reg(1) // compute new value
		if _, ok := p.CAS(c.addr, old, old+delta); ok {
			p.Branch(1)
			return old + delta
		}
		p.Branch(1)
	}
}

// CompareResult reports the counter strategy comparison.
type CompareResult struct {
	LockFreeUS, SpinUS, MCSUS float64
}

// Compare measures mean time per increment for nprocs processors hammering
// one counter under each strategy on a CAS-capable HECTOR. Each strategy
// gets a fresh machine; setup builds the strategy's increment body against
// it (lock construction is free in simulated time — it models static kernel
// data placement).
func Compare(seed uint64, nprocs, rounds int) CompareResult {
	run := func(setup func(m *sim.Machine, c *Counter, plain sim.Addr) func(*sim.Proc)) float64 {
		m := sim.NewMachine(sim.Config{Seed: seed, HasCAS: true})
		c := NewCounter(m, 0)
		plain := m.Mem.Alloc(0, 1)
		inc := setup(m, c, plain)
		var total sim.Time
		ops := 0
		for i := 0; i < nprocs; i++ {
			m.Go(i, func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					t0 := p.Now()
					inc(p)
					total += p.Now() - t0
					ops++
					p.Think(p.RNG().Duration(100))
				}
			})
		}
		m.RunAll()
		m.Shutdown()
		return total.Microseconds() / float64(ops)
	}
	res := CompareResult{}
	res.LockFreeUS = run(func(m *sim.Machine, c *Counter, plain sim.Addr) func(*sim.Proc) {
		return func(p *sim.Proc) { c.Add(p, 1) }
	})
	res.SpinUS = run(func(m *sim.Machine, c *Counter, plain sim.Addr) func(*sim.Proc) {
		// Spin lock + plain read-modify-write.
		sl := locks.NewSpin(m, 0, sim.Micros(35))
		return func(p *sim.Proc) {
			sl.Acquire(p)
			v := p.Load(plain)
			p.Store(plain, v+1)
			sl.Release(p)
		}
	})
	res.MCSUS = run(func(m *sim.Machine, c *Counter, plain sim.Addr) func(*sim.Proc) {
		l := locks.New(m, locks.KindH2MCS, 0)
		return func(p *sim.Proc) {
			l.Acquire(p)
			v := p.Load(plain)
			p.Store(plain, v+1)
			l.Release(p)
		}
	})
	return res
}
