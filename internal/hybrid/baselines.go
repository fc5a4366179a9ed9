package hybrid

import (
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// Store is the strategy interface the §2.1 ablation compares: acquire an
// element for exclusive use, release it, and account the space the locking
// strategy costs. Hybrid, fine-grained and coarse-grained tables all
// implement it.
type Store interface {
	// AcquireEntry returns the entry for key with the element held
	// exclusively by the caller, or false if absent.
	AcquireEntry(p *sim.Proc, key uint64) (sim.Addr, bool)
	// ReleaseEntry drops the caller's exclusive hold.
	ReleaseEntry(p *sim.Proc, e sim.Addr)
	// AddEntry creates and links an entry for key, placed on module.
	AddEntry(p *sim.Proc, module int, key uint64) sim.Addr
	// SpaceOverheadWords reports words of locking state for a table of
	// the given population.
	SpaceOverheadWords(entries int) int
	// Name labels the strategy in reports.
	Name() string
}

// HybridStore adapts Table to the Store interface.
type HybridStore struct{ *Table }

// Name implements Store.
func (h HybridStore) Name() string { return "hybrid" }

// AcquireEntry implements Store via the Figure 1b reserve protocol.
func (h HybridStore) AcquireEntry(p *sim.Proc, key uint64) (sim.Addr, bool) {
	return h.Reserve(p, key, Exclusive)
}

// ReleaseEntry implements Store.
func (h HybridStore) ReleaseEntry(p *sim.Proc, e sim.Addr) {
	h.ReleaseReserve(p, e, Exclusive)
}

// AddEntry implements Store.
func (h HybridStore) AddEntry(p *sim.Proc, module int, key uint64) sim.Addr {
	e := h.NewEntry(p, module, key)
	h.Insert(p, e)
	return e
}

// FineGrain is the Figure 1a baseline: one spin lock per hash bucket and
// one spin lock per element (the element lock occupies the status word as a
// full word and is acquired with an atomic swap — the extra atomics and
// space the hybrid scheme avoids).
type FineGrain struct {
	m           *sim.Machine
	bucketLocks []*locks.Spin
	buckets     sim.Addr
	nbuckets    int
	payload     int
}

// NewFineGrain builds the fine-grained table homed on module home.
func NewFineGrain(m *sim.Machine, home, nbuckets, payload int) *FineGrain {
	t := &FineGrain{
		m:           m,
		bucketLocks: make([]*locks.Spin, nbuckets),
		buckets:     m.Mem.Alloc(home, nbuckets),
		nbuckets:    nbuckets,
		payload:     payload,
	}
	for i := range t.bucketLocks {
		t.bucketLocks[i] = locks.NewSpin(m, home, sim.Micros(35))
	}
	return t
}

// Name implements Store.
func (t *FineGrain) Name() string { return "fine-grain" }

func (t *FineGrain) bucketOf(key uint64) int { return int(key % uint64(t.nbuckets)) }

// AcquireEntry implements Store: lock the bucket, find the element, and
// take its spin lock with an atomic swap; if the element is busy, drop the
// bucket lock, back off, and retry.
func (t *FineGrain) AcquireEntry(p *sim.Proc, key uint64) (sim.Addr, bool) {
	backoff := backoffInit
	for {
		bl := t.bucketLocks[t.bucketOf(key)]
		bl.Acquire(p)
		e := searchChain(p, t.buckets+sim.Addr(t.bucketOf(key)), key)
		if e == 0 {
			bl.Release(p)
			return 0, false
		}
		got := p.Swap(e+EntStatus, 1) == 0 // per-element atomic
		bl.Release(p)
		p.Branch(1)
		if got {
			return e, true
		}
		p.Think(backoff/2 + p.RNG().Duration(backoff/2+1))
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// ReleaseEntry implements Store.
func (t *FineGrain) ReleaseEntry(p *sim.Proc, e sim.Addr) {
	p.Swap(e+EntStatus, 0)
}

// AddEntry implements Store.
func (t *FineGrain) AddEntry(p *sim.Proc, module int, key uint64) sim.Addr {
	e := t.m.Mem.Alloc(module, EntData+t.payload)
	p.Store(e+EntKey, key)
	p.Store(e+EntStatus, 0)
	bl := t.bucketLocks[t.bucketOf(key)]
	bl.Acquire(p)
	b := t.buckets + sim.Addr(t.bucketOf(key))
	head := p.Load(b)
	p.Store(e+EntNext, head)
	p.Store(b, uint64(e))
	bl.Release(p)
	return e
}

// SpaceOverheadWords implements Store: one lock word per bucket plus one
// full lock word per element.
func (t *FineGrain) SpaceOverheadWords(entries int) int {
	return t.nbuckets + entries
}

// CoarseGrain is the degenerate baseline: a single Distributed Lock held
// for the element's entire use. Minimal latency and space, zero
// concurrency.
type CoarseGrain struct {
	m        *sim.Machine
	lock     locks.Lock
	buckets  sim.Addr
	nbuckets int
	payload  int
}

// NewCoarseGrain builds the coarse-only table homed on module home.
func NewCoarseGrain(m *sim.Machine, home, nbuckets, payload int, kind locks.Kind) *CoarseGrain {
	return &CoarseGrain{
		m:        m,
		lock:     locks.New(m, kind, home),
		buckets:  m.Mem.Alloc(home, nbuckets),
		nbuckets: nbuckets,
		payload:  payload,
	}
}

// Name implements Store.
func (t *CoarseGrain) Name() string { return "coarse-grain" }

// AcquireEntry implements Store: the coarse lock stays held until
// ReleaseEntry.
func (t *CoarseGrain) AcquireEntry(p *sim.Proc, key uint64) (sim.Addr, bool) {
	t.lock.Acquire(p)
	e := sim.Addr(p.Load(t.buckets + sim.Addr(key%uint64(t.nbuckets))))
	for e != 0 {
		p.Branch(1)
		if p.Load(e+EntKey) == key {
			return e, true
		}
		e = sim.Addr(p.Load(e + EntNext))
	}
	t.lock.Release(p)
	return 0, false
}

// ReleaseEntry implements Store.
func (t *CoarseGrain) ReleaseEntry(p *sim.Proc, e sim.Addr) {
	t.lock.Release(p)
}

// AddEntry implements Store.
func (t *CoarseGrain) AddEntry(p *sim.Proc, module int, key uint64) sim.Addr {
	e := t.m.Mem.Alloc(module, EntData+t.payload)
	p.Store(e+EntKey, key)
	t.lock.Acquire(p)
	b := t.buckets + sim.Addr(key%uint64(t.nbuckets))
	head := p.Load(b)
	p.Store(e+EntNext, head)
	p.Store(b, uint64(e))
	t.lock.Release(p)
	return e
}

// SpaceOverheadWords implements Store.
func (t *CoarseGrain) SpaceOverheadWords(entries int) int {
	return 1 + 2*t.m.NumProcs()
}
