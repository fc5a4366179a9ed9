// Package hybrid implements the paper's hybrid coarse-grain/fine-grain
// locking strategy (§2.1, Figure 1b): a chained hash table protected by a
// single coarse-grained Distributed Lock that is held only long enough to
// search and set a one-bit "reserve" in the found element. The reserve bit
// is the fine-grained lock: it is set without atomic instructions (the
// coarse lock serializes it), costs one bit co-located with the element's
// status word, may be held for long periods, and several can be acquired
// under one coarse-lock hold. Waiters spin on the reserve bit with
// exponential backoff and re-acquire the coarse lock to retry when it
// clears.
//
// The package also provides the two pure strategies (fine-grained
// per-bucket/per-element spin locks as in Figure 1a, and a fully
// coarse-grained table) as ablation baselines.
package hybrid

import (
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// Entry field offsets, in words. Payload words follow EntData.
const (
	EntKey    = 0 // lookup key
	EntNext   = 1 // next entry in chain (0 = end)
	EntStatus = 2 // reserve word: bit 0 exclusive, bits 63..1 reader count
	EntData   = 3
)

// Reserve-bit waits (and the fine-grain baseline's element waits) back
// off exponentially from backoffInit (2us) to backoffMax (35us, the
// kernel's spin cap).
const (
	backoffInit sim.Duration = 2 * sim.CyclesPerMicrosecond
	backoffMax  sim.Duration = 35 * sim.CyclesPerMicrosecond
)

// Mode selects how an element is reserved.
type Mode int

const (
	// Exclusive reserves the element as a writer.
	Exclusive Mode = iota
	// Shared reserves the element as a reader (reader-writer use of the
	// reserve bit, as §2.3 describes).
	Shared
)

// Table is the hybrid-locked chained hash table. All table metadata
// (bucket array) lives on the table's home module; entries live wherever
// their creator placed them.
type Table struct {
	m        *sim.Machine
	lock     locks.Lock
	buckets  sim.Addr
	nbuckets int
	payload  int

	// Guard, if set, brackets every coarse-lock critical section. The
	// kernel installs the logical interrupt mask (§3.2) here: the mask is
	// the lock at the top of the lock hierarchy, taken before any lock an
	// interrupt handler might need and dropped right after release — never
	// held across remote operations.
	Guard interface {
		Enter(*sim.Proc)
		Exit(*sim.Proc)
	}

	// Stats
	ReserveSpins   uint64 // reserve-bit poll loops entered
	ReserveRetries uint64 // coarse-lock reacquisitions after a spin
}

// New builds a hybrid table with nbuckets chains, payload data words per
// entry, and its coarse lock and buckets homed on module home.
func New(m *sim.Machine, home, nbuckets, payload int, kind locks.Kind) *Table {
	return NewShared(m, locks.New(m, kind, home), home, nbuckets, payload)
}

// NewShared builds a table protected by an existing coarse lock — the
// paper's pattern of one coarse-grained lock protecting several data
// structures (the memory manager's region, file and page tables share one
// per-cluster lock). Callers holding that lock may use the *Locked
// primitives of every table it protects in a single hold.
func NewShared(m *sim.Machine, lock locks.Lock, home, nbuckets, payload int) *Table {
	return &Table{
		m:        m,
		lock:     lock,
		buckets:  m.Mem.Alloc(home, nbuckets),
		nbuckets: nbuckets,
		payload:  payload,
	}
}

// Lock exposes the coarse-grained lock (the deadlock-avoidance protocol
// needs to hold it across multi-structure operations).
func (t *Table) Lock() locks.Lock { return t.lock }

func (t *Table) bucket(key uint64) sim.Addr {
	// Multiplicative (Fibonacci) hashing: kernel keys have structured low
	// bits, and long chains would be walked while holding the coarse lock.
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return t.buckets + sim.Addr(h%uint64(t.nbuckets))
}

// NewEntry allocates and initializes an entry for key on the given module,
// charging the initializing stores to p. The entry is not yet in the table.
func (t *Table) NewEntry(p *sim.Proc, module int, key uint64) sim.Addr {
	e := t.m.Mem.Alloc(module, EntData+t.payload)
	p.Store(e+EntKey, key)
	p.Store(e+EntNext, 0)
	p.Store(e+EntStatus, 0)
	return e
}

// --- Locked primitives: caller must hold the coarse lock ---

// SearchLocked walks the chain for key, charging one load per visited word,
// and returns the entry address or 0.
func (t *Table) SearchLocked(p *sim.Proc, key uint64) sim.Addr {
	return searchChain(p, t.bucket(key), key)
}

// searchChain walks the chain whose head word is at bucket address b for
// key, charging one load per visited word, and returns the entry address
// or 0. The caller holds the chain's lock: Table's coarse lock, or
// FineGrain's bucket lock.
func searchChain(p *sim.Proc, b sim.Addr, key uint64) sim.Addr {
	e := sim.Addr(p.Load(b))
	for e != 0 {
		p.Branch(1)
		if p.Load(e+EntKey) == key {
			return e
		}
		e = sim.Addr(p.Load(e + EntNext))
	}
	p.Branch(1)
	return 0
}

// InsertLocked links a prepared entry at the head of its chain.
func (t *Table) InsertLocked(p *sim.Proc, e sim.Addr) {
	key := p.Load(e + EntKey)
	b := t.bucket(key)
	head := p.Load(b)
	p.Store(e+EntNext, head)
	p.Store(b, uint64(e))
}

// RemoveLocked unlinks the entry for key and returns it (0 if absent). The
// removed entry's status is cleared so reserve-bit spinners wake, re-search,
// and discover the removal (the paper's type-stable-memory discipline).
func (t *Table) RemoveLocked(p *sim.Proc, key uint64) sim.Addr {
	b := t.bucket(key)
	e := sim.Addr(p.Load(b))
	prev := sim.Addr(0)
	for e != 0 {
		p.Branch(1)
		if p.Load(e+EntKey) == key {
			next := p.Load(e + EntNext)
			if prev == 0 {
				p.Store(b, next)
			} else {
				p.Store(prev+EntNext, next)
			}
			p.Store(e+EntStatus, 0)
			return e
		}
		prev = e
		e = sim.Addr(p.Load(e + EntNext))
	}
	return 0
}

// TryReserveLocked attempts to set the reserve bit (or add a reader) on
// entry e. No atomic instruction is needed: the coarse lock serializes all
// writers of the status word. It reports success.
func (t *Table) TryReserveLocked(p *sim.Proc, e sim.Addr, mode Mode) bool {
	st := p.Load(e + EntStatus)
	p.Branch(1)
	switch mode {
	case Exclusive:
		if st != 0 {
			return false
		}
		p.Store(e+EntStatus, 1)
	case Shared:
		if st&1 != 0 {
			return false
		}
		p.Store(e+EntStatus, st+2)
	}
	return true
}

// TryReserveKeyLocked searches for key and try-reserves the entry it
// finds, in the coarse-lock hold the caller already has. It returns the
// entry (0 if key is absent) and whether the reservation was set; false
// with a nonzero entry means another holder has the entry reserved.
func (t *Table) TryReserveKeyLocked(p *sim.Proc, key uint64, mode Mode) (sim.Addr, bool) {
	e := t.SearchLocked(p, key)
	if e == 0 {
		return 0, false
	}
	return e, t.TryReserveLocked(p, e, mode)
}

// PeekSearch walks the chain for key with no simulated cost and no
// locking. Instrumentation only (tests, experiment reporting) — simulated
// code must use SearchLocked under the coarse lock.
func (t *Table) PeekSearch(key uint64) sim.Addr {
	e := sim.Addr(t.m.Mem.Peek(t.bucket(key)))
	for e != 0 {
		if t.m.Mem.Peek(e+EntKey) == key {
			return e
		}
		e = sim.Addr(t.m.Mem.Peek(e + EntNext))
	}
	return 0
}

// PeekWalk calls fn on every entry, chain by chain, with no simulated cost
// and no locking. Instrumentation only, like PeekSearch.
func (t *Table) PeekWalk(fn func(e sim.Addr)) {
	for b := 0; b < t.nbuckets; b++ {
		for e := sim.Addr(t.m.Mem.Peek(t.buckets + sim.Addr(b))); e != 0; e = sim.Addr(t.m.Mem.Peek(e + EntNext)) {
			fn(e)
		}
	}
}

// --- High-level operations (Figure 1b protocol) ---

// WithLock runs fn with the coarse lock held; fn may use the *Locked
// primitives, including reserving several elements in one hold.
func (t *Table) WithLock(p *sim.Proc, fn func()) {
	if t.Guard != nil {
		t.Guard.Enter(p)
	}
	t.lock.Acquire(p)
	fn()
	t.lock.Release(p)
	if t.Guard != nil {
		t.Guard.Exit(p)
	}
}

// Insert adds a prepared entry under the coarse lock. It returns false
// (without inserting) if the key already exists.
func (t *Table) Insert(p *sim.Proc, e sim.Addr) bool {
	key := t.m.Mem.Peek(e + EntKey)
	ok := false
	t.WithLock(p, func() {
		if t.SearchLocked(p, key) == 0 {
			t.InsertLocked(p, e)
			ok = true
		}
	})
	return ok
}

// Lookup searches for key under the coarse lock without reserving.
func (t *Table) Lookup(p *sim.Proc, key uint64) (sim.Addr, bool) {
	var e sim.Addr
	t.WithLock(p, func() { e = t.SearchLocked(p, key) })
	return e, e != 0
}

// Reserve implements the full Figure 1b acquire: hold the coarse lock just
// long enough to search and set the reserve bit; on conflict, release the
// coarse lock, spin on the status word with exponential backoff, and retry
// the search. Returns the reserved entry, or 0 if the key is (or becomes)
// absent.
func (t *Table) Reserve(p *sim.Proc, key uint64, mode Mode) (sim.Addr, bool) {
	backoff := backoffInit
	for {
		var e sim.Addr
		var got bool
		t.WithLock(p, func() { e, got = t.TryReserveKeyLocked(p, key, mode) })
		if e == 0 {
			return 0, false
		}
		if got {
			return e, true
		}
		// Spin on the reserve bit outside the coarse lock.
		t.ReserveSpins++
		for {
			p.Think(backoff/2 + p.RNG().Duration(backoff/2+1))
			st := p.Load(e + EntStatus)
			p.Branch(1)
			free := st == 0
			if mode == Shared {
				free = st&1 == 0
			}
			if free {
				break
			}
			backoff *= 2
			if backoff > backoffMax {
				backoff = backoffMax
			}
		}
		t.ReserveRetries++
	}
}

// ReleaseReserve clears the caller's reservation on e. Exclusive release
// stores 0; shared release must decrement the reader count under the coarse
// lock (readers are counted in the status word).
func (t *Table) ReleaseReserve(p *sim.Proc, e sim.Addr, mode Mode) {
	if mode == Exclusive {
		p.Store(e+EntStatus, 0)
		return
	}
	t.WithLock(p, func() {
		st := p.Load(e + EntStatus)
		p.Store(e+EntStatus, st-2)
	})
}

// SpaceOverheadWords reports the words of locking state the strategy costs:
// one lock word, two queue-node words per processor (the Distributed Lock),
// and nothing per entry (the reserve bit shares the status word).
func (t *Table) SpaceOverheadWords(entries int) int {
	return 1 + 2*t.m.NumProcs()
}

// SetLock replaces the coarse lock (instrumentation wrappers only; swap
// before concurrent use).
func (t *Table) SetLock(l locks.Lock) { t.lock = l }
