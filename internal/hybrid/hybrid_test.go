package hybrid

import (
	"testing"
	"testing/quick"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func newHector(seed uint64) *sim.Machine {
	return sim.NewMachine(sim.Config{Seed: seed})
}

func TestInsertLookupRemove(t *testing.T) {
	m := newHector(1)
	tb := New(m, 2, 8, 2, locks.KindH2MCS)
	m.Go(0, func(p *sim.Proc) {
		for k := uint64(1); k <= 20; k++ {
			e := tb.NewEntry(p, 0, k)
			if !tb.Insert(p, e) {
				t.Errorf("insert %d failed", k)
			}
			p.Store(e+EntData, k*10)
		}
		// Duplicate insert must be refused.
		dup := tb.NewEntry(p, 0, 5)
		if tb.Insert(p, dup) {
			t.Error("duplicate insert succeeded")
		}
		for k := uint64(1); k <= 20; k++ {
			e, ok := tb.Lookup(p, k)
			if !ok {
				t.Fatalf("lookup %d failed", k)
			}
			if v := p.Load(e + EntData); v != k*10 {
				t.Errorf("payload of %d = %d", k, v)
			}
		}
		if _, ok := tb.Lookup(p, 999); ok {
			t.Error("lookup of absent key succeeded")
		}
		// Remove under the coarse lock, as the kernel's destroy path does.
		remove := func(key uint64) bool {
			var e sim.Addr
			tb.WithLock(p, func() { e = tb.RemoveLocked(p, key) })
			return e != 0
		}
		if !remove(7) {
			t.Error("remove failed")
		}
		if _, ok := tb.Lookup(p, 7); ok {
			t.Error("removed key still present")
		}
		if remove(7) {
			t.Error("double remove succeeded")
		}
		// Chains with collisions (8 buckets, 20 keys) survived all this:
		for k := uint64(1); k <= 20; k++ {
			if k == 7 {
				continue
			}
			if _, ok := tb.Lookup(p, k); !ok {
				t.Errorf("key %d lost", k)
			}
		}
	})
	m.RunAll()
}

func TestReserveExcludesWriters(t *testing.T) {
	m := newHector(2)
	tb := New(m, 3, 4, 1, locks.KindH2MCS)
	seed := func(p *sim.Proc) sim.Addr {
		e := tb.NewEntry(p, 3, 42)
		tb.Insert(p, e)
		return e
	}
	var entry sim.Addr
	holders := 0
	total := 0
	m.Go(0, func(p *sim.Proc) {
		entry = seed(p)
		for i := 1; i < 8; i++ {
			m.Go(i, func(p *sim.Proc) {
				for r := 0; r < 10; r++ {
					e, ok := tb.Reserve(p, 42, Exclusive)
					if !ok || e != entry {
						t.Errorf("reserve failed: ok=%v", ok)
						return
					}
					holders++
					if holders != 1 {
						t.Errorf("%d exclusive holders", holders)
					}
					total++
					v := p.Load(e + EntData)
					p.Think(30)
					p.Store(e+EntData, v+1)
					holders--
					tb.ReleaseReserve(p, e, Exclusive)
				}
			})
		}
	})
	m.RunAll()
	if total != 70 {
		t.Fatalf("total holds = %d, want 70", total)
	}
	if got := m.Mem.Peek(entry + EntData); got != 70 {
		t.Fatalf("payload increments lost: %d, want 70", got)
	}
}

func TestSharedReadersCoexistWritersExcluded(t *testing.T) {
	m := newHector(3)
	tb := New(m, 1, 4, 1, locks.KindH2MCS)
	readers := 0
	maxReaders := 0
	writerSawReader := false
	m.Go(0, func(p *sim.Proc) {
		e := tb.NewEntry(p, 1, 5)
		tb.Insert(p, e)
		for i := 1; i <= 6; i++ {
			m.Go(i, func(p *sim.Proc) {
				ee, ok := tb.Reserve(p, 5, Shared)
				if !ok {
					t.Error("shared reserve failed")
					return
				}
				readers++
				if readers > maxReaders {
					maxReaders = readers
				}
				p.Think(sim.Micros(50))
				readers--
				tb.ReleaseReserve(p, ee, Shared)
			})
		}
		m.Go(7, func(p *sim.Proc) {
			p.Think(sim.Micros(5))
			ee, ok := tb.Reserve(p, 5, Exclusive)
			if !ok {
				t.Error("exclusive reserve failed")
				return
			}
			if readers != 0 {
				writerSawReader = true
			}
			tb.ReleaseReserve(p, ee, Exclusive)
		})
	})
	m.RunAll()
	if maxReaders < 2 {
		t.Errorf("readers never overlapped (max %d)", maxReaders)
	}
	if writerSawReader {
		t.Error("writer reserved while readers active")
	}
}

func TestReserveOnRemovedEntryRecovers(t *testing.T) {
	// A processor spinning on a reserve bit must recover when the entry is
	// removed: removal clears the status word, the spinner re-searches and
	// finds the key gone.
	m := newHector(4)
	tb := New(m, 0, 4, 1, locks.KindH2MCS)
	var gotOK bool
	gotDone := false
	m.Go(0, func(p *sim.Proc) {
		e := tb.NewEntry(p, 0, 9)
		tb.Insert(p, e)
		_, _ = tb.Reserve(p, 9, Exclusive)
		m.Go(1, func(p *sim.Proc) {
			_, gotOK = tb.Reserve(p, 9, Exclusive) // spins on the bit
			gotDone = true
		})
		p.Think(sim.Micros(100))
		// Remove while still reserved by us (we own it, so we may).
		tb.WithLock(p, func() { tb.RemoveLocked(p, 9) })
	})
	m.RunAll()
	if !gotDone {
		t.Fatal("spinner never returned")
	}
	if gotOK {
		t.Fatal("reserve of a removed key reported success")
	}
}

func TestMultipleReserveBitsUnderOneHold(t *testing.T) {
	// §2.1: several reserve bits can be taken during a single coarse-lock
	// hold, with no atomic instructions.
	m := newHector(5)
	tb := New(m, 0, 8, 1, locks.KindH2MCS)
	m.Go(0, func(p *sim.Proc) {
		var es []sim.Addr
		for k := uint64(1); k <= 3; k++ {
			e := tb.NewEntry(p, 0, k)
			tb.Insert(p, e)
			es = append(es, e)
		}
		before := p.Counters()
		tb.WithLock(p, func() {
			for _, e := range es {
				if !tb.TryReserveLocked(p, e, Exclusive) {
					t.Error("reserve under lock failed")
				}
			}
		})
		delta := p.Counters().Sub(before)
		// One lock acquire/release pair (2 atomics) for three reservations.
		if delta.Atomic != 2 {
			t.Errorf("atomics = %d, want 2 (coarse pair only)", delta.Atomic)
		}
		for _, e := range es {
			if m.Mem.Peek(e+EntStatus) != 1 {
				t.Error("reserve bit not set")
			}
			tb.ReleaseReserve(p, e, Exclusive)
		}
	})
	m.RunAll()
}

func TestReserveStatsProgress(t *testing.T) {
	m := newHector(6)
	tb := New(m, 0, 4, 1, locks.KindH2MCS)
	m.Go(0, func(p *sim.Proc) {
		e := tb.NewEntry(p, 0, 1)
		tb.Insert(p, e)
		tb.Reserve(p, 1, Exclusive)
		m.Go(1, func(p *sim.Proc) {
			tb.Reserve(p, 1, Exclusive) // must spin at least once
			tb.ReleaseReserve(p, tb.mustEntry(t, p, 1), Exclusive)
		})
		p.Think(sim.Micros(200))
		tb.ReleaseReserve(p, e, Exclusive)
	})
	m.RunAll()
	if tb.ReserveSpins == 0 || tb.ReserveRetries == 0 {
		t.Fatalf("spin stats did not move: spins=%d retries=%d", tb.ReserveSpins, tb.ReserveRetries)
	}
}

// mustEntry fetches an entry that is known to exist.
func (t *Table) mustEntry(tt *testing.T, p *sim.Proc, key uint64) sim.Addr {
	e, ok := t.Lookup(p, key)
	if !ok {
		tt.Fatalf("entry %d missing", key)
	}
	return e
}

func TestStoreStrategiesExclusionProperty(t *testing.T) {
	mkStores := func(m *sim.Machine) []Store {
		return []Store{
			HybridStore{New(m, 0, 16, 1, locks.KindH2MCS)},
			NewFineGrain(m, 0, 16, 1),
			NewCoarseGrain(m, 0, 16, 1, locks.KindH2MCS),
		}
	}
	f := func(seed uint64, storeRaw, procsRaw uint8) bool {
		m := newHector(seed)
		st := mkStores(m)[int(storeRaw)%3]
		nprocs := int(procsRaw)%8 + 2
		// Half the procs share key 1, half use private keys: both
		// contended and independent acquisition.
		holders := map[uint64]int{}
		bad := false
		m.Go(0, func(p *sim.Proc) {
			st.AddEntry(p, 0, 1)
			for i := 0; i < nprocs; i++ {
				key := uint64(1)
				if i%2 == 0 {
					key = uint64(100 + i)
					st.AddEntry(p, i, key)
				}
				i, key := i, key
				m.Go(i+1, func(p *sim.Proc) {
					for r := 0; r < 5; r++ {
						e, ok := st.AcquireEntry(p, key)
						if !ok {
							bad = true
							return
						}
						holders[key]++
						if holders[key] != 1 {
							bad = true
						}
						p.Think(p.RNG().Duration(60))
						holders[key]--
						st.ReleaseEntry(p, e)
						p.Think(p.RNG().Duration(60))
					}
				})
			}
		})
		m.RunAll()
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceOverheadOrdering(t *testing.T) {
	m := newHector(7)
	h := HybridStore{New(m, 0, 64, 1, locks.KindH2MCS)}
	fg := NewFineGrain(m, 0, 64, 1)
	cg := NewCoarseGrain(m, 0, 64, 1, locks.KindH2MCS)
	const entries = 1000
	if h.SpaceOverheadWords(entries) >= fg.SpaceOverheadWords(entries) {
		t.Errorf("hybrid space (%d) not below fine-grain (%d)",
			h.SpaceOverheadWords(entries), fg.SpaceOverheadWords(entries))
	}
	if cg.SpaceOverheadWords(entries) != h.SpaceOverheadWords(entries) {
		t.Errorf("coarse (%d) and hybrid (%d) overhead should match",
			cg.SpaceOverheadWords(entries), h.SpaceOverheadWords(entries))
	}
}

func TestIndependentKeysConcurrency(t *testing.T) {
	// With independent keys, hybrid must allow holds to overlap in time
	// (the coarse lock is held only during search+reserve), while the
	// coarse-grain store fully serializes the holds.
	elapsed := func(mk func(m *sim.Machine) Store) sim.Time {
		m := newHector(8)
		st := mk(m)
		m.Go(0, func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				st.AddEntry(p, i, uint64(100+i))
			}
			for i := 0; i < 8; i++ {
				i := i
				m.Go(i+1, func(p *sim.Proc) {
					e, _ := st.AcquireEntry(p, uint64(100+i))
					p.Think(sim.Micros(200)) // long hold
					st.ReleaseEntry(p, e)
				})
			}
		})
		m.RunAll()
		return m.Eng.Now()
	}
	hy := elapsed(func(m *sim.Machine) Store { return HybridStore{New(m, 0, 16, 1, locks.KindH2MCS)} })
	cg := elapsed(func(m *sim.Machine) Store { return NewCoarseGrain(m, 0, 16, 1, locks.KindH2MCS) })
	// 8 overlapping 200us holds: hybrid ~200us+overhead, coarse ~1600us.
	if hy > sim.Micros(460) {
		t.Errorf("hybrid did not overlap independent holds: %v", hy)
	}
	if cg < sim.Micros(1500) {
		t.Errorf("coarse-grain overlapped holds it must serialize: %v", cg)
	}
}

// TestPeekWalkVisitsEveryEntry: the uncharged walk reaches every entry of
// every chain, removed entries excluded, and costs no simulated time.
func TestPeekWalkVisitsEveryEntry(t *testing.T) {
	m := newHector(1)
	tb := New(m, 0, 2, 1, locks.KindH2MCS) // 2 chains for 9 keys
	m.Go(0, func(p *sim.Proc) {
		for k := uint64(1); k <= 9; k++ {
			tb.Insert(p, tb.NewEntry(p, 0, k))
		}
		tb.WithLock(p, func() { tb.RemoveLocked(p, 4) })
		t0 := p.Now()
		seen := map[uint64]int{}
		tb.PeekWalk(func(e sim.Addr) { seen[m.Mem.Peek(e+EntKey)]++ })
		if p.Now() != t0 {
			t.Errorf("walk took %d cycles", p.Now()-t0)
		}
		for k := uint64(1); k <= 9; k++ {
			if want := map[bool]int{true: 0, false: 1}[k == 4]; seen[k] != want {
				t.Errorf("key %d visited %d times, want %d", k, seen[k], want)
			}
		}
		if len(seen) != 8 {
			t.Errorf("visited %d keys, want 8", len(seen))
		}
	})
	m.RunAll()
}
