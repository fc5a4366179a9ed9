package sim

import "testing"

// A migratable region behaves like a module for allocation and access, but
// its physical home is an indirection the kernel can re-point mid-run.
func TestRegionAllocAndHome(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(12)
	if r < len(m.Mem.modules) {
		t.Fatalf("region id %d collides with physical modules", r)
	}
	if m.Mem.Home(r) != 12 {
		t.Fatalf("Home(region) = %d, want 12", m.Mem.Home(r))
	}
	for i := 0; i < len(m.Mem.modules); i++ {
		if m.Mem.Home(i) != i {
			t.Fatalf("physical module %d resolves to %d", i, m.Mem.Home(i))
		}
	}
	a := m.Alloc(r, 4)
	if m.Mem.RegionWords(r) != 4 {
		t.Fatalf("RegionWords = %d, want 4", m.Mem.RegionWords(r))
	}

	// An access to region-homed data must cost what the physical home
	// costs: proc 0 reading a module-12 home crosses the ring.
	var ringCost, localCost Time
	m.Go(0, func(p *Proc) {
		t0 := p.Now()
		p.Load(a)
		ringCost = p.Now() - t0
		m.Mem.MigrateRegion(p, r, 0)
		t0 = p.Now()
		p.Load(a)
		localCost = p.Now() - t0
	})
	m.RunAll()
	m.Shutdown()
	if ringCost <= localCost {
		t.Fatalf("ring access (%d) not dearer than local after migration (%d)", ringCost, localCost)
	}
	if localCost != Time(m.Lat().Local) {
		t.Fatalf("post-migration local load cost %d, want %d", localCost, m.Lat().Local)
	}
}

// Migration preserves the stored values (the words never move; only the
// home pointer does) and charges a copy that grows with the region.
func TestMigrateRegionCostAndValues(t *testing.T) {
	m := hector(1)
	small := m.Mem.NewRegion(0)
	big := m.Mem.NewRegion(0)
	as := m.Alloc(small, 2)
	ab := m.Alloc(big, 64)
	var smallCost, bigCost, sameCost Duration
	m.Go(0, func(p *Proc) {
		p.Store(as, 7)
		p.Store(ab+5, 9)
		_, smallCost = m.Mem.MigrateRegion(p, small, 12)
		_, bigCost = m.Mem.MigrateRegion(p, big, 12)
		_, sameCost = m.Mem.MigrateRegion(p, big, 12) // already there
		if v := p.Load(as); v != 7 {
			t.Errorf("small region word = %d after migration, want 7", v)
		}
		if v := p.Load(ab + 5); v != 9 {
			t.Errorf("big region word = %d after migration, want 9", v)
		}
	})
	m.RunAll()
	m.Shutdown()
	if smallCost <= 0 || bigCost <= 0 {
		t.Fatalf("cross-ring migrations charged %d and %d cycles, want > 0", smallCost, bigCost)
	}
	if bigCost <= smallCost {
		t.Fatalf("64-word copy (%d) not dearer than 2-word copy (%d)", bigCost, smallCost)
	}
	if sameCost != 0 {
		t.Fatalf("no-op migration charged %d cycles", sameCost)
	}
	if m.Mem.Home(small) != 12 || m.Mem.Home(big) != 12 {
		t.Fatalf("homes after migration = %d, %d, want 12, 12", m.Mem.Home(small), m.Mem.Home(big))
	}
}

// Only regions may migrate: physical modules and bad targets panic.
func TestMigrateRegionPanics(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(0)
	m.Go(0, func(p *Proc) {
		check := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		check("migrating a physical module", func() { m.Mem.MigrateRegion(p, 0, 1) })
		check("migrating to a region id", func() { m.Mem.MigrateRegion(p, r, r) })
	})
	m.RunAll()
}
