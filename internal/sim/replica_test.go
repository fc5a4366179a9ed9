package sim

import "testing"

// A replicated region serves each reader from its nearest copy: after a
// replica lands on the reader's own module, a load costs the local latency
// instead of crossing the ring, and the stored value is unchanged.
func TestReplicateRegionServesNearestCopy(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(0)
	a := m.Alloc(r, 8)
	var before, after Time
	m.Go(12, func(p *Proc) {
		p.Store(a, 42)
		t0 := p.Now()
		p.Load(a)
		before = p.Now() - t0
		words, cost := m.Mem.ReplicateRegion(p, r, 12)
		if words != 8 || cost <= 0 {
			t.Errorf("replication copied %d words at cost %d, want 8 words at cost > 0", words, cost)
		}
		t0 = p.Now()
		if v := p.Load(a); v != 42 {
			t.Errorf("load after replication = %d, want 42", v)
		}
		after = p.Now() - t0
	})
	m.RunAll()
	m.Shutdown()
	if after >= before {
		t.Fatalf("replica did not make the read cheaper: %d cycles before, %d after", before, after)
	}
	if after != Time(m.Lat().Local) {
		t.Fatalf("read from a co-located replica cost %d, want local latency %d", after, m.Lat().Local)
	}
	if m.Mem.Home(r) != 0 {
		t.Fatalf("replication moved the primary home to %d", m.Mem.Home(r))
	}
}

// Writes to a replicated region pay an update per extra copy: the writer
// waits for the propagation and ReplicaUpdates counts each transfer.
func TestReplicaWriteChargesUpdates(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(0)
	a := m.Alloc(r, 8)
	var plain, replicated Time
	m.Go(0, func(p *Proc) {
		t0 := p.Now()
		p.Store(a, 1)
		plain = p.Now() - t0
		m.Mem.ReplicateRegion(p, r, 12)
		m.Mem.ReplicateRegion(p, r, 4)
		t0 = p.Now()
		p.Store(a, 2)
		replicated = p.Now() - t0
	})
	m.RunAll()
	m.Shutdown()
	if m.Mem.ReplicaUpdates != 2 {
		t.Fatalf("ReplicaUpdates = %d after one store under two replicas, want 2", m.Mem.ReplicaUpdates)
	}
	if replicated <= plain {
		t.Fatalf("store under replicas (%d cycles) not dearer than unreplicated store (%d)", replicated, plain)
	}
}

// Replication is idempotent and never copies onto the primary; migration
// of a live replica set is undefined and must panic; a collapse is free,
// reports what it dropped, and reopens migration.
func TestReplicateCollapseMigrateContract(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(0)
	m.Alloc(r, 8)
	m.Go(0, func(p *Proc) {
		if w, c := m.Mem.ReplicateRegion(p, r, 0); w != 0 || c != 0 {
			t.Errorf("replicating onto the primary home charged %d words / %d cycles", w, c)
		}
		m.Mem.ReplicateRegion(p, r, 12)
		if w, c := m.Mem.ReplicateRegion(p, r, 12); w != 0 || c != 0 {
			t.Errorf("re-replicating an existing copy charged %d words / %d cycles", w, c)
		}
		if !m.Mem.Replicated(r) {
			t.Error("region not replicated after ReplicateRegion")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("MigrateRegion of a replicated region did not panic")
				}
			}()
			m.Mem.MigrateRegion(p, r, 4)
		}()
		if n := m.Mem.CollapseRegion(r); n != 1 {
			t.Errorf("collapse dropped %d replicas, want 1", n)
		}
		if n := m.Mem.CollapseRegion(r); n != 0 {
			t.Errorf("collapse of an unreplicated region dropped %d", n)
		}
		t0 := p.Now()
		m.Mem.MigrateRegion(p, r, 4)
		if p.Now() == t0 {
			t.Error("post-collapse migration charged nothing")
		}
	})
	m.RunAll()
	m.Shutdown()
	if m.Mem.Home(r) != 4 {
		t.Fatalf("home after collapse+migrate = %d, want 4", m.Mem.Home(r))
	}
}

// Replicas keeps the copy set sorted regardless of installation order, so
// nearest-copy tie-breaking is deterministic.
func TestReplicasSortedDeterministically(t *testing.T) {
	m := hector(1)
	r := m.Mem.NewRegion(5)
	m.Alloc(r, 2)
	m.Go(0, func(p *Proc) {
		m.Mem.ReplicateRegion(p, r, 12)
		m.Mem.ReplicateRegion(p, r, 1)
		m.Mem.ReplicateRegion(p, r, 8)
	})
	m.RunAll()
	m.Shutdown()
	reps := m.Mem.Replicas(r)
	want := []int{1, 8, 12}
	if len(reps) != len(want) {
		t.Fatalf("replicas = %v, want %v", reps, want)
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Fatalf("replicas = %v, want %v", reps, want)
		}
	}
}

// Replica sets are indexed by region id: a region replicated, collapsed
// and replicated again holds exactly its new set, a region replicated
// before a lower id leaves that one alone, and every id that is no
// replicated region — never replicated, a physical module, out of range —
// has no replicas.
func TestReplicaSetsByRegionIndex(t *testing.T) {
	m := hector(1)
	low := m.Mem.NewRegion(0)
	high := m.Mem.NewRegion(4)
	a := m.Alloc(high, 4)
	m.Alloc(low, 4)
	var far, near Time
	m.Go(12, func(p *Proc) {
		m.Mem.ReplicateRegion(p, high, 8) // the higher id first: the index grows past low
		if reps := m.Mem.Replicas(low); reps != nil {
			t.Errorf("Replicas of never-replicated region %d = %v, want nil", low, reps)
		}
		m.Mem.CollapseRegion(high)
		if m.Mem.Replicated(high) {
			t.Errorf("region %d still replicated after collapse: %v", high, m.Mem.Replicas(high))
		}
		t0 := p.Now()
		p.Load(a)
		far = p.Now() - t0
		m.Mem.ReplicateRegion(p, high, 12)
		t0 = p.Now()
		p.Load(a)
		near = p.Now() - t0
	})
	m.RunAll()
	m.Shutdown()
	if reps := m.Mem.Replicas(high); len(reps) != 1 || reps[0] != 12 {
		t.Fatalf("Replicas after replicate, collapse, replicate = %v, want [12]", reps)
	}
	if near != Time(m.Lat().Local) || far <= near {
		t.Fatalf("load cost %d before the second replica and %d after, want more, then local %d", far, near, m.Lat().Local)
	}
	for _, id := range []int{low, 0, 15, high + 1, 1 << 20, -1} {
		if reps := m.Mem.Replicas(id); reps != nil {
			t.Errorf("Replicas(%d) = %v, want nil", id, reps)
		}
		if m.Mem.Replicated(id) {
			t.Errorf("Replicated(%d) = true", id)
		}
	}
}

// checkNearTable holds a region's nearest-copy table to nearestCopy for
// every source module: nil with one copy, and otherwise each entry the copy
// nearestCopy picks from the region's current primary and replica set.
func checkNearTable(t *testing.T, m *Memory, r int) {
	t.Helper()
	tab, reps := m.NearestCopies(r), m.Replicas(r)
	if len(reps) == 0 {
		if tab != nil {
			t.Fatalf("region %d has one copy but a table %v", r, tab)
		}
		return
	}
	if len(tab) != len(m.modules) {
		t.Fatalf("primary %d replicas %v: table has %d entries, want %d", m.Home(r), reps, len(tab), len(m.modules))
	}
	for src := range m.modules {
		if want := m.nearestCopy(src, m.Home(r), reps); tab[src] != want {
			t.Fatalf("primary %d replicas %v: table sends module %d to %d, nearestCopy to %d",
				m.Home(r), reps, src, tab[src], want)
		}
	}
}

// The nearest-copy table matches nearestCopy for every source module:
// on HECTOR-16 over every primary and replica set of up to three copies,
// built up one replication at a time, and on NUMAchine-256 over random
// sets, with collapses and migrations of the primary in between.
func TestNearestCopyTable(t *testing.T) {
	m := hector(1).Mem
	for primary := 0; primary < 16; primary++ {
		r := m.NewRegion(primary)
		for a := 0; a < 16; a++ {
			for b := a; b < 16; b++ {
				m.CollapseRegion(r)
				checkNearTable(t, m, r)
				m.ReplicateRegion(nil, r, a)
				checkNearTable(t, m, r)
				m.ReplicateRegion(nil, r, b)
				checkNearTable(t, m, r)
			}
		}
	}

	m = NewMachine(Config{Stations: 32, ProcsPerStation: 8, StationsPerRing: 4, Seed: 1}).Mem
	rng := NewRNG(3)
	regions := []int{m.NewRegion(0), m.NewRegion(131), m.NewRegion(255)}
	for trial := 0; trial < 300; trial++ {
		r := regions[rng.Intn(len(regions))]
		switch rng.Intn(4) {
		case 0:
			m.CollapseRegion(r)
			m.MigrateRegion(nil, r, rng.Intn(256))
		default:
			m.ReplicateRegion(nil, r, rng.Intn(256))
		}
		for _, r := range regions {
			checkNearTable(t, m, r)
		}
	}
	for _, id := range []int{0, 255, regions[2] + 1, -1} {
		if tab := m.NearestCopies(id); tab != nil {
			t.Errorf("NearestCopies(%d) = %v, want nil", id, tab)
		}
	}
}
