package autonomic_test

import (
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/cluster"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
)

var testTopo = autonomic.Topo{Stations: 4, ProcsPerStation: 4}

// slotActions counts the replicator's logged actions on one slot; each
// spent the slot's budget once.
func slotActions(rep *autonomic.Replicator, slot string) (n int) {
	for _, a := range rep.Actions() {
		if a.Slot == slot {
			n++
		}
	}
	return n
}

// slotMoves counts the daemon's logged moves of one slot; each spent the
// slot's budget once.
func slotMoves(d *placement.Daemon, slot string) (n int) {
	for _, mv := range d.Moves() {
		if mv.Slot == slot {
			n++
		}
	}
	return n
}

// regionSlot wires a raw sim region into a ReplicaSlot the way
// placement.ReplicateKernel wires kernel slots: traffic vectors from the
// live aggregate, actuators straight into sim memory. Migration semantics
// are mirrored from kernel.MigrateSlot: a replicated region collapses
// before its primary moves.
func regionSlot(m *sim.Machine, agg *trace.Aggregate, region int, name string) autonomic.ReplicaSlot {
	return autonomic.ReplicaSlot{
		Name:      name,
		Region:    region,
		Reads:     func() []uint64 { return agg.RegionReads.Of(region) },
		Writes:    func() []uint64 { return agg.RegionWrites.Of(region) },
		Replicate: func(p *sim.Proc, to int) { m.Mem.ReplicateRegion(p, region, to) },
		Collapse:  func(p *sim.Proc) { m.Mem.CollapseRegion(region) },
	}
}

// startPlane runs policy on its own 25us plane.
func startPlane(m *sim.Machine, policy autonomic.Policy) {
	plane := autonomic.NewPlane(sim.Micros(25))
	plane.Add(policy)
	plane.Start(m.Eng)
}

// A region homed on station 0 but read almost exclusively from station 3
// is replication's textbook case: the policy must install a copy on the
// reader's module and the reader's loads must get cheaper.
func TestReplicatorReplicatesReadMostlyRemoteTraffic(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 16)

	r := autonomic.NewReplicator(m, testTopo, autonomic.CostsFromLatency(sim.DefaultLatency()),
		autonomic.ReplicatorParams{MinWeight: 2},
		[]autonomic.ReplicaSlot{regionSlot(m, agg, region, "data")})
	startPlane(m, r)

	horizon := sim.Time(sim.Micros(2000))
	var firstLoad, lastLoad sim.Time
	m.Go(12, func(p *sim.Proc) {
		for p.Now() < horizon {
			t0 := p.Now()
			p.Load(data)
			if firstLoad == 0 {
				firstLoad = p.Now() - t0
			}
			lastLoad = p.Now() - t0
			p.Think(50)
		}
	})
	m.Go(0, func(p *sim.Proc) {
		// The data's home processor runs the actuations: alive for the
		// whole run, doing nothing else.
		for p.Now() < horizon {
			p.Think(50)
		}
	})
	m.RunAll()
	m.Shutdown()

	reps := m.Mem.Replicas(region)
	if len(reps) != 1 || reps[0] != 12 {
		t.Fatalf("replicas = %v, want [12] (the reader's module):\n%s", reps, r.Report())
	}
	if len(r.Actions()) == 0 || r.Actions()[0].Kind != "replicate" {
		t.Fatalf("no replicate action recorded:\n%s", r.Report())
	}
	if lastLoad >= firstLoad {
		t.Fatalf("read cost did not drop after replication: first %d cycles, last %d", firstLoad, lastLoad)
	}
	if m.Mem.ReplicaUpdates != 0 {
		t.Fatalf("%d replica write-updates charged on a pure-read run", m.Mem.ReplicaUpdates)
	}
}

// A replicated slot that turns write-hot must collapse back to its single
// primary copy: every write was paying a per-replica update, and after the
// collapse the region is migration's jurisdiction again.
func TestReplicatorCollapsesWriteHotSlot(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 16)

	r := autonomic.NewReplicator(m, testTopo, autonomic.CostsFromLatency(sim.DefaultLatency()),
		autonomic.ReplicatorParams{MinWeight: 2},
		[]autonomic.ReplicaSlot{regionSlot(m, agg, region, "data")})
	startPlane(m, r)

	horizon := sim.Time(sim.Micros(2000))
	m.Go(12, func(p *sim.Proc) {
		// Inherit a stale replica set, then hammer writes.
		m.Mem.ReplicateRegion(p, region, 12)
		m.Mem.ReplicateRegion(p, region, 4)
		for p.Now() < horizon {
			p.Store(data, uint64(p.Now()))
			p.Think(50)
		}
	})
	m.Go(0, func(p *sim.Proc) {
		for p.Now() < horizon {
			p.Think(50)
		}
	})
	m.RunAll()
	m.Shutdown()

	if reps := m.Mem.Replicas(region); len(reps) != 0 {
		t.Fatalf("write-hot slot still replicated on %v:\n%s", reps, r.Report())
	}
	var collapses int
	for _, a := range r.Actions() {
		if a.Kind == "collapse" {
			collapses++
		}
	}
	if collapses != 1 {
		t.Fatalf("%d collapse actions, want exactly 1:\n%s", collapses, r.Report())
	}
	if m.Mem.ReplicaUpdates == 0 {
		t.Fatal("writes under replication charged no updates — the collapse saved nothing")
	}
}

// One write burst on read-mostly data crosses the write-fraction band —
// the smoothed fraction spans only a few windows — but repays nothing: the
// reader's copy has saved more than the burst's updates cost. The slot
// must keep its replica, and the reader its cheap loads.
func TestReplicatorKeepsReplicaThroughWriteBurst(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 16)

	r := autonomic.NewReplicator(m, testTopo, autonomic.CostsFromLatency(sim.DefaultLatency()),
		autonomic.ReplicatorParams{MinWeight: 2},
		[]autonomic.ReplicaSlot{regionSlot(m, agg, region, "data")})
	startPlane(m, r)

	horizon := sim.Time(sim.Micros(2500))
	m.Go(12, func(p *sim.Proc) {
		for p.Now() < horizon {
			p.Load(data)
			p.Think(50)
		}
	})
	m.Go(4, func(p *sim.Proc) {
		// One burst from station 1 at 1ms: every word of the region written
		// four times back to back, then silence.
		p.Think(sim.Micros(1000))
		for i := 0; i < 64; i++ {
			p.Store(data+sim.Addr(i%16), uint64(i))
		}
	})
	m.Go(0, func(p *sim.Proc) {
		for p.Now() < horizon {
			p.Think(50)
		}
	})
	m.RunAll()
	m.Shutdown()

	if m.Mem.ReplicaUpdates == 0 {
		t.Fatal("the burst charged no replica updates — it never met a replica")
	}
	if reps := m.Mem.Replicas(region); len(reps) != 1 || reps[0] != 12 {
		t.Fatalf("replicas = %v after one write burst, want [12]:\n%s", reps, r.Report())
	}
	if n := len(r.Actions()); n != 1 {
		t.Fatalf("%d actions, want the one replicate:\n%s", n, r.Report())
	}
}

// The adversarial case the hysteresis band, budgets and the Yield hook
// exist for: one slot alternating read-mostly and write-hot faster than
// any placement can pay off, with BOTH policies live on one plane, wired
// by placement.Attach. The run must stay bounded — each policy may be
// wrong at most its budget times — and the two policies must hand the
// slot back and forth rather than fight: no migration ever lands while the
// slot is replicated. Once the daemon moves the slot onto its reader,
// replication has nothing left to gain;
// TestReplicatorBudgetBoundsAlternation drives the replicator's budget on
// its own.
func TestReplicatorAdversarialAlternationNoOscillation(t *testing.T) {
	// budget is the daemon's per-slot move budget; repBudget is the
	// replicator's fixed per-slot action budget.
	const budget, repBudget = 3, 4
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 16)

	rep, d := placement.Attach(autonomic.NewPlane(sim.Micros(25)), m, agg,
		&autonomic.ReplicatorParams{MinWeight: 1},
		[]autonomic.ReplicaSlot{regionSlot(m, agg, region, "data")},
		&placement.DaemonParams{MinWeight: 1, Budget: budget},
		[]placement.DaemonSlot{{
			Name:   "data",
			Region: region,
			Migrate: func(p *sim.Proc, to int) {
				// Kernel semantics: collapse any replicas, then move.
				if m.Mem.Replicated(region) {
					t.Errorf("migration dispatched onto a live replica set %v", m.Mem.Replicas(region))
					m.Mem.CollapseRegion(region)
				}
				m.Mem.MigrateRegion(p, region, to)
			},
		}})

	// 200us phases: read-mostly from station 3, then write-hot from
	// station 3 — each long enough to confirm an action, far too short to
	// repay one. Every processor serves interrupts once its work is done,
	// so each action runs on the processor co-located with the data.
	const phases = 12
	m.Go(12, func(p *sim.Proc) {
		for ph := 0; ph < phases; ph++ {
			deadline := p.Now() + sim.Time(sim.Micros(200))
			for p.Now() < deadline {
				if ph%2 == 0 {
					p.Load(data)
				} else {
					p.Store(data, uint64(ph))
				}
				p.Think(50)
			}
		}
		cluster.Serve(p)
	})
	m.Go(0, func(p *sim.Proc) {
		end := sim.Time(sim.Micros(200 * (phases + 1)))
		for p.Now() < end {
			p.Think(50)
		}
		cluster.Serve(p)
	})
	for i := 0; i < m.NumProcs(); i++ {
		if i != 0 && i != 12 {
			m.Go(i, cluster.Serve)
		}
	}
	m.RunAll()
	m.Shutdown()

	if n := slotActions(rep, "data"); n > repBudget {
		t.Fatalf("alternating load drove %d replication actions, budget is %d:\n%s",
			n, repBudget, rep.Report())
	}
	if n := slotMoves(d, "data"); n > budget {
		t.Fatalf("alternating load drove %d moves, budget is %d:\n%s", n, budget, d.Report())
	}
	if len(rep.Actions()) == 0 {
		t.Fatal("replicator never acted — the alternation was not observed")
	}
}

// With no migration policy to move the region onto its reader, a slot
// alternating read-mostly and write-hot gives the replicator a fresh
// replicate or collapse after every phase shift. The reads come from
// station 3 and the writes from two processors of station 2, so each write
// phase charges the reader's copy a ring-distance update per write and
// outspends what the read phase saved by more than a copy: every phase
// warrants its action. (One processor that both reads and writes would
// sit on its own module's copy, which saves its reads more than it costs
// its writes.) Over 40 phases of 400us (16ms) the 800us cooldown alone
// would let it act 14 times, so only the per-slot budget of 4 can stop it
// — and must, exactly there.
func TestReplicatorBudgetBoundsAlternation(t *testing.T) {
	const repBudget = 4
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 16)

	rep := autonomic.NewReplicator(m, testTopo, autonomic.CostsFromLatency(sim.DefaultLatency()),
		autonomic.ReplicatorParams{MinWeight: 1},
		[]autonomic.ReplicaSlot{regionSlot(m, agg, region, "data")})
	startPlane(m, rep)

	const phases = 40
	phase := func(ph int) sim.Time { return sim.Time(ph) * sim.Time(sim.Micros(400)) }
	// alternate runs access in the phases of the given parity and thinks
	// through the others.
	alternate := func(parity int, access func(p *sim.Proc, ph int)) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for ph := 0; ph < phases; ph++ {
				for p.Now() < phase(ph+1) {
					if ph%2 == parity {
						access(p, ph)
					}
					p.Think(50)
				}
			}
		}
	}
	m.Go(12, alternate(0, func(p *sim.Proc, _ int) { p.Load(data) }))
	for _, w := range []int{8, 9} {
		m.Go(w, alternate(1, func(p *sim.Proc, ph int) { p.Store(data, uint64(ph)) }))
	}
	m.Go(0, func(p *sim.Proc) {
		for p.Now() < phase(phases+1) {
			p.Think(50)
		}
	})
	m.RunAll()
	m.Shutdown()

	if n := slotActions(rep, "data"); n != repBudget {
		t.Fatalf("alternating load drove %d replication actions, want the budget %d exactly:\n%s",
			n, repBudget, rep.Report())
	}
}

// Claimed is the plane's division-of-labor predicate: true for a slot the
// replicator will act on (read-mostly with real traffic, or already
// replicated), false for write-hot or cold slots — those belong to
// migration.
func TestReplicatorClaimedJurisdiction(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	readMostly := m.Mem.NewRegion(0)
	writeHot := m.Mem.NewRegion(0)
	cold := m.Mem.NewRegion(0)
	m.Alloc(readMostly, 8)
	m.Alloc(writeHot, 8)
	m.Alloc(cold, 8)

	// Synthetic cumulative traffic vectors: the fold in Tick diffs them per
	// window, no simulated load needed. Write fractions are chosen inside
	// the hysteresis band (read-mostly) and above it (write-hot) so Tick
	// itself takes no action and only the classification is under test.
	var window uint64
	vec := func(module int, perWindow uint64) func() []uint64 {
		return func() []uint64 {
			v := make([]uint64, 16)
			v[module] = perWindow * window
			return v
		}
	}
	synth := func(region int, name string, reads, writes uint64) autonomic.ReplicaSlot {
		return autonomic.ReplicaSlot{
			Name: name, Region: region,
			Reads:  vec(12, reads),
			Writes: vec(12, writes),
		}
	}
	r := autonomic.NewReplicator(m, testTopo, autonomic.CostsFromLatency(sim.DefaultLatency()),
		autonomic.ReplicatorParams{MinWeight: 4},
		[]autonomic.ReplicaSlot{
			synth(readMostly, "read-mostly", 9, 1), // wf 0.10: in-band, read-mostly
			synth(writeHot, "write-hot", 5, 5),     // wf 0.50: migration's
			synth(cold, "cold", 1, 0),              // below MinWeight
		})
	for i := 0; i < 32; i++ {
		window++
		r.Tick(sim.Time(i) * sim.Time(sim.Micros(100)))
	}

	if !r.Claimed(readMostly) {
		t.Fatal("read-mostly slot with real traffic not claimed")
	}
	if r.Claimed(writeHot) {
		t.Fatal("write-hot slot claimed — migration could never touch it")
	}
	if r.Claimed(cold) {
		t.Fatal("cold slot claimed on no evidence")
	}
	if r.Claimed(99999) {
		t.Fatal("unknown region claimed")
	}
}
