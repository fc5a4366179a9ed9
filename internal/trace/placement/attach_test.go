package placement

import (
	"slices"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/cluster"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/workload"
)

// checkWiring holds one Attach result to the plane's division of labor:
// the replicator registers before the daemon, and the daemon yields to the
// replicator's claims only when both run.
func checkWiring(t *testing.T, name string, replicate, migrate bool, plane *autonomic.Plane, rep *autonomic.Replicator, d *Daemon) {
	t.Helper()
	var want []autonomic.Policy
	if replicate {
		want = append(want, rep)
	}
	if migrate {
		want = append(want, d)
	}
	if (rep != nil) != replicate || (d != nil) != migrate || !slices.Equal(plane.Policies(), want) {
		t.Fatalf("%s: replicator %v, daemon %v, plane order %v", name, rep != nil, d != nil, plane.Policies())
	}
	if d != nil && (d.p.Yield != nil) != replicate {
		t.Errorf("%s: daemon Yield set=%v, want %v", name, d.p.Yield != nil, replicate)
	}
}

// TestAttachWiring holds Attach to the plane's division of labor for a
// kernel's slot lists and for a raw region's: the replicator registers
// before the daemon, the daemon yields to the replicator's claims only
// when both run, both price the machine's own topology and latencies, the
// plane ticks them, and the daemon's cooldown is eight of its windows.
func TestAttachWiring(t *testing.T) {
	for _, c := range []struct{ replicate, migrate bool }{{true, true}, {true, false}, {false, true}} {
		var rp *autonomic.ReplicatorParams
		var dp *DaemonParams
		if c.replicate {
			rp = &autonomic.ReplicatorParams{}
		}
		if c.migrate {
			dp = &DaemonParams{}
		}

		// A kernel's slot lists, on NUMAchine-64.
		mc := machine.NUMAchine64(1)
		agg := trace.NewAggregate(mc.Stations * mc.ProcsPerStation)
		sys := core.NewSystem(core.Config{
			Machine: mc, ClusterSize: 8, LockKind: locks.KindH2MCS, Tracer: agg, Migratable: true,
		})
		plane := autonomic.NewPlane(0)
		rep, d := Attach(plane, sys.M, agg, rp, ReplicateKernel(sys.K, agg), dp, ManageKernel(sys.K))
		checkWiring(t, "kernel", c.replicate, c.migrate, plane, rep, d)
		if d != nil {
			topo := autonomic.Topo{Stations: 8, ProcsPerStation: 8}
			if d.topo != topo || d.costs != autonomic.CostsFromLatency(mc.Lat) {
				t.Errorf("%+v: daemon prices %+v %+v, not the machine's", c, d.topo, d.costs)
			}
		}
		workload.IndependentFaults(sys, 8, 2, 2)
		if plane.Ticks() == 0 {
			t.Errorf("%+v: the plane never ticked: Attach did not start it", c)
		}

		// A raw region's slot lists.
		m := sim.NewMachine(sim.Config{Seed: 1})
		ragg := trace.NewAggregate(16)
		m.SetTracer(ragg)
		region := m.Mem.NewRegion(0)
		m.Alloc(region, 4)
		plane = autonomic.NewPlane(0)
		rep, d = Attach(plane, m, ragg, rp, []autonomic.ReplicaSlot{{
			Name:      "data",
			Region:    region,
			Reads:     func() []uint64 { return ragg.RegionReads.Of(region) },
			Writes:    func() []uint64 { return ragg.RegionWrites.Of(region) },
			Replicate: func(p *sim.Proc, to int) { m.Mem.ReplicateRegion(p, region, to) },
			Collapse:  func(*sim.Proc) { m.Mem.CollapseRegion(region) },
		}}, dp, []DaemonSlot{{
			Name:    "data",
			Region:  region,
			Migrate: func(p *sim.Proc, to int) { m.Mem.MigrateRegion(p, region, to) },
		}})
		checkWiring(t, "region", c.replicate, c.migrate, plane, rep, d)
	}

	// On a 25us plane two moves of one slot are at least eight windows
	// apart. Processor 12 stores to the data for 100us, then processor 4
	// from 100us on: the daemon, reacting within a window (Decay 0.05,
	// Confirm 1), pulls the data to 12 at once and would follow it to
	// station 1 within a window or two of the shift, but the cooldown holds
	// the second move to 200us after the first.
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 4)
	_, d := Attach(autonomic.NewPlane(sim.Micros(25)), m, agg, nil, nil,
		&DaemonParams{Decay: 0.05, MinWeight: 0.25, Confirm: 1}, []DaemonSlot{{
			Name:    "data",
			Region:  region,
			Migrate: func(p *sim.Proc, to int) { m.Mem.MigrateRegion(p, region, to) },
		}})
	store := func(p *sim.Proc, from, until sim.Duration) {
		p.Think(from)
		for p.Now() < sim.Time(until) {
			p.Store(data, 1)
		}
		cluster.Serve(p)
	}
	for i := 0; i < m.NumProcs(); i++ {
		switch i {
		case 12:
			m.Go(i, func(p *sim.Proc) { store(p, 0, sim.Micros(100)) })
		case 4:
			m.Go(i, func(p *sim.Proc) { store(p, sim.Micros(100), sim.Micros(600)) })
		default:
			m.Go(i, cluster.Serve)
		}
	}
	m.RunAll()
	m.Shutdown()
	mv := d.Moves()
	if len(mv) != 2 || mv[0].To/4 != 3 || mv[1].To/4 != 1 {
		t.Fatalf("want one move into station 3, then one into station 1:\n%s", d.Report())
	}
	if gap := mv[1].At - mv[0].At; gap < sim.Micros(200) {
		t.Errorf("two moves of one slot %v apart on a 25us plane, want at least eight windows, 200us:\n%s", gap, d.Report())
	}
}
