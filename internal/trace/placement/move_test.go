package placement

import (
	"fmt"
	"strings"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/cluster"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
)

// TestMoveCarriesPricedInputs holds a move to the inputs it acted on: a
// region homed on module 0 and read only by processor 12 moves to module
// 12, and its Move records the copy price of the region's words at the
// machine's ring weight and a per-window saving that repays it within the
// payback horizon and is at most the window's loads all turned from ring
// to local. Report prints both.
func TestMoveCarriesPricedInputs(t *testing.T) {
	const words = 8
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, words)
	_, d := Attach(autonomic.NewPlane(sim.Micros(25)), m, agg, nil, nil,
		&DaemonParams{Decay: 0.5, MinWeight: 0.25, Confirm: 1}, []DaemonSlot{{
			Name:    "data",
			Region:  region,
			Migrate: func(p *sim.Proc, to int) { m.Mem.MigrateRegion(p, region, to) },
		}})
	var loads uint64
	for i := 0; i < m.NumProcs(); i++ {
		if i != 12 {
			m.Go(i, cluster.Serve)
		}
	}
	m.Go(12, func(p *sim.Proc) {
		for p.Now() < sim.Time(sim.Micros(200)) {
			p.Load(data + sim.Addr(loads%words))
			loads++
		}
		cluster.Serve(p)
	})
	m.RunAll()
	m.Shutdown()

	moves := d.Moves()
	if len(moves) != 1 || moves[0].From != 0 || moves[0].To != 12 {
		t.Fatalf("moves %+v, want one from module 0 to 12", moves)
	}
	mv := moves[0]
	costs := autonomic.CostsFromLatency(m.Lat())
	if want := costs.Copy(words); mv.Copy != want {
		t.Errorf("copy %v, want %v (%d words at the ring weight)", mv.Copy, want, words)
	}
	// A 25us window holds at most 25us worth of back-to-back ring loads.
	perWindow := float64(sim.Micros(25)) / costs.Ring
	if mv.Saves <= 0 || !autonomic.Worthwhile(mv.Saves, payback, mv.Copy) ||
		mv.Saves > perWindow*(costs.Ring-costs.Local) {
		t.Errorf("saves %v cycles/window: want a saving that repays copy %v within %d windows and at most %v",
			mv.Saves, mv.Copy, payback, perWindow*(costs.Ring-costs.Local))
	}
	line := fmt.Sprintf("module 0 -> 12: saves %.1f cycles/window, copy %.0f\n", mv.Saves, mv.Copy)
	if !strings.Contains(d.Report(), line) {
		t.Errorf("report lacks %q:\n%s", line, d.Report())
	}
}

// TestDaemonRanksFractionalCounts holds the daemon to its smoothed signal
// as it is: a slot read from each of station 3's modules under 1/32 access
// per window, whose mass still clears MinWeight, is ranked on those
// fractions and moved into station 3. Rounded to a coarse fixed point, the
// same vector would be all zeros and price every home alike.
func TestDaemonRanksFractionalCounts(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	topo, costs := autonomic.TopoOf(m.Config()), autonomic.CostsFromLatency(m.Lat())
	agg := trace.NewAggregate(topo.Modules())
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 1)
	d := NewDaemon(m, agg, topo, costs, DaemonParams{Decay: 0.99, MinWeight: 0.05, Confirm: 1},
		[]DaemonSlot{{Name: "data", Region: region, Migrate: func(*sim.Proc, int) {}}})
	// Two windows, each with one load from every module of station 3.
	for w := 1; w <= 2; w++ {
		for src := 12; src < 16; src++ {
			agg.Event(sim.TraceEvent{Kind: sim.EvAccess, Name: "load", Src: src, Dst: 0,
				Dist: topo.Dist(src, 0), Arg: uint64(data)})
		}
		d.Tick(sim.Time(w))
	}
	win := &d.slots[0].win
	for src, v := range win.V {
		if v >= 1.0/32 {
			t.Fatalf("module %d's smoothed count %v is not under 1/32 access per window", src, v)
		}
	}
	if win.Mass() < d.p.MinWeight {
		t.Fatalf("smoothed mass %v under MinWeight %v", win.Mass(), d.p.MinWeight)
	}
	mv := d.Moves()
	if len(mv) != 1 || mv[0].From != 0 || mv[0].To/topo.ProcsPerStation != 3 {
		t.Fatalf("moves %+v, want one from module 0 into station 3:\n%s", mv, d.Report())
	}
}

// NewDaemon refuses an aggregate that does not count exactly the
// topology's modules: the daemon ranks homes among those modules, from
// vectors indexed by them.
func TestNewDaemonChecksAggregateSize(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	topo, costs := autonomic.TopoOf(m.Config()), autonomic.CostsFromLatency(m.Lat())
	for _, n := range []int{topo.Modules() / 2, topo.Modules() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDaemon over a %d-module aggregate and a %d-module topology did not panic", n, topo.Modules())
				}
			}()
			NewDaemon(m, trace.NewAggregate(n), topo, costs, DaemonParams{}, nil)
		}()
	}
}
