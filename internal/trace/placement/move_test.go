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
