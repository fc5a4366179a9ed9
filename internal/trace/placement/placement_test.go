package placement

import (
	"strings"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
)

// TestAnalyzeMovesRemoteData builds a trace where module 13's data is
// accessed almost entirely from station 0: the analyzer must propose moving
// it into station 0, and the projection must show the ring traffic gone.
// On a ring hierarchy of two stations per local ring, the same accesses
// cross the global ring: each is priced at Ring2, and the report's ring
// column counts them.
func TestAnalyzeMovesRemoteData(t *testing.T) {
	for _, cfg := range []sim.Config{{}, {StationsPerRing: 2}} {
		cfg = cfg.WithDefaults()
		topo, costs := autonomic.TopoOf(cfg), autonomic.CostsFromLatency(cfg.Lat)
		far := float64(cfg.Lat.Ring) // station 0 to module 13
		if cfg.StationsPerRing > 0 {
			far = float64(cfg.Lat.Ring2) // across the global ring
		}
		agg := trace.NewAggregate(topo.Modules())
		emit := func(src, dst int, n int) {
			for i := 0; i < n; i++ {
				agg.Event(sim.TraceEvent{Kind: sim.EvAccess, Src: src, Dst: dst,
					Dist: topo.Dist(src, dst)})
			}
		}
		// Hot object homed on 13, hammered from modules 0-3 (all cross-ring).
		emit(0, 13, 400)
		emit(1, 13, 300)
		emit(2, 13, 200)
		emit(3, 13, 100)
		emit(13, 13, 10) // a little local traffic from its own module
		// A well-placed object for contrast: module 5 used from its own station.
		emit(4, 5, 50)
		emit(5, 5, 50)

		rep := Analyze(agg, topo, costs)
		if len(rep.Data) != 2 {
			t.Fatalf("%+v: got %d data proposals, want 2", topo, len(rep.Data))
		}
		hot := rep.Data[0] // hottest first
		if hot.Home != 13 || !hot.Moved() {
			t.Fatalf("%+v: hot object not moved: %+v", topo, hot)
		}
		if hot.Proposed/4 != 0 {
			t.Fatalf("%+v: proposed module %d is not in station 0", topo, hot.Proposed)
		}
		if want := 1000*far + 10*costs.Local; hot.CurCost != want {
			t.Fatalf("%+v: current cost %.0f, want %.0f (%g per cross-ring access)", topo, hot.CurCost, want, far)
		}
		if ringAccesses(hot.NewByDist) >= ringAccesses(hot.CurByDist) {
			t.Fatalf("%+v: ring accesses did not drop: %d -> %d",
				topo, ringAccesses(hot.CurByDist), ringAccesses(hot.NewByDist))
		}
		if hot.NewCost >= hot.CurCost {
			t.Fatalf("%+v: cost did not drop: %.0f -> %.0f", topo, hot.CurCost, hot.NewCost)
		}
		for _, p := range rep.Data[1:] {
			if p.Home == 5 && p.Moved() {
				t.Fatalf("%+v: well-placed module 5 data was moved: %+v", topo, p)
			}
		}
		mv := rep.Moves()
		if len(mv) != 1 || mv[13] != hot.Proposed {
			t.Fatalf("%+v: Moves() = %v, want {13: %d}", topo, mv, hot.Proposed)
		}
		out := rep.String()
		for _, frag := range []string{"placement analysis", "data placement", "-> module", "keep", "ring 1000 -> 10)"} {
			if !strings.Contains(out, frag) {
				t.Errorf("%+v: report missing %q:\n%s", topo, frag, out)
			}
		}
	}
}

// TestAnalyzeLockProposals checks lock-wait spans produce lock proposals.
func TestAnalyzeLockProposals(t *testing.T) {
	topo := autonomic.Topo{Stations: 4, ProcsPerStation: 4}
	agg := trace.NewAggregate(topo.Modules())
	for src, n := range map[int]int{0: 50, 1: 40, 2: 30} {
		for i := 0; i < n; i++ {
			agg.Event(sim.TraceEvent{Kind: sim.EvSpan, Span: sim.SpanLockWait,
				Name: "wait H2-MCS", Proc: src, Src: src, Dst: 12,
				Dist: topo.Dist(src, 12)})
		}
	}
	rep := Analyze(agg, topo, autonomic.CostsFromLatency(sim.DefaultLatency()))
	if len(rep.Locks) != 1 {
		t.Fatalf("got %d lock proposals, want 1", len(rep.Locks))
	}
	l := rep.Locks[0]
	if l.Object != `lock "H2-MCS"` {
		t.Errorf("object = %q", l.Object)
	}
	if !l.Moved() || l.Proposed/4 != 0 {
		t.Fatalf("lock not moved into station 0: %+v", l)
	}
}

// TestAnalyzeSpreadsTies checks the load-aware tie-break: two equally hot
// objects contended from the same sources should not both land on the same
// module when an equal-cost alternative exists.
func TestAnalyzeSpreadsTies(t *testing.T) {
	topo := autonomic.Topo{Stations: 4, ProcsPerStation: 4}
	agg := trace.NewAggregate(topo.Modules())
	emit := func(src, dst int, n int) {
		for i := 0; i < n; i++ {
			agg.Event(sim.TraceEvent{Kind: sim.EvAccess, Src: src, Dst: dst,
				Dist: topo.Dist(src, dst)})
		}
	}
	// Two remote objects both accessed only from modules 0 and 1 equally:
	// any module in station 0 has the same cost for them.
	emit(0, 12, 100)
	emit(1, 12, 100)
	emit(0, 13, 100)
	emit(1, 13, 100)
	rep := Analyze(agg, topo, autonomic.CostsFromLatency(sim.DefaultLatency()))
	if len(rep.Data) != 2 || !rep.Data[0].Moved() || !rep.Data[1].Moved() {
		t.Fatalf("expected both objects moved: %+v", rep.Data)
	}
	if rep.Data[0].Proposed == rep.Data[1].Proposed {
		t.Fatalf("both objects piled onto module %d", rep.Data[0].Proposed)
	}
}

// refPropose is propose as first written, pricing a candidate each time it
// looks at one: the reference the tabulated version must match bit for
// bit.
func refPropose(home int, vector []float64, topo autonomic.Topo, costs autonomic.Costs, load []float64, eps float64) (int, float64, float64) {
	n := len(load)
	cost := func(cand int) float64 {
		var c float64
		for src, cnt := range vector {
			if cnt == 0 {
				continue
			}
			c += cnt * costs.Of(topo.Dist(src, cand))
		}
		return c
	}
	cur := cost(home)
	best, bestCost := home, cur
	for cand := 0; cand < n; cand++ {
		if c := cost(cand); c < bestCost {
			best, bestCost = cand, c
		}
	}
	choice := home
	if cur > bestCost*(1+eps) {
		choice = best
		for cand := 0; cand < n; cand++ {
			if cand == choice {
				continue
			}
			if cost(cand) <= bestCost*(1+eps) && load[cand] < load[choice] {
				choice = cand
			}
		}
	}
	return choice, cur, cost(choice)
}

// propose prices each candidate once from the weight table, with the same
// float operations in the same order as the reference: on random vectors
// (whole counts and fractions of an access), homes, loads and bands, both
// choose the same home at the same two costs.
func TestProposeMatchesReference(t *testing.T) {
	topo := autonomic.Topo{Stations: 4, ProcsPerStation: 4}
	costs := autonomic.CostsFromLatency(sim.DefaultLatency())
	w := autonomic.NewWeights(topo, costs)
	n := topo.Modules()
	cost := make([]float64, n)
	rng := sim.NewRNG(0x9a0)
	moved := 0
	for c := 0; c < 500; c++ {
		vector := make([]float64, n)
		for i := range vector {
			if rng.Intn(3) > 0 {
				vector[i] = float64(rng.Intn(1<<uint(rng.Intn(14)))) / float64(int(1)<<uint(rng.Intn(6)))
			}
		}
		load := make([]float64, n)
		for i := range load {
			load[i] = float64(rng.Intn(4)) * 1000
		}
		home := rng.Intn(n)
		eps := []float64{0, keepEpsilon, 0.10, 0.25}[rng.Intn(4)]
		to, cur, next := propose(home, vector, w, load, cost, eps)
		wantTo, wantCur, wantNext := refPropose(home, vector, topo, costs, load, eps)
		if to != wantTo || cur != wantCur || next != wantNext {
			t.Fatalf("case %d: propose = (%d, %v, %v), reference (%d, %v, %v)", c, to, cur, next, wantTo, wantCur, wantNext)
		}
		if to != home {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no case proposed a move")
	}
}
