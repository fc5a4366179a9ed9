package autonomic

import (
	"math"
	"slices"
	"testing"

	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

func TestDecayedSumRetainsDecayOfMass(t *testing.T) {
	d := DecayedSum{Decay: 0.5}
	d.Add(8)
	d.Add(8)
	d.Add(8)
	// 8*(1 + 0.5 + 0.25) = 14
	if d.S != 14 {
		t.Fatalf("decayed sum = %v, want 14", d.S)
	}
	d.Reset()
	if d.S != 0 {
		t.Fatalf("sum after Reset = %v, want 0", d.S)
	}
}

// The ratio of two decayed sums is the per-event mean of recent windows,
// and it must freeze — not decay toward garbage — when the denominator's
// evidence dries up.
func TestDecayedRatioFreezesBelowFloor(t *testing.T) {
	r := DecayedRatio{Decay: 0.5, Floor: 1}
	if got := r.Observe(30, 10); got != 3 {
		t.Fatalf("ratio after first window = %v, want 3", got)
	}
	// Empty windows: denominator mass decays to 5, 2.5, 1.25, 0.625... once
	// it drops through the floor the ratio must stop being recomputed.
	for i := 0; i < 10; i++ {
		if got := r.Observe(0, 0); got != 3 {
			t.Fatalf("ratio froze at %v on empty window %d, want 3", got, i)
		}
	}
	if r.Mass() >= 1 {
		t.Fatalf("denominator mass %v never fell below the floor — frozen path untested", r.Mass())
	}
	// Fresh mass thaws it.
	if got := r.Observe(0, 100); got >= 3 {
		t.Fatalf("ratio = %v after heavy zero-numerator window, want < 3", got)
	}
	r.Clear()
	if r.Value() != 0 || r.Mass() != 0 {
		t.Fatalf("Clear left ratio=%v mass=%v", r.Value(), r.Mass())
	}
}

func TestDecayedRatioResetKeepsFrozenRatio(t *testing.T) {
	r := DecayedRatio{Decay: 0.5, Floor: 1}
	r.Observe(30, 10)
	r.Reset()
	if r.Value() != 3 {
		t.Fatalf("Reset dropped the frozen ratio: %v, want 3", r.Value())
	}
	if r.Mass() != 0 {
		t.Fatalf("Reset kept mass %v, want 0", r.Mass())
	}
}

func TestEWMAConvergesToLevel(t *testing.T) {
	e := EWMA{Decay: 0.75}
	for i := 0; i < 64; i++ {
		e.Observe(10)
	}
	if math.Abs(e.V-10) > 1e-6 {
		t.Fatalf("EWMA = %v after 64 windows of 10, want ~10", e.V)
	}
	e.Set(3)
	if e.V != 3 {
		t.Fatalf("Set: EWMA = %v, want 3", e.V)
	}
}

// Window folds exactly what the data policies' inline folds did: per
// module, the window's count cur-snap at Decay, in module order; a nil or
// short cumulative vector reads as zero past its end. Raw keeps the
// window's unsmoothed counts. Mass and Total sum the smoothed and
// cumulative vectors in module order.
func TestWindowMatchesInlineFold(t *testing.T) {
	const n = 5
	decay := 0.9 // a variable, as the policies' Decay is: 1-decay rounds at run time
	w := NewWindow(n, decay)
	snap, smooth := make([]uint64, n), make([]float64, n)
	rng := sim.NewRNG(0x3f01d)
	cum := make([]uint64, n)
	for win := 0; win < 40; win++ {
		for i := range cum {
			cum[i] += uint64(rng.Intn(50))
		}
		var in []uint64 // nil: no traffic yet
		switch {
		case win >= 20:
			in = cum
		case win >= 3:
			in = cum[:3] // short: modules 3 and 4 read as zero
		}
		w.Fold(in)
		var mass, total float64
		raw := make([]float64, n)
		for i := 0; i < n; i++ {
			var cur uint64
			if i < len(in) {
				cur = in[i]
			}
			x := float64(cur - snap[i])
			snap[i] = cur
			raw[i] = x
			smooth[i] = decay*smooth[i] + (1-decay)*x
			mass += smooth[i]
			total += float64(cur)
		}
		if !slices.Equal(w.V, smooth) || w.Mass() != mass || w.Total() != total {
			t.Fatalf("window %d: V %v mass %v total %v, inline fold %v mass %v total %v",
				win, w.V, w.Mass(), w.Total(), smooth, mass, total)
		}
		if !slices.Equal(w.Raw, raw) {
			t.Fatalf("window %d: Raw %v, inline diff %v", win, w.Raw, raw)
		}
	}
}

// A copy is priced at the ring weight per word, whatever its route.
func TestCostsCopy(t *testing.T) {
	c := Costs{Local: 10, Station: 19, Ring: 23, Ring2: 40}
	if got := c.Copy(16); got != 16*23 {
		t.Fatalf("Copy(16) = %v, want %v", got, 16*23)
	}
}

func TestBandThresholdsInclusive(t *testing.T) {
	b := Band{Low: 0.2, High: 0.8}
	if !b.Above(0.8) || b.Above(0.79) {
		t.Fatal("Above must trigger at High, not below it")
	}
	if !b.Below(0.2) || b.Below(0.21) {
		t.Fatal("Below must trigger at Low, not above it")
	}
	if b.Mid() != 0.5 {
		t.Fatalf("Mid = %v, want 0.5", b.Mid())
	}
}

func TestDwellConsumesWindows(t *testing.T) {
	d := Dwell{Windows: 3}
	if !d.Ready() {
		t.Fatal("fresh dwell must be ready")
	}
	d.Arm()
	for i := 0; i < 3; i++ {
		if d.Ready() {
			t.Fatalf("ready on window %d of a 3-window dwell", i)
		}
	}
	if !d.Ready() {
		t.Fatal("not ready after the dwell elapsed")
	}
}

func TestStreakRequiresConsecutiveWins(t *testing.T) {
	s := NewStreak(3)
	if s.Observe(5) || s.Observe(5) {
		t.Fatal("streak confirmed before 3 consecutive wins")
	}
	// A different candidate restarts the count.
	if s.Observe(7) {
		t.Fatal("candidate change must not confirm")
	}
	if s.cand != 7 {
		t.Fatalf("candidate = %d, want 7", s.cand)
	}
	s.Observe(7)
	if !s.Observe(7) {
		t.Fatal("3 consecutive wins did not confirm")
	}
	s.Clear()
	if s.cand != -1 {
		t.Fatalf("candidate after Clear = %d, want -1", s.cand)
	}
	if s.Observe(7) || s.Observe(7) || !s.Observe(7) {
		t.Fatal("streak did not restart cleanly after Clear")
	}
}

func TestGateBudgetAndCooldown(t *testing.T) {
	g := Gate{Budget: 2, Cooldown: 100}
	if !g.Ready(50) {
		t.Fatal("fresh gate not ready")
	}
	g.Spend(50)
	if g.Ready(149) {
		t.Fatal("ready inside the cooldown")
	}
	if !g.Ready(150) {
		t.Fatal("not ready after the cooldown elapsed")
	}
	g.Spend(150)
	if g.Ready(10000) {
		t.Fatal("ready past the budget")
	}
	if g.used != 2 {
		t.Fatalf("Used = %d, want 2", g.used)
	}
}

func TestWorthwhilePaybackHorizon(t *testing.T) {
	// 10 cycles/window for 64 windows repays a 640-cycle copy, not 641.
	if !Worthwhile(10, 64, 640) {
		t.Fatal("benefit exactly repaying the cost must be worthwhile")
	}
	if Worthwhile(10, 64, 641) {
		t.Fatal("benefit short of the cost must not be worthwhile")
	}
}

func TestTopoDistAndCosts(t *testing.T) {
	topo := Topo{Stations: 4, ProcsPerStation: 4}
	if topo.Modules() != 16 {
		t.Fatalf("Modules = %d, want 16", topo.Modules())
	}
	costs := CostsFromLatency(sim.DefaultLatency())
	cases := []struct {
		src, dst int
		want     sim.DistClass
	}{
		{5, 5, sim.DistLocal},
		{4, 7, sim.DistStation},
		{0, 12, sim.DistRing},
	}
	for _, c := range cases {
		if got := topo.Dist(c.src, c.dst); got != c.want {
			t.Fatalf("Dist(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	if !(costs.Of(sim.DistLocal) < costs.Of(sim.DistStation) &&
		costs.Of(sim.DistStation) < costs.Of(sim.DistRing)) {
		t.Fatalf("costs not ordered local < station < ring: %+v", costs)
	}

	// NUMAchine-256's ring hierarchy: the policies must classify and price
	// every access as the memory system routes it, global ring included.
	cfg := machine.NUMAchine256(1)
	m := sim.NewMachine(cfg)
	topo = TopoOf(cfg)
	for src := 0; src < topo.Modules(); src++ {
		for dst := 0; dst < topo.Modules(); dst++ {
			if got, want := topo.Dist(src, dst), m.Mem.Distance(src, dst); got != want {
				t.Fatalf("numachine256 Dist(%d,%d) = %v, memory system says %v", src, dst, got, want)
			}
		}
	}
	if got := topo.Dist(0, 200); got != sim.DistGlobal {
		t.Fatalf("numachine256 Dist(0,200) = %v, want global", got)
	}
	lat := m.Lat()
	if got := CostsFromLatency(lat).Of(sim.DistGlobal); got != float64(lat.Ring2) {
		t.Fatalf("numachine256 global-ring cost = %g, want Ring2 = %d", got, lat.Ring2)
	}
}

// countingPolicy records each Tick into a shared log, so a test can assert
// both the tick count and the cross-policy phase order.
type countingPolicy struct {
	name string
	log  *[]string
}

func (c *countingPolicy) Name() string { return c.name }
func (c *countingPolicy) Tick(now sim.Time) {
	*c.log = append(*c.log, c.name)
}

// One plane, one cadence: every registered policy ticks once per window,
// in registration order — the phase ordering the combined experiment's
// determinism depends on.
func TestPlaneTicksPoliciesInOrder(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	var log []string
	pl := NewPlane(sim.Micros(100))
	pl.Add(&countingPolicy{"a", &log})
	pl.Add(&countingPolicy{"b", &log})
	pl.Start(m.Eng)
	m.Go(0, func(p *sim.Proc) { p.Think(sim.Micros(1000)) })
	m.RunAll()
	m.Shutdown()

	if pl.Ticks() < 9 || pl.Ticks() > 11 {
		t.Fatalf("plane ran %d windows over 1ms at 100us, want ~10", pl.Ticks())
	}
	if uint64(len(log)) != 2*pl.Ticks() {
		t.Fatalf("%d policy ticks for %d windows, want %d", len(log), pl.Ticks(), 2*pl.Ticks())
	}
	for i := 0; i < len(log); i += 2 {
		if log[i] != "a" || log[i+1] != "b" {
			t.Fatalf("window %d ticked out of registration order: %v", i/2, log[i:i+2])
		}
	}
}

func TestPlaneStartTwicePanics(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	pl := NewPlane(0)
	if pl.period != sim.Micros(100) {
		t.Fatalf("default period = %v, want 100us", pl.period)
	}
	pl.Start(m.Eng)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	pl.Start(m.Eng)
}

// Weights tabulates Costs.Of(Topo.Dist) for every module pair, and prices
// a pair outside the topology directly.
func TestWeightsMatchCosts(t *testing.T) {
	topo := Topo{Stations: 4, ProcsPerStation: 4}
	c := Costs{Local: 10, Station: 19, Ring: 23}
	w := NewWeights(topo, c)
	for src := -1; src <= topo.Modules()+1; src++ {
		for dst := -1; dst <= topo.Modules()+1; dst++ {
			if got, want := w.Of(src, dst), c.Of(topo.Dist(src, dst)); got != want {
				t.Errorf("Of(%d, %d) = %g, want %g", src, dst, got, want)
			}
		}
	}
	for src := 0; src < topo.Modules(); src++ {
		row := w.Row(src)
		if len(row) != topo.Modules() {
			t.Fatalf("Row(%d) has %d weights, want %d", src, len(row), topo.Modules())
		}
		for dst, v := range row {
			if v != w.Of(src, dst) {
				t.Errorf("Row(%d)[%d] = %g, Of = %g", src, dst, v, w.Of(src, dst))
			}
		}
	}
}

// refBestReplica is bestReplica as first written, re-deriving every
// weight, and each reader's serving copy once per candidate: the
// reference the tabulated version must match bit for bit. A candidate's
// update price is each writer's smoothed writes at the weight from the
// writer's module to the candidate.
func refBestReplica(r *Replicator, s *replicaSlotState, home int, replicas []int) (int, float64) {
	n := r.topo.Modules()
	serving := func(src int) float64 {
		c := r.costs.Of(r.topo.Dist(src, home))
		for _, m := range replicas {
			if v := r.costs.Of(r.topo.Dist(src, m)); v < c {
				c = v
			}
		}
		return c
	}
	best, bestBenefit := -1, 0.0
	for cand := 0; cand < n; cand++ {
		if cand == home || slices.Contains(replicas, cand) {
			continue
		}
		var saving float64
		for src := 0; src < n; src++ {
			if s.reads.V[src] == 0 {
				continue
			}
			cur := serving(src)
			if c := r.costs.Of(r.topo.Dist(src, cand)); c < cur {
				saving += s.reads.V[src] * (cur - c)
			}
		}
		var updates float64
		for src := 0; src < n; src++ {
			if s.writes.V[src] != 0 {
				updates += s.writes.V[src] * r.costs.Of(r.topo.Dist(src, cand))
			}
		}
		benefit := saving - updates
		if benefit > bestBenefit {
			best, bestBenefit = cand, benefit
		}
	}
	return best, bestBenefit
}

// bestReplica walks the weight table's rows, with the same float
// operations per candidate in the same order as the reference.
func TestBestReplicaMatchesReference(t *testing.T) {
	topo := Topo{Stations: 4, ProcsPerStation: 4}
	m := sim.NewMachine(sim.Config{Seed: 1})
	r := NewReplicator(m, topo, CostsFromLatency(m.Lat()), ReplicatorParams{}, nil)
	s := &replicaSlotState{reads: NewWindow(topo.Modules(), 0), writes: NewWindow(topo.Modules(), 0)}
	rng := sim.NewRNG(0xbe57)
	found := 0
	for n := 0; n < 500; n++ {
		for i := range s.reads.V {
			s.reads.V[i] = 0
			if rng.Intn(3) > 0 {
				s.reads.V[i] = 40 * rng.Float64()
			}
		}
		home := rng.Intn(topo.Modules())
		var replicas []int
		for mod := 0; mod < topo.Modules(); mod++ {
			if mod != home && rng.Intn(6) == 0 {
				replicas = append(replicas, mod)
			}
		}
		for i := range s.writes.V {
			s.writes.V[i] = 0
			if rng.Intn(4) == 0 {
				s.writes.V[i] = 2 * rng.Float64()
			}
		}
		gotCand, gotBenefit := r.bestReplica(s, home, replicas)
		wantCand, wantBenefit := refBestReplica(r, s, home, replicas)
		if gotCand != wantCand || gotBenefit != wantBenefit {
			t.Fatalf("case %d: bestReplica = (%d, %v), reference (%d, %v)", n, gotCand, gotBenefit, wantCand, wantBenefit)
		}
		if gotCand >= 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no case found a worthwhile replica")
	}
}
