package exp

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// LockUtilization reproduces the paper's §2.1/§4.2 second-order claim with
// the observability layer itself: 16 processors pound one lock with a 25us
// hold, and the table shows where the memory system's cycles went. With
// the backoff spin lock every attempt is a swap on the lock's home module,
// so the home module (which also holds the protected data) saturates and
// the holder's own critical-section accesses queue behind spinners; with
// the distributed H2-MCS lock waiters spin in their own local memory and
// the home module stays quiet.
//
// Utilization is windowed: warm-up rounds are excluded by a mid-run
// ResetStats, exercising the windowed accounting this PR fixed.
func LockUtilization(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Lock observability: where the cycles go at p=16, hold=25us (windowed, warm-up excluded)",
		Cols: []string{"lock", "acquire_us", "hold_us", "depth_max",
			"home_util", "other_mod_max", "ring_util", "handoff_ring%"},
	}
	kinds := []locks.Kind{locks.KindH2MCS, locks.KindSpin}
	var homeUtil = map[locks.Kind]float64{}
	runs := make([]*workload.LockStressObserved, len(kinds))
	RunParallel(len(kinds), func(i int) {
		runs[i] = workload.LockStressRun(workload.StressConfig{
			Machine: sim.Config{Seed: seed}, Kind: kinds[i],
			Procs: 16, Rounds: rounds, Warmup: rounds/4 + 1, Hold: sim.Micros(25),
		})
	})
	for i, k := range kinds {
		r := runs[i]
		var home, otherMax, ring float64
		for i, ru := range r.Resources {
			switch {
			case i == r.HomeModule:
				home = ru.Utilization
			case ru.Name == "ring":
				ring = ru.Utilization
			case i < 16 && ru.Utilization > otherMax:
				otherMax = ru.Utilization
			}
		}
		homeUtil[k] = home
		s := r.Lock
		ringPct := 0.0
		if tot := s.HandoffTotal(); tot > 0 {
			ringPct = 100 * float64(s.Handoffs[sim.DistRing]) / float64(tot)
		}
		t.AddRow(k.String(), f1(s.AcquireUS.Mean()), f1(s.HoldUS.Mean()),
			fmt.Sprintf("%d", s.MaxQueueDepth),
			pct(home), pct(otherMax), pct(ring), f1(ringPct))
		t.AddMetric(fmt.Sprintf("%s.acquire_mean", k), s.AcquireUS.Mean(), "us")
		t.AddMetric(fmt.Sprintf("%s.hold_mean", k), s.HoldUS.Mean(), "us")
		t.AddMetric(fmt.Sprintf("%s.home_module_util", k), home, "frac")
		t.AddMetric(fmt.Sprintf("%s.ring_util", k), ring, "frac")
	}
	t.Note("paper §4.2: remote spinning saturates the lock's home module and slows the holder; "+
		"MCS-style locks keep it quiet (spin home %.0f%% vs H2-MCS %.0f%%)",
		homeUtil[locks.KindSpin]*100, homeUtil[locks.KindH2MCS]*100)
	return t
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// saturationUtil is the home-module utilization past which the module is
// effectively saturated: the holder's own critical-section accesses queue
// behind spinner traffic and hold times inflate.
const saturationUtil = 0.90

// LockUtilization64 sweeps processor count on both machine configurations
// and reports the spin lock's home-module saturation crossover — the
// smallest p at which the home module exceeds 90% busy — next to H2-MCS,
// which never saturates it. The station size differs between the machines
// (4 processors/station on HECTOR, 8 on NUMAchine), so the sweep answers
// whether the crossover is a property of station size or of the sheer
// number of remote spinners.
func LockUtilization64(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Home-module saturation vs machine scale (hold=25us, windowed)",
		Cols:  []string{"machine", "lock", "p", "acquire_us", "home_util", "ring_util"},
	}
	type mc struct {
		name string
		cfg  func(seed uint64) sim.Config
		ps   []int
	}
	machines := []mc{
		{"hector16", machine.Hector16, []int{4, 8, 16}},
		{"numachine64", machine.NUMAchine64, []int{4, 8, 16, 32, 64}},
	}
	kinds := []locks.Kind{locks.KindSpin, locks.KindH2MCS}

	type cell struct {
		m    mc
		kind locks.Kind
		p    int
	}
	var cells []cell
	for _, m := range machines {
		for _, k := range kinds {
			for _, p := range m.ps {
				cells = append(cells, cell{m, k, p})
			}
		}
	}
	runs := make([]*workload.LockStressObserved, len(cells))
	RunParallel(len(cells), func(i int) {
		c := cells[i]
		runs[i] = workload.LockStressRun(workload.StressConfig{
			Machine: c.m.cfg(seed),
			Kind:    c.kind,
			Procs:   c.p,
			Rounds:  rounds,
			Warmup:  rounds/4 + 1,
			Hold:    sim.Micros(25),
		})
	})

	crossover := map[string]int{}
	for i, c := range cells {
		r := runs[i]
		var home, ring float64
		for j, ru := range r.Resources {
			switch {
			case j == r.HomeModule:
				home = ru.Utilization
			case ru.Name == "ring":
				ring = ru.Utilization
			}
		}
		t.AddRow(c.m.name, c.kind.String(), fmt.Sprintf("%d", c.p),
			f1(r.Lock.AcquireUS.Mean()), pct(home), pct(ring))
		t.AddMetric(fmt.Sprintf("%s.%s.p%d.home_module_util", c.m.name, c.kind, c.p), home, "frac")
		t.AddMetric(fmt.Sprintf("%s.%s.p%d.acquire_mean", c.m.name, c.kind, c.p), r.Lock.AcquireUS.Mean(), "us")
		if c.kind == locks.KindSpin && home >= saturationUtil {
			if _, seen := crossover[c.m.name]; !seen {
				crossover[c.m.name] = c.p
			}
		}
	}
	for _, m := range machines {
		p, ok := crossover[m.name]
		if !ok {
			t.Note("%s: spin never saturated the home module in this sweep", m.name)
			continue
		}
		t.AddMetric(fmt.Sprintf("%s.spin.saturation_crossover_p", m.name), float64(p), "procs")
		t.Note("%s (%d procs/station): spin saturates the home module (>%.0f%%) from p=%d",
			m.name, m.cfg(seed).WithDefaults().ProcsPerStation, saturationUtil*100, p)
	}
	return t
}
