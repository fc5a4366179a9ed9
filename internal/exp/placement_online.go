package exp

import (
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace/placement"
)

// OnlinePeriod is the cadence of the plane OnlineDaemonParams is tuned
// for: sampling fast (25us against a ~200us fault) so a placement mistake
// is noticed within one fault. It makes the daemon's cooldown 200us.
const OnlinePeriod sim.Duration = 25 * sim.CyclesPerMicrosecond

// OnlineDaemonParams is the controller tuning for kernel data under a page
// fault workload, which placement_online runs on both machines and
// lockstat -run faults -migrate runs too, each on a plane ticking every
// OnlinePeriod: smoothing over a ~250us horizon (Decay 0.9 at that
// cadence) so no single fault's burst dominates the vector; MinWeight low
// enough that even the scratch slots' ~1 access/window steady rate clears
// it; and three confirming windows before any copy. Budget keeps its
// default.
func OnlineDaemonParams() placement.DaemonParams {
	return placement.DaemonParams{
		Decay:     0.9,
		MinWeight: 0.25,
		Confirm:   3,
	}
}

// PlacementOnline pits the online placement daemon against the static
// default striping and against exp.Placement's offline trace-then-replay
// loop, on both the paper's HECTOR-16 and the §5.3 NUMAchine-64 sketch.
// The workload is the same station-0 faulter concentration as Placement,
// so the interesting question is not *whether* cross-ring traffic can be
// eliminated (the offline replay proves it can) but whether an in-run
// controller gets there from a cold start, net of the migration copies and
// lock holds it charges — and whether the win grows with remote-access
// cost, as the paper's scaling argument predicts.
func PlacementOnline(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Online placement: static striping vs offline replay vs in-run daemon, HECTOR-16 and NUMAchine-64",
		Cols: []string{"machine/run", "fault_us", "mm_acq_us", "ring_acc%", "ring_accesses",
			"ring_handoffs", "rpc_ring%", "moves", "mig_us"},
	}

	type setup struct {
		name string
		mc   sim.Config
	}
	setups := []setup{
		{"hector16", machine.Hector16(seed)},
		{"numachine64", machine.NUMAchine64(seed)},
	}

	type outcome struct {
		static, offline, online placementPhase
		offlineMoves            int
	}
	outs := make([]outcome, len(setups))
	RunParallel(len(setups), func(i int) {
		mc := setups[i].mc
		o := &outs[i]
		// Static striping doubles as the offline analyzer's training trace.
		o.static = runPlacement(mc, rounds, nil, false)
		moves := o.static.analyze().Moves()
		o.offlineMoves = len(moves)
		o.offline = runPlacement(mc, rounds, moves, false)
		o.online = runPlacement(mc, rounds, nil, true)
	})

	var rel [2]float64
	for i, s := range setups {
		o := outs[i]
		ringStatic := placementReport(t, s.name, "static", o.static, "0", "0.0")
		placementReport(t, s.name, "offline", o.offline, d(uint64(o.offlineMoves)), "0.0")
		migUS := float64(o.online.kstats.MigrationCycles) / sim.CyclesPerMicrosecond
		nmoves := len(o.online.daemon.Moves())
		ringOnline := placementReport(t, s.name, "online", o.online, d(uint64(nmoves)), f1(migUS))

		reduction := 0.0
		if ringStatic > 0 {
			reduction = 1 - float64(ringOnline)/float64(ringStatic)
		}
		if o.static.faultUS > 0 {
			rel[i] = (o.static.faultUS - o.online.faultUS) / o.static.faultUS
		}
		t.AddMetric(s.name+".online.moves", float64(nmoves), "count")
		t.AddMetric(s.name+".online.migration_overhead", migUS, "us")
		t.AddMetric(s.name+".online.ring_access_reduction", reduction, "frac")
		t.AddMetric(s.name+".online.fault_improvement", rel[i], "frac")
		t.Note("%s: daemon made %d moves (%.1fus copy+lock charge); cross-ring accesses %d -> %d (-%.0f%%), fault mean %.1f -> %.1fus (offline replay: %.1fus)",
			s.name, nmoves, migUS, ringStatic, ringOnline, 100*reduction,
			o.static.faultUS, o.online.faultUS, o.offline.faultUS)
	}
	t.Note("relative fault-latency win online vs static: hector16 %.1f%%, numachine64 %.1f%% — the daemon matters more as remote accesses get dearer",
		100*rel[0], 100*rel[1])
	return t
}
