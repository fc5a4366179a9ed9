package exp

import (
	"fmt"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
)

// placementPhase is one traced, telemetry-wrapped run of the station-0
// faulter workload: 4 faulting processes concentrated in station 0 while
// the cluster's kernel data is striped across the machine (the topology's
// default), so most slots are pure cross-ring traffic placement should
// eliminate.
type placementPhase struct {
	m       *sim.Machine
	agg     *trace.Aggregate
	mm      *locks.Stats
	faultUS float64
	kstats  kernel.Stats
	daemon  *placement.Daemon // non-nil when the online daemon ran
}

// runPlacement executes the workload once on mc, as a single cluster
// spanning the whole machine; the analyzer and the daemon take their
// topology and cost model from the machine. A non-nil
// moves map replays analyzer-proposed homes offline (kernel SlotModule);
// online instead allocates the kernel data in migratable regions and lets
// the online daemon (OnlineDaemonParams, on a plane ticking every
// OnlinePeriod) re-home it mid-run. Neither is the static baseline.
func runPlacement(mc sim.Config, rounds int, moves map[int]int, online bool) placementPhase {
	var ph placementPhase
	ph.agg = trace.NewAggregate(procsOf(mc))
	cfg := core.Config{
		Machine:     mc,
		ClusterSize: procsOf(mc),
		LockKind:    locks.KindH2MCS,
		Tracer:      ph.agg,
	}
	if moves != nil {
		cfg.SlotModule = func(c, slot, def int) int {
			if to, ok := moves[def]; ok {
				return to
			}
			return def
		}
	}
	cfg.Migratable = online
	sys := core.NewSystem(cfg)
	ph.m = sys.M
	ph.mm = locks.NewStats(sys.M, sys.K.VM.MMLock(0))
	sys.K.VM.SetMMLock(0, ph.mm)
	if online {
		dp := OnlineDaemonParams()
		_, ph.daemon = placement.Attach(autonomic.NewPlane(OnlinePeriod), sys.M, ph.agg, nil, nil, &dp, placement.ManageKernel(sys.K))
	}
	res := workload.IndependentFaults(sys, 4, 4, rounds)
	ph.faultUS = res.Dist.Mean()
	ph.kstats = res.Stats
	return ph
}

// analyze runs the offline analyzer over the phase's trace, against its
// machine's topology and costs.
func (ph placementPhase) analyze() *placement.Report {
	return placement.Analyze(ph.agg, autonomic.TopoOf(ph.m.Config()), autonomic.CostsFromLatency(ph.m.Lat()))
}

// placementReport appends one phase's shared measurement columns (fault
// latency, mm-lock acquire, ring-access share and counts, ring hand-offs,
// RPC ring share) plus the standard metrics, namespaced by prefix (empty
// for the offline experiment's historical metric names). Extra cells
// (online move counts, migration overhead) follow the shared ones. It
// returns the phase's cross-ring access count.
func placementReport(t *Table, prefix, name string, ph placementPhase, extra ...string) uint64 {
	total := ph.agg.AccessByDist[0] + ph.agg.AccessByDist[1] + ph.agg.AccessByDist[2]
	ringAcc := ph.agg.AccessByDist[sim.DistRing]
	ringPct := 0.0
	if total > 0 {
		ringPct = 100 * float64(ringAcc) / float64(total)
	}
	rpcObj := uint64(0)
	rpcRing := uint64(0)
	for _, o := range ph.agg.SortedObjects() {
		if o.Span == sim.SpanRPC {
			rpcObj += o.Count
			rpcRing += o.ByDist[sim.DistRing]
		}
	}
	rpcPct := 0.0
	if rpcObj > 0 {
		rpcPct = 100 * float64(rpcRing) / float64(rpcObj)
	}
	rowName := name
	full := name
	if prefix != "" {
		rowName = prefix + "/" + name
		full = prefix + "." + name
	}
	cells := []string{rowName, f1(ph.faultUS), f1(ph.mm.AcquireUS.Mean()), f1(ringPct),
		d(ringAcc), d(ph.mm.Handoffs[sim.DistRing]), f1(rpcPct)}
	t.AddRow(append(cells, extra...)...)
	t.AddMetric(fmt.Sprintf("%s.fault_mean", full), ph.faultUS, "us")
	t.AddMetric(fmt.Sprintf("%s.mm_acquire_mean", full), ph.mm.AcquireUS.Mean(), "us")
	t.AddMetric(fmt.Sprintf("%s.ring_accesses", full), float64(ringAcc), "count")
	t.AddMetric(fmt.Sprintf("%s.ring_handoffs", full), float64(ph.mm.Handoffs[sim.DistRing]), "count")
	return ringAcc
}

// Placement closes the loop the trace pipeline exists for: trace a
// Figure-7-style fault workload, feed the aggregated access matrix to the
// placement analyzer, then replay the identical workload with the proposed
// kernel-data homes applied (via kernel.Config.SlotModule) and measure what
// actually changed.
//
// The workload concentrates 4 faulting processes in station 0 of the
// 16-processor HECTOR while the single cluster's kernel data is striped
// across modules 0/4/8/12 (the topology's default), so three of the four
// slots are pure cross-ring traffic the analyzer should pull toward the
// faulters. Both runs are traced and telemetry-wrapped identically, so the
// comparison isolates the placement change.
func Placement(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Trace-guided placement: 4 faulters in station 0, kernel data re-homed by the analyzer",
		Cols: []string{"run", "fault_us", "mm_acq_us", "ring_acc%", "ring_accesses",
			"ring_handoffs", "rpc_ring%"},
	}
	mc := machine.Hector16(seed)

	// Phase A: trace the default placement (doubling as the baseline run —
	// tracing and telemetry charge no simulated time).
	base := runPlacement(mc, rounds, nil, false)
	rep := base.analyze()
	moves := rep.Moves()

	// Phase B: replay with the proposed homes.
	placed := runPlacement(mc, rounds, moves, false)

	ringBase := placementReport(t, "", "baseline", base)
	ringPlaced := placementReport(t, "", "placed", placed)

	nmoves := len(moves)
	reduction := 0.0
	if ringBase > 0 {
		reduction = 1 - float64(ringPlaced)/float64(ringBase)
	}
	t.AddMetric("placement.moves", float64(nmoves), "count")
	t.AddMetric("placement.ring_access_reduction", reduction, "frac")
	t.Note("analyzer proposed %d data moves; cross-ring accesses %d -> %d (-%.0f%%), fault mean %.1f -> %.1fus",
		nmoves, ringBase, ringPlaced, 100*reduction, base.faultUS, placed.faultUS)
	for _, p := range rep.Data {
		if p.Moved() {
			t.Note("  %s: module %d -> %d (projected cost -%.0f%%)",
				p.Object, p.Home, p.Proposed, 100*(p.CurCost-p.NewCost)/p.CurCost)
		}
	}
	return t
}
