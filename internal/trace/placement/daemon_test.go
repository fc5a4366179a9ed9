package placement_test

import (
	"fmt"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/cluster"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
)

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

// daemonRun executes the station-0 faulter workload with the online daemon
// attached and returns a fingerprint covering everything observable: move
// log, migration counters, fault latency, and final simulated time.
func daemonRun(seed uint64) string {
	agg := trace.NewAggregate(16)
	sys := core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: seed},
		ClusterSize: 16,
		LockKind:    locks.KindH2MCS,
		Tracer:      agg,
		Migratable:  true,
	})
	_, d := placement.Attach(autonomic.NewPlane(sim.Micros(25)), sys.M, agg, nil, nil,
		&placement.DaemonParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3}, placement.ManageKernel(sys.K))
	res := workload.IndependentFaults(sys, 4, 4, 6)
	return fmt.Sprintf("%s|mig=%d words=%d cycles=%d|fault=%.6f|end=%v",
		d.Report(), res.Stats.Migrations, res.Stats.MigratedWords,
		res.Stats.MigrationCycles, res.Dist.Mean(), sys.M.Eng.Now())
}

// The daemon is part of the deterministic simulation: identical seeds must
// produce byte-identical runs, moves and all.
func TestDaemonDeterminism(t *testing.T) {
	a, b := daemonRun(1), daemonRun(1)
	if a != b {
		t.Fatalf("two identical daemon runs diverged:\n%s\n---\n%s", a, b)
	}
}

// An already-optimal layout gives the daemon nothing to do: zero moves,
// zero migrations, zero charged cost — so enabling it on a well-placed
// system is free.
func TestDaemonNoOpOnOptimalLayout(t *testing.T) {
	agg := trace.NewAggregate(16)
	sys := core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: 1},
		ClusterSize: 16,
		LockKind:    locks.KindH2MCS,
		Tracer:      agg,
		Migratable:  true,
		// Pre-place every slot inside station 0, where all the faulters
		// run: the blended access vector then costs the same at any
		// station-0 module, which is inside the indifference band.
		SlotModule: func(c, slot, def int) int { return slot },
	})
	_, d := placement.Attach(autonomic.NewPlane(sim.Micros(25)), sys.M, agg, nil, nil,
		&placement.DaemonParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3}, placement.ManageKernel(sys.K))
	res := workload.IndependentFaults(sys, 4, 4, 8)
	if n := len(d.Moves()); n != 0 {
		t.Fatalf("daemon made %d moves on an optimal layout:\n%s", n, d.Report())
	}
	if res.Stats.Migrations != 0 || res.Stats.MigrationCycles != 0 {
		t.Fatalf("charged %d migrations / %d cycles on an optimal layout",
			res.Stats.Migrations, res.Stats.MigrationCycles)
	}
}

// An adversarial workload that oscillates between stations faster than any
// placement can pay off must be contained by the per-slot budget: the
// daemon may be wrong, but only Budget times. Every phase is long enough
// to confirm a move, so the log must reach the budget and stop there.
func TestDaemonThrashBudget(t *testing.T) {
	const budget = 3
	m := sim.NewMachine(sim.Config{Seed: 1})
	agg := trace.NewAggregate(16)
	m.SetTracer(agg)
	region := m.Mem.NewRegion(0)
	data := m.Alloc(region, 4)
	_, d := placement.Attach(autonomic.NewPlane(sim.Micros(25)), m, agg, nil, nil,
		&placement.DaemonParams{Decay: 0.9, MinWeight: 0.25, Confirm: 2, Budget: budget},
		[]placement.DaemonSlot{{
			Name:   "data",
			Region: region,
			Migrate: func(p *sim.Proc, to int) {
				m.Mem.MigrateRegion(p, region, to)
			},
		}})

	// Processors 0 (station 0) and 12 (station 3) alternate hammering the
	// region in 600us phases — long enough for the Decay 0.9 signal to turn
	// and a 2-window streak to confirm each station, about 300us into its
	// phase, before the traffic flips away again. Every processor serves
	// interrupts once its work is done, so each move runs on the processor
	// co-located with the data.
	hammer := func(active bool, p *sim.Proc) {
		deadline := p.Now() + sim.Time(sim.Micros(600))
		for p.Now() < deadline {
			if active {
				p.Store(data, uint64(p.ID()))
			} else {
				p.Think(50)
			}
		}
	}
	const phases = 12
	m.Go(0, func(p *sim.Proc) {
		for ph := 0; ph < phases; ph++ {
			hammer(ph%2 == 0, p)
		}
		p.Think(sim.Micros(100)) // outlive proc 12's last phase
		cluster.Serve(p)
	})
	m.Go(12, func(p *sim.Proc) {
		for ph := 0; ph < phases; ph++ {
			hammer(ph%2 == 1, p)
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

	if n := slotMoves(d, "data"); n != budget {
		t.Fatalf("oscillating workload drove %d moves, want the budget %d exactly:\n%s", n, budget, d.Report())
	}
}
