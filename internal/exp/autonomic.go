package exp

import (
	"fmt"

	"hurricane/internal/autonomic"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
)

// autonomicRow is one policy mix of the sweep: the kernel's lock kind (the
// tuner runs when it is KindTuned) and which data policies run.
type autonomicRow struct {
	name      string
	kind      locks.Kind
	migrate   bool
	replicate bool
}

// autonomicRows is the policy ladder: the static kernel (the paper's
// backoff spin locks, static placement, no replication), each adaptive
// policy alone, then all three under one plane (the last row).
var autonomicRows = []autonomicRow{
	{"off", locks.KindSpin, false, false},
	{"tune", locks.KindTuned, false, false},
	{"migrate", locks.KindSpin, true, false},
	{"replicate", locks.KindSpin, false, true},
	{"combined", locks.KindTuned, true, true},
}

// NewAutonomicCell returns the autonomic sweep's combined row: tuned kernel
// locks, migration and replication under one plane, on the mixed
// read-mostly/write-hot tenant workload. The sweep runs on hector16 only;
// the error says so for any other machine.
func NewAutonomicCell(seed uint64, name string, horizonMS int) (*ServerCell, error) {
	if name != "hector16" {
		return nil, fmt.Errorf("the autonomic sweep has no %s cell; it runs on hector16", name)
	}
	return autonomicCell(seed, autonomicRows[len(autonomicRows)-1], horizonMS), nil
}

// autonomicCell is the autonomic sweep's definition of one row's cell.
// Every row runs the identical workload on the identical machine —
// migratable kernel slots, tenant data regions, the live aggregate tracer
// — so the rows differ only in who acts on it.
func autonomicCell(seed uint64, row autonomicRow, horizonMS int) *ServerCell {
	c := &ServerCell{Config: workload.ServerConfig{
		Machine:     machine.Hector16(seed),
		ClusterSize: 4,
		LockKind:    row.kind,
		Tenants:     16,
		ZipfS:       1.0,
		Arrivals:    serverArrivals(sim.Micros(180), horizonMS),
		Warmup:      serverWarmup,
		ChurnEvery:  8,
		// Tenant data: enough words that placement matters, enough
		// touches per request that data latency shows in the sojourn.
		TenantDataWords: 128,
		TenantTouch:     128,
		TenantWriteFrac: func(rank int) float64 {
			if rank%4 == 0 {
				return 0.75 // write-hot: migrate, never replicate
			}
			return 0.02 // read-mostly: replicate
		},
		// Write-hot tenants — rank 0 among them, so nearly half the
		// offered load — are sharded: one cluster's workers serve each,
		// and it is NOT the cluster their data and kernel objects were
		// statically homed on. The static placement got them wrong, and
		// every touch crosses the ring until the daemon re-homes the
		// data. Read-mostly tenants are served by any worker, so their
		// data is read from every station and no single home can be
		// right — replication's case, not migration's.
		TenantAffinity: func(rank int) int {
			if rank%4 == 0 {
				return (rank/4 + 1) % 4
			}
			return -1
		},
	}}
	// One 100us cadence for every policy — the tuner's calibrated window
	// (a faster plane would re-tune the tuner). The replicator's smoothed
	// write fraction (Decay 0.95, about a 2ms horizon) still spans only one
	// to five requests per tenant, so one 128-word write request lifts a 2%
	// tenant through the collapse band: it classifies a tenant by its last
	// few requests, not its mix. What keeps read-mostly tenants replicated
	// is the collapse's price — their updates must have cost more than
	// their reads saved, by over a copy. Both tuned rows run the default
	// tuner on the plane (attach): it starts as the very spin lock the
	// static rows run, and escalates only when its own measurements demand.
	if row.kind == locks.KindTuned || row.migrate || row.replicate {
		c.Plane = autonomic.NewPlane(sim.Micros(100))
	}
	var rp *autonomic.ReplicatorParams
	var dp *placement.DaemonParams
	if row.replicate {
		rp = &autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, Confirm: 3, Payback: 48}
	}
	if row.migrate {
		dp = &placement.DaemonParams{Decay: 0.9, MinWeight: 2, Confirm: 6, Improve: 0.25, Budget: 2}
	}
	c.attach(rp, dp)
	return c
}

// AutonomicSweep pits the unified autonomics plane against each of its
// policies running alone, on the open-loop multi-tenant server with
// per-tenant data regions. Three of every four tenants are read-mostly
// (2% writes) — replication's case: their data is read from every cluster,
// so no single home is right and migration alone cannot help. Every fourth
// tenant is write-hot (75% writes) — migration's case: replicas would pay
// an update per write. And the same burst schedule drives the kernel's
// coarse locks through contention regimes — the tuner's case. The
// combined_wins metric counts how many of the three single-policy rows the
// combined plane beats on goodput or mean sojourn; the acceptance target
// is all three.
func AutonomicSweep(seed uint64, horizonMS int) *Table {
	t := &Table{
		Title: "Autonomics plane: tune+migrate+replicate combined vs each policy alone, hector16 mixed read-mostly/write-hot tenants",
		Cols: []string{"config", "p50", "p99", "p999", "mean", "good(r/s)", "drop%",
			"moves", "repl", "coll", "switches"},
	}

	type cell struct {
		res                    *workload.ServerResult
		moves, reps, collapses int
		switches               int
		planeTicks             uint64
		replicaUpdates         uint64
	}
	cells := make([]cell, len(autonomicRows))
	RunParallel(len(autonomicRows), func(i int) {
		row := autonomicRows[i]
		ac := autonomicCell(seed, row, horizonMS)
		c := cell{res: workload.ServerRun(ac.Config)}
		if row.kind == locks.KindTuned {
			for _, ctl := range c.res.Sys.K.Controllers() {
				c.switches += int(ctl.Switches())
			}
		}
		if ac.Daemon != nil {
			c.moves = len(ac.Daemon.Moves())
		}
		if ac.Replicator != nil {
			for _, a := range ac.Replicator.Actions() {
				if a.Kind == "collapse" {
					c.collapses++
				} else {
					c.reps++
				}
			}
		}
		if ac.Plane != nil {
			c.planeTicks = ac.Plane.Ticks()
		}
		c.replicaUpdates = c.res.Sys.M.Mem.ReplicaUpdates
		cells[i] = c
	})

	type score struct{ mean, goodput float64 }
	scores := make(map[string]score, len(autonomicRows))
	for i, row := range autonomicRows {
		c := cells[i]
		r := c.res
		tail := r.Lat.Tail()
		dropPct := 0.0
		if r.Offered > 0 {
			dropPct = 100 * float64(r.Dropped) / float64(r.Offered)
		}
		t.AddRow(row.name, f1(tail.P50), f1(tail.P99), f1(tail.P999), f1(tail.Mean),
			f1(r.GoodputRPS), f2(dropPct), d(uint64(c.moves)), d(uint64(c.reps)),
			d(uint64(c.collapses)), d(uint64(c.switches)))
		scores[row.name] = score{mean: tail.Mean, goodput: r.GoodputRPS}
		t.AddMetric(fmt.Sprintf("hector16.%s.p999", row.name), tail.P999, "us")
		t.AddMetric(fmt.Sprintf("hector16.%s.mean", row.name), tail.Mean, "us")
		t.AddMetric(fmt.Sprintf("hector16.%s.goodput", row.name), r.GoodputRPS, "rps")
		if c.reps+c.collapses > 0 || c.replicaUpdates > 0 {
			t.Note("%s: %d replications, %d collapses, %d replica write-updates",
				row.name, c.reps, c.collapses, c.replicaUpdates)
		}
		if c.planeTicks > 0 {
			t.Note("%s: plane ran %d windows (%d moves, %d controller switches)",
				row.name, c.planeTicks, c.moves, c.switches)
		}
	}

	// The tentpole claim: one plane running all three policies beats any
	// single policy alone, because the mixed workload has a component only
	// each policy can fix. A win is better goodput or better mean sojourn.
	comb := scores["combined"]
	wins := 0
	for _, single := range []string{"tune", "migrate", "replicate"} {
		s := scores[single]
		if comb.goodput > s.goodput || comb.mean < s.mean {
			wins++
			t.Note("combined beats %s (goodput %.1f vs %.1f r/s, mean %.1f vs %.1fus)",
				single, comb.goodput, s.goodput, comb.mean, s.mean)
		} else {
			t.Note("combined does NOT beat %s (goodput %.1f vs %.1f r/s, mean %.1f vs %.1fus)",
				single, comb.goodput, s.goodput, comb.mean, s.mean)
		}
	}
	t.AddMetric("hector16.combined_wins", float64(wins), "count")
	return t
}
