package main

import (
	"fmt"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// rung is one offered load of the server ladder: Poisson arrivals at a
// mean gap, measured for a window after the warm-up.
type rung struct {
	gapUS, measureMS float64
}

// serverRungs is the load ladder, lightest first. The nominal rung runs
// long enough for about 12,500 measured requests; the overload rung offers
// more than the machine serves, and its backlog drains after the arrivals.
var serverRungs = []rung{{400, 300}, {200, 300}, {120, 1500}, {80, 300}, {40, 200}}

const (
	nominalRung  = 2
	overloadRung = 4
	// sloP99US is the latency limit a rung must meet (p99 sojourn, no
	// request shed) for its offered rate to count toward sim_ops_per_ms.
	sloP99US = 5000
)

// serverWarmupUS excludes the start-up transient — tenant tables, the
// plane's first migrations and replications, the tuners settling — which
// otherwise decides the tail.
const serverWarmupUS = 100_000

// planePeriod is the autonomics cadence, the autonomic sweep's.
var planePeriod = sim.Micros(100)

type serverPlan struct {
	seed   uint64
	write  bool
	rungs  []rung
	warmup sim.Duration
}

func buildServer(write bool) func(uint64, size, string) (plan, error) {
	return func(seed uint64, sz size, _ string) (plan, error) {
		p := &serverPlan{seed: seed, write: write, rungs: serverRungs, warmup: sim.Micros(serverWarmupUS)}
		if sz == tiny {
			p.rungs = make([]rung, len(serverRungs))
			for i, r := range serverRungs {
				p.rungs[i] = rung{r.gapUS, 10}
			}
			p.warmup = sim.Micros(20_000)
		}
		return p, nil
	}
}

// rungRun is one rung's result and the plane that ran on it.
type rungRun struct {
	res    *workload.ServerResult
	plane  *autonomic.Plane
	daemon *placement.Daemon
	rep    *autonomic.Replicator
}

// run serves one rung: HECTOR-16 with Tuned kernel locks under the full
// plane, as the autonomic sweep's combined row. Tune samplers register on
// an unstarted inner plane while the kernel is built; Attach re-adds them,
// then the replicator and the migrator, to the started plane in that order
// (the sweep's order), wrapped for tick timing when traced.
func (p *serverPlan) run(rg rung, t *traced, split *splitter) rungRun {
	topo := autonomic.Topo{Stations: 4, ProcsPerStation: 4}
	agg := trace.NewAggregate(topo.Modules())
	inner := autonomic.NewPlane(planePeriod)
	out := rungRun{plane: autonomic.NewPlane(planePeriod)}
	writeFrac := 0.02
	if p.write {
		writeFrac = 0.75
	}
	cfg := workload.ServerConfig{
		Machine:     machine.Hector16(p.seed),
		ClusterSize: 4,
		LockKind:    locks.KindTuned,
		TuneParams:  &tune.Params{Plane: inner},
		Migratable:  true,
		Tracer:      t.tracer(agg, split),
		Tenants:     16,
		ZipfS:       1.0,
		Arrivals: workload.ArrivalSpec{
			MeanGap: sim.Micros(rg.gapUS),
			Horizon: p.warmup + sim.Micros(rg.measureMS*1000),
		},
		Warmup: p.warmup,
		// The queue never sheds: every arrival is served, and overload shows
		// as sojourn time.
		QueueLimit:      1 << 30,
		ChurnEvery:      8,
		TenantDataWords: 128,
		TenantTouch:     128,
		TenantWriteFrac: func(int) float64 { return writeFrac },
	}
	if p.write {
		// Tenant data and kernel objects are homed on cluster rank%4; each
		// tenant is served by the next cluster's workers.
		cfg.TenantAffinity = func(rank int) int { return (rank%4 + 1) % 4 }
	}
	cfg.Attach = func(sys *core.System) {
		costs := autonomic.CostsFromLatency(sys.M.Lat())
		out.rep = autonomic.NewReplicator(sys.M, topo, costs,
			autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, Confirm: 3, Payback: 48},
			placement.ReplicateKernel(sys.K, agg))
		out.daemon = placement.NewDaemon(sys.M, agg, topo, costs,
			placement.DaemonParams{Decay: 0.9, MinWeight: 2, Confirm: 6, Improve: 0.25, Budget: 2, Yield: out.rep.Claimed},
			placement.ManageKernel(sys.K))
		for _, s := range inner.Policies() {
			out.plane.Add(t.policy(s))
		}
		out.plane.Add(t.policy(out.rep))
		out.plane.Add(t.policy(out.daemon))
		out.plane.Start(sys.M.Eng)
	}
	end := t.span(fmt.Sprintf("workload.ServerRun gap=%gus", rg.gapUS))
	out.res = workload.ServerRun(cfg)
	end()
	return out
}

func (p *serverPlan) pass(t *traced) *passResult {
	r := &passResult{}
	var fp strings.Builder
	slo := 0.0
	for i, rg := range p.rungs {
		var split *splitter
		if i == nominalRung && t != nil {
			split = newSplitter(p.warmup)
		}
		run := p.run(rg, t, split)
		res := run.res
		failed := int(res.Dropped + res.Abandoned)
		if res.Offered != res.Admitted+res.Dropped || res.Completed != res.Admitted {
			failed = int(res.Offered)
		}
		r.attempted += int(res.Offered)
		r.failed += failed
		fmt.Fprintf(&fp, "rung %d moves=%d actions=%d ticks=%d\n%s", i+1,
			len(run.daemon.Moves()), len(run.rep.Actions()), run.plane.Ticks(), res.Fingerprint())

		rate := float64(res.Offered) / (rg.measureMS / 1000)
		p99 := res.Lat.Percentile(99)
		if failed == 0 && res.Completed > 0 && p99 <= sloP99US {
			slo = max(slo, rate)
		}
		t.set(fmt.Sprintf("server.r%d.offered_rps", i+1), rate)
		t.set(fmt.Sprintf("server.r%d.slo_ratio", i+1), p99/sloP99US)
		t.readMemory(res.Sys.M.Mem, 0, res.Elapsed)
		switch i {
		case nominalRung:
			r.lat = res.Lat
			if t != nil {
				p.reportNominal(t, run, split)
			}
		case overloadRung:
			t.set("server.goodput_rps", res.GoodputRPS)
		}
	}
	r.fingerprint = fp.String()
	r.opsPerMS = slo / 1000
	t.set("server.slo_rps", slo)
	return r
}

// reportNominal sets the kernel and plane layers from the nominal rung.
func (p *serverPlan) reportNominal(t *traced, run rungRun, split *splitter) {
	split.report(t)
	ks := run.res.KStats
	t.set("kernel.coherence_rpcs", float64(ks.CoherenceRPCs))
	t.set("kernel.retries", float64(ks.DestroyRetries+ks.MsgRetries))
	t.set("kernel.migrations", float64(ks.Migrations))
	t.set("kernel.replications", float64(ks.Replications))
	t.set("kernel.collapses", float64(ks.Collapses))
	t.set("kernel.migration_frac", ratio(float64(ks.MigrationCycles), float64(ks.RequestCycles)))
	t.set("kernel.replication_frac", ratio(float64(ks.ReplicationCycles), float64(ks.RequestCycles)))
	switches := uint64(0)
	for _, c := range run.res.Sys.K.Controllers() {
		switches += c.Switches()
	}
	t.set("tune.switches", float64(switches))
	t.set("autonomic.ticks", float64(run.plane.Ticks()))
	t.set("placement.moves", float64(len(run.daemon.Moves())))
}
