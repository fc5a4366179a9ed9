package exp

import (
	"fmt"
	"sort"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
)

// serverLockConfigs is the lock zoo the server sweep judges: the two
// backoff spin locks (35us and 2ms caps), the best flat queue lock, the
// two NUMA-aware hierarchical locks, the feedback-tuned lock, and the
// tuned lock with the online placement daemon migrating kernel data
// underneath it.
type serverLockConfig struct {
	name   string
	kind   locks.Kind
	daemon bool
	// deadline, when nonzero, turns the row into an SLO variant: the
	// admission queue is widened (16x workers instead of the default 4x)
	// and requests older than deadline at dequeue are abandoned — load
	// shedding moves from the queue tail to the latency bound.
	deadline sim.Duration
}

var serverLockConfigs = []serverLockConfig{
	{"Spin-35us", locks.KindSpin, false, 0},
	{"Spin-2ms", locks.KindSpin2ms, false, 0},
	{"H2-MCS", locks.KindH2MCS, false, 0},
	{"Cohort", locks.KindCohort, false, 0},
	{"CNA", locks.KindCNA, false, 0},
	{"Tuned", locks.KindTuned, false, 0},
	{"Tuned+mig", locks.KindTuned, true, 0},
	// SLO variants: same machines and offered load, but a latency deadline
	// does the shedding instead of the short admission queue. Kept out of
	// the rank-divergence ranking so the base zoo's metrics stay comparable.
	{"H2-MCS+slo", locks.KindH2MCS, false, sim.Micros(800)},
	{"Tuned+slo", locks.KindTuned, false, sim.Micros(800)},
}

// nlRanked is how many leading serverLockConfigs enter the mean-vs-p999
// rank-divergence count: the base zoo only, so the SLO rows (whose latency
// distribution is truncated by construction) do not perturb the metric.
const nlRanked = 7

// serverMachineConfigs pairs each machine with an offered load near 1.2x
// its fault-service capacity, so the MMPP bursts and the flash crowd push
// it into genuine overload while the off-state load stays serviceable —
// the regime where queueing delay, not hold time, dominates the tail.
type serverMachineConfig struct {
	name        string
	cfg         func(seed uint64) sim.Config
	clusterSize int
	meanGap     sim.Duration
	tenants     int
}

var serverMachineConfigs = []serverMachineConfig{
	{"hector16", machine.Hector16, 4, sim.Micros(90), 16},
	{"numachine64", machine.NUMAchine64, 8, sim.Micros(180), 32},
}

// serverWarmup is excluded from every statistic of the server and
// autonomic sweeps.
var serverWarmup = sim.Micros(2000)

// serverArrivals is the shared open-loop shape: Poisson base load, 3x MMPP
// bursts with a 1/3 duty cycle, a mild diurnal ramp, and a late 2.5x flash
// crowd — the mid-run load shifts none of the fixed locks (or the tuner's
// thresholds) were chosen against. The arrivals stop horizonMS simulated
// milliseconds in; the run then drains.
func serverArrivals(gap sim.Duration, horizonMS int) workload.ArrivalSpec {
	return workload.ArrivalSpec{
		MeanGap:     gap,
		Horizon:     sim.Micros(float64(horizonMS) * 1000),
		BurstFactor: 3,
		OnMean:      sim.Micros(400),
		OffMean:     sim.Micros(800),
		RampFrom:    0.8, RampTo: 1.2,
		FlashAt: 0.55, FlashFor: 0.15, FlashFactor: 2.5,
	}
}

// ServerCell is one run of the open-loop server as a sweep defines it: the
// workload and, when any policy runs on one, the autonomics plane with the
// data policies attached to it. The server and autonomic sweeps build every
// cell through NewServerCell's and NewAutonomicCell's definitions, and
// `lockstat -run server` calls those two, so the command line prints the
// published cell.
type ServerCell struct {
	// Config is the run; its Attach hook wires the data policies.
	Config workload.ServerConfig
	// Plane is the shared cadence, nil when no policy runs on one.
	Plane *autonomic.Plane
	// Replicator and Daemon are the data policies: nil until the run
	// attaches them, and nil throughout when the cell runs neither.
	Replicator *autonomic.Replicator
	Daemon     *placement.Daemon
}

// NewServerCell returns the server sweep's cell for the named machine and
// lock kind, with the placement daemon migrating kernel data when migrate
// is set (the sweep's Tuned+mig row). The error names the machines the
// sweep runs.
func NewServerCell(seed uint64, name string, kind locks.Kind, migrate bool, horizonMS int) (*ServerCell, error) {
	for _, mc := range serverMachineConfigs {
		if mc.name == name {
			return serverCell(seed, mc, serverLockConfig{kind: kind, daemon: migrate}, horizonMS), nil
		}
	}
	return nil, fmt.Errorf("the server sweep has no %s cell; use hector16 or numachine64", name)
}

// serverCell is the server sweep's definition of one (machine, lock) cell.
func serverCell(seed uint64, mc serverMachineConfig, lc serverLockConfig, horizonMS int) *ServerCell {
	c := &ServerCell{Config: workload.ServerConfig{
		Machine:     mc.cfg(seed),
		ClusterSize: mc.clusterSize,
		LockKind:    lc.kind,
		Tenants:     mc.tenants,
		ZipfS:       1.0,
		Arrivals:    serverArrivals(mc.meanGap, horizonMS),
		Warmup:      serverWarmup,
		ChurnEvery:  8,
	}}
	if lc.deadline > 0 {
		c.Config.Deadline = lc.deadline
		c.Config.QueueLimit = 16 * procsOf(c.Config.Machine)
	}
	if lc.daemon {
		c.Plane = autonomic.NewPlane(sim.Micros(100))
		c.attach(nil, &placement.DaemonParams{})
	}
	return c
}

// attach makes the cell's kernel data migratable under a live aggregate
// tracer and, when the cell has a plane, wires the data policies onto it
// once the kernel exists (placement.Attach).
func (c *ServerCell) attach(rp *autonomic.ReplicatorParams, dp *placement.DaemonParams) {
	agg := trace.NewAggregate(procsOf(c.Config.Machine))
	c.Config.Migratable = true
	c.Config.Tracer = agg
	if c.Plane != nil {
		c.Config.Attach = func(sys *core.System) {
			c.Replicator, c.Daemon = placement.Attach(c.Plane, sys.M, agg,
				rp, placement.ReplicateKernel(sys.K, agg), dp, placement.ManageKernel(sys.K))
		}
	}
}

// procsOf is the processor (and memory module) count of a machine preset.
func procsOf(cfg sim.Config) int { return cfg.Stations * cfg.ProcsPerStation }

// ServerSweep runs the open-loop multi-tenant server workload over the
// lock zoo on both machines and reports the sojourn-time distribution —
// p50/p99/p999, never the mean alone — plus goodput and drop rate. The
// point of the open loop is that a slow kernel cannot slow the offered
// load down: convoys and unfair grant orders that a closed-loop mean
// hides show up directly as tail inflation, so the ranking by p999 need
// not match the ranking by mean (the rank_divergence metrics count, per
// machine, the lock pairs the two orderings disagree on).
//
// horizonMS sets the arrival window in simulated milliseconds; the run
// then drains. Warmup (the first 2ms) is excluded from every statistic.
func ServerSweep(seed uint64, horizonMS int) *Table {
	t := &Table{
		Title: "Server sweep: open-loop multi-tenant sojourn time (us) by lock, MMPP bursts + flash crowd",
		Cols:  []string{"machine", "lock", "p50", "p99", "p999", "mean", "good(r/s)", "drop%", "aband%"},
	}

	type cell struct {
		res      *workload.ServerResult
		switches int
		moves    int
	}
	nl := len(serverLockConfigs)
	results := make([]cell, len(serverMachineConfigs)*nl)
	RunParallel(len(results), func(i int) {
		lc := serverLockConfigs[i%nl]
		sc := serverCell(seed, serverMachineConfigs[i/nl], lc, horizonMS)
		c := cell{res: workload.ServerRun(sc.Config)}
		if lc.kind == locks.KindTuned {
			for _, ctl := range c.res.Sys.K.Controllers() {
				c.switches += int(ctl.Switches())
			}
		}
		if sc.Daemon != nil {
			c.moves = len(sc.Daemon.Moves())
		}
		results[i] = c
	})

	for mi, mc := range serverMachineConfigs {
		means := make([]float64, nlRanked)
		p999s := make([]float64, nlRanked)
		for li, lc := range serverLockConfigs {
			c := results[mi*nl+li]
			r := c.res
			tail := r.Lat.Tail()
			dropPct := 0.0
			if r.Offered > 0 {
				dropPct = 100 * float64(r.Dropped) / float64(r.Offered)
			}
			abandCell := "-"
			if lc.deadline > 0 {
				abandPct := 0.0
				if r.Offered > 0 {
					abandPct = 100 * float64(r.Abandoned) / float64(r.Offered)
				}
				abandCell = f2(abandPct)
				t.AddMetric(fmt.Sprintf("%s.%s.aband", mc.name, lc.name), abandPct, "%")
				for rank, ts := range r.Tenants {
					if ts.Abandoned > 0 {
						t.Note("%s %s: tenant %d abandoned %d of %d admitted (w=%.3f)",
							mc.name, lc.name, rank, ts.Abandoned, ts.Admitted, ts.Weight)
					}
				}
			}
			t.AddRow(mc.name, lc.name, f1(tail.P50), f1(tail.P99), f1(tail.P999),
				f1(tail.Mean), f1(r.GoodputRPS), f2(dropPct), abandCell)
			if li < nlRanked {
				means[li] = tail.Mean
				p999s[li] = tail.P999
			}
			t.AddMetric(fmt.Sprintf("%s.%s.p999", mc.name, lc.name), tail.P999, "us")
			t.AddMetric(fmt.Sprintf("%s.%s.goodput", mc.name, lc.name), r.GoodputRPS, "rps")
			if lc.kind == locks.KindTuned {
				t.Note("%s %s: %d controller mode switches, %d daemon moves, %.2f%% dropped",
					mc.name, lc.name, c.switches, c.moves, dropPct)
			}
		}
		// Rank the zoo by mean and by p999 and count discordant pairs: a
		// nonzero count means the mean alone would pick (or order) locks
		// differently than the tail a latency SLO actually binds on.
		order := func(v []float64) []int {
			idx := make([]int, nlRanked)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
			rank := make([]int, nlRanked)
			for pos, li := range idx {
				rank[li] = pos
			}
			return rank
		}
		mRank, pRank := order(means), order(p999s)
		discord := 0
		var flips []string
		for a := 0; a < nlRanked; a++ {
			for b := a + 1; b < nlRanked; b++ {
				if (mRank[a] < mRank[b]) != (pRank[a] < pRank[b]) {
					discord++
					flips = append(flips, fmt.Sprintf("%s<>%s",
						serverLockConfigs[a].name, serverLockConfigs[b].name))
				}
			}
		}
		t.AddMetric(mc.name+".rank_divergence", float64(discord), "pairs")
		if discord > 0 {
			t.Note("%s: mean and p999 orderings disagree on %d lock pair(s): %v — the mean is not a proxy for the tail",
				mc.name, discord, flips)
		} else {
			t.Note("%s: mean and p999 orderings agree at this load", mc.name)
		}
	}
	return t
}
