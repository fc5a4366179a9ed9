package exp

import (
	"fmt"
	"runtime"
	"time"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// lpWorkers is the logical-process worker count the parstress experiment
// runs under (hurricane-bench -parworkers). The parallel engine is
// deterministic in its worker count, so this setting must never change a
// published number — `make par-equiv` holds the whole summary to that.
// (Distinct from the exp.SetParallelism pool, which parallelizes whole
// experiment cells; this parallelizes stations inside one simulation.)
var lpWorkers = 8

// SetParWorkers sets the logical-process worker count for parallel-engine
// experiments.
func SetParWorkers(n int) {
	if n > 0 {
		lpWorkers = n
	}
}

// parStressMachines is the preset ladder the parallel stress sweep climbs:
// the paper's HECTOR, the §5.3 NUMAchine, and the two projected
// NUMAchine-256/1024 configurations with their two-level ring hierarchy.
// The 1024-processor preset runs 256 participants spread across all 64
// stations (dense occupancy is the speedup experiment's job) and a
// shorter window.
var parStressMachines = []struct {
	name     string
	cfg      func(seed uint64) sim.Config
	procs    int
	winScale float64
	fullOnly bool
}{
	{"hector16", machine.Hector16, 16, 1, false},
	{"numachine64", machine.NUMAchine64, 64, 1, false},
	{"numachine256", machine.NUMAchine256, 256, 1, false},
	{"numachine1024", machine.NUMAchine1024, 256, 0.5, true},
}

// parStressKinds is the lock zoo the sweep runs. CNA is absent: its
// intra-station waiter reordering reads other processors' queue nodes
// through uncharged engine state, which the logical-process partition
// forbids (see DESIGN.md).
var parStressKinds = []locks.Kind{
	locks.KindSpin, locks.KindH2MCS, locks.KindCLH, locks.KindCohort, locks.KindTuned,
}

// ParStress runs the time-gated lock stress loop on the parallel engine
// across the preset ladder — the experiment the `make par-equiv` gate
// replays at worker counts 1 and 8 and compares byte for byte.
//
// Beyond the equivalence duty it is the first dense look at the projected
// machines: at 256 processors all but 1/32nd of lock traffic is
// cross-station, so the Tuned controller's ring-traffic signal sees a
// remote fraction near 1.0 and its queue->cohort escalation fires
// organically (the switches/mode note records it), where the same
// saturation on hector16 stays below the tuner's 0.5 ring-fraction
// threshold.
//
// windowUS is the measured window per cell in simulated microseconds;
// full adds the NUMAchine-1024 rows.
func ParStress(seed uint64, windowUS int, full bool) *Table {
	t := &Table{
		// The worker count is deliberately absent from the title: the summary
		// must be byte-identical at any -parworkers value (the par-equiv gate).
		Title: fmt.Sprintf("Parallel-engine stress: time-gated lock loop, %dus window", windowUS),
		Cols:  []string{"machine", "lock", "procs", "rounds", "thr(r/ms)", "wait(us)", "handoff%", "local%"},
	}

	type cell struct {
		res *workload.TimedStressResult
		ctl *tune.Controller
	}
	var ms []int
	for mi, mc := range parStressMachines {
		if mc.fullOnly && !full {
			continue
		}
		_ = mc
		ms = append(ms, mi)
	}
	nk := len(parStressKinds)
	results := make([]cell, len(ms)*nk)
	RunParallel(len(results), func(i int) {
		mc := parStressMachines[ms[i/nk]]
		kind := parStressKinds[i%nk]
		cfg := mc.cfg(seed)
		cfg.Workers = lpWorkers
		tcfg := workload.TimedStressConfig{
			Machine: cfg,
			Kind:    kind,
			Procs:   mc.procs,
			Spread:  true,
			Hold:    sim.Micros(6),
			Think:   sim.Micros(20),
			Warmup:  sim.Micros(200),
			Window:  sim.Micros(float64(windowUS) * mc.winScale),
		}
		var c cell
		if kind == locks.KindTuned {
			var tl *locks.Tuned
			tcfg.MakeLock = func(m *sim.Machine, home int) locks.Lock {
				tl = locks.NewTuned(m, home, tune.Params{})
				return tl
			}
			c.res = workload.TimedStressRun(tcfg)
			c.ctl = tl.Controller()
		} else {
			c.res = workload.TimedStressRun(tcfg)
		}
		results[i] = c
	})

	for i, mi := range ms {
		mc := parStressMachines[mi]
		for ki, kind := range parStressKinds {
			c := results[i*nk+ki]
			r := c.res
			handoffPct, localPct := 0.0, 0.0
			if r.Rounds > 0 {
				handoffPct = 100 * float64(r.Handoffs) / float64(r.Rounds)
			}
			if r.Handoffs > 0 {
				localPct = 100 * float64(r.LocalHandoffs) / float64(r.Handoffs)
			}
			t.AddRow(mc.name, kind.String(), d(uint64(mc.procs)), d(r.Rounds),
				f1(r.RoundsPerMS), f1(r.WaitUS), f1(handoffPct), f1(localPct))
			t.AddMetric(fmt.Sprintf("%s.%s.rounds", mc.name, kind), float64(r.Rounds), "rounds")
			t.AddMetric(fmt.Sprintf("%s.%s.wait", mc.name, kind), r.WaitUS, "us")
			t.AddMetric(fmt.Sprintf("%s.%s.local_handoff", mc.name, kind), localPct, "%")
			if c.ctl != nil {
				t.AddMetric(fmt.Sprintf("%s.tuned_switches", mc.name), float64(c.ctl.Switches()), "switches")
				t.Note("%s Tuned: %d mode switches, final mode %s, ring fraction %.2f",
					mc.name, c.ctl.Switches(), c.ctl.Mode(), c.ctl.RingFrac())
			}
		}
	}
	return t
}

// parSpeedWorkers are the worker counts the speedup experiment compares;
// the first entry is the serial reference.
var parSpeedWorkers = []int{1, 2, 4, 8}

// ParSpeed measures the parallel engine's wall-clock scaling on a dense
// NUMAchine-256 run: all 256 processors run the timed stress loop against
// per-station locks (the partitioned-kernel shape — every logical process
// carries real simulated load), once per worker count, and the table
// reports host seconds, engine events per host second, and speedup over
// the one-worker run. Every run's simulated result must be byte-identical
// — the experiment panics if not, so a lookahead bug cannot hide behind a
// good speedup number. A single global lock would serialize the simulated
// machine itself (one critical section at a time, 255 blocked waiters),
// leaving the engine nothing to run concurrently; the parstress sweep
// covers that regime.
//
// The wall metrics are host measurements: run it standalone
// (hurricane-bench -run '^parspeed$' -jobs 1) for clean numbers; under a
// loaded pool they undercount.
func ParSpeed(seed uint64, windowUS int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Parallel-engine speedup: NUMAchine-256 dense per-station stress, %dus window", windowUS),
		Cols:  []string{"workers", "wall(s)", "Mev/s", "speedup", "rounds"},
	}
	var ref string
	var base float64
	for _, w := range parSpeedWorkers {
		cfg := machine.NUMAchine256(seed)
		cfg.Workers = w
		d0, e0 := sim.TotalEvents()
		t0 := time.Now()
		r := workload.TimedStressRun(workload.TimedStressConfig{
			Machine:    cfg,
			Kind:       locks.KindH2MCS,
			Procs:      256,
			PerStation: true,
			Hold:       sim.Micros(6),
			Think:      sim.Micros(20),
			Warmup:     sim.Micros(200),
			Window:     sim.Micros(float64(windowUS)),
		})
		wall := time.Since(t0).Seconds()
		d1, e1 := sim.TotalEvents()
		fp := r.Fingerprint()
		if ref == "" {
			ref = fp
			base = wall
		} else if fp != ref {
			panic(fmt.Sprintf("parspeed: workers=%d produced different simulated results than workers=1", w))
		}
		events := float64((d1 - d0) + (e1 - e0))
		evRate := 0.0
		if wall > 0 {
			evRate = events / wall
		}
		speedup := 0.0
		if wall > 0 {
			speedup = base / wall
		}
		t.AddRow(d(uint64(w)), fmt.Sprintf("%.3f", wall), f2(evRate/1e6), f2(speedup), d(r.Rounds))
		t.AddMetric(fmt.Sprintf("speedup_w%d", w), speedup, "x")
		t.AddMetric(fmt.Sprintf("events_per_sec_w%d", w), evRate, "ev/s")
	}
	t.Note("identical simulated bytes at every worker count; speedup is host wall clock only")
	ncpu := runtime.GOMAXPROCS(0)
	if ncpu < parSpeedWorkers[len(parSpeedWorkers)-1] {
		t.Note("host exposes %d CPU(s): worker counts beyond that share cores, so the "+
			"table bounds the engine's coordination overhead rather than its scaling", ncpu)
	}
	return t
}
