package main

import (
	"time"

	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/model"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// runProbes times calls into each layer's public functions on fixed small
// inputs and records host time per unit of work. Every traced run makes
// them, whatever its workload, so every probe metric is measured on every
// workload; each probe runs three times and reports its median.
func runProbes(t *traced, seed uint64, sz size) {
	div := 1
	if sz == tiny {
		div = 100
	}
	n := func(full int) int { return max(1, full/div) }
	probe := func(name string, f func() float64) {
		end := t.span("probe " + name)
		v := []float64{f(), f(), f()}
		end()
		t.set(name, median(v))
	}
	probe("sim.probe.dispatch_ns", func() float64 { return probeDispatch(n(300_000)) })
	probe("sim.probe.think_ns", func() float64 { return probeThink(n(300_000)) })
	probe("sim.probe.loadstore_ns", func() float64 { return probeLoadStore(n(100_000)) })
	probe("sim.probe.swap_ns", func() float64 { return probeSwapStorm(n(100_000)) })
	probe("sim.probe.handoff_ns", func() float64 { return probeHandoff(n(50_000)) })
	probe("sim.probe.newmachine_us.hector16", func() float64 { return probeNewMachine(machine.Hector16(seed), n(300)) })
	probe("sim.probe.newmachine_us.numachine256", func() float64 { return probeNewMachine(machine.NUMAchine256(seed), n(30)) })
	lpWindow := sim.Micros(20_000 / float64(div))
	probe("lp.probe.w1_ns_per_event", func() float64 { return probeLP(seed, 1, lpWindow) })
	probe("lp.probe.w2_ns_per_event", func() float64 { return probeLP(seed, 2, lpWindow) })
	for _, k := range zooKinds {
		probe("locks.probe."+k.String()+".ns_per_pair", func() float64 { return probeLockPairs(seed, k, n(4000)) })
	}
	probe("kernel.probe.fault_ns", func() float64 { return probeFaults(seed, n(4000)) })
	probe("workload.probe.arrivals_ns", func() float64 { return probeArrivals(seed, sim.Micros(2e6/float64(div))) })
	probe("model.probe.predict_ns", func() float64 { return probePredict(n(10)) })
	probe("model.probe.calibrate_us", func() float64 { return probeCalibrate(n(20)) })
	ticks := probeTicks(seed)
	for name, metric := range tickMetrics {
		t.set(metric+".probe.tick_ns", ticks[name])
	}
}

// perEvent is host nanoseconds per logical engine event.
func perEvent(d time.Duration, events uint64) float64 {
	return ratio(float64(d.Nanoseconds()), float64(events))
}

// probeDispatch measures the bare event heap: a chain of closure events
// with nothing to coalesce.
func probeDispatch(n int) float64 {
	e := sim.NewEngine()
	k := 0
	var tick func()
	tick = func() {
		k++
		if k < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	t0 := time.Now()
	e.RunAll()
	return perEvent(time.Since(t0), e.Processed())
}

// probeThink measures the coalescing fast path: one processor's
// straight-line computation, every clock advance elided.
func probeThink(n int) float64 {
	m := sim.NewMachine(sim.Config{Seed: 1})
	m.Go(0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Think(10)
		}
	})
	t0 := time.Now()
	m.RunAll()
	return perEvent(time.Since(t0), m.Eng.Processed())
}

// probeLoadStore measures the uncontended memory path: remote loads and
// stores one ring hop away, the shape of an uncontended lock acquire.
func probeLoadStore(n int) float64 {
	m := sim.NewMachine(sim.Config{Seed: 1})
	a := m.Alloc(15, 1)
	m.Go(0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Store(a, uint64(i))
			p.Load(a)
		}
	})
	t0 := time.Now()
	m.RunAll()
	return perEvent(time.Since(t0), m.Eng.Processed())
}

// probeSwapStorm measures the contended path: 8 processors swapping one
// word, so the module queues and wake events cannot be elided.
func probeSwapStorm(n int) float64 {
	m := sim.NewMachine(sim.Config{Seed: 1})
	a := m.Alloc(0, 1)
	per := n/8 + 1
	for i := 0; i < 8; i++ {
		m.Go(i, func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				p.Swap(a, uint64(p.ID()))
			}
		})
	}
	t0 := time.Now()
	m.RunAll()
	return perEvent(time.Since(t0), m.Eng.Processed())
}

// probeHandoff measures the park/wake path: two processors bouncing a word
// through write-watches, the shape of a queue-lock hand-off chain.
func probeHandoff(n int) float64 {
	m := sim.NewMachine(sim.Config{Seed: 1})
	a, b := m.Alloc(0, 1), m.Alloc(1, 1)
	rounds := n/2 + 1
	m.Go(0, func(p *sim.Proc) {
		for k := 0; k < rounds; k++ {
			v := uint64(k) + 1
			p.Store(a, v)
			p.WaitLocal(b, func(x uint64) bool { return x == v })
		}
	})
	m.Go(1, func(p *sim.Proc) {
		for k := 0; k < rounds; k++ {
			v := uint64(k) + 1
			p.WaitLocal(a, func(x uint64) bool { return x == v })
			p.Store(b, v)
		}
	})
	t0 := time.Now()
	m.RunAll()
	return perEvent(time.Since(t0), m.Eng.Processed())
}

// probeNewMachine measures per-cell set-up: microseconds per machine built.
func probeNewMachine(cfg sim.Config, n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if sim.NewMachine(cfg).NumProcs() == 0 {
			panic("probe: empty machine")
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(n)
}

// probeLP measures the parallel engine: host nanoseconds per event of the
// lp-engine workload's loop over a short window.
func probeLP(seed uint64, workers int, window sim.Duration) float64 {
	defer lpThreads(workers)()
	cfg := machine.NUMAchine256(seed)
	cfg.Workers = workers
	d0, e0 := sim.TotalEvents()
	t0 := time.Now()
	workload.TimedStressRun(workload.TimedStressConfig{
		Machine: cfg, Kind: locks.KindH2MCS, Procs: 256, PerStation: true,
		Hold: sim.Micros(6), Think: sim.Micros(20), Warmup: sim.Micros(200), Window: window,
	})
	d := time.Since(t0)
	d1, e1 := sim.TotalEvents()
	return perEvent(d, (d1-d0)+(e1-e0))
}

// probeLockPairs measures one lock algorithm's host cost: nanoseconds per
// acquire/release pair of a 16-processor stress loop on HECTOR-16.
func probeLockPairs(seed uint64, kind locks.Kind, pairs int) float64 {
	const procs, warmup = 16, 2
	rounds := max(1, pairs/procs)
	t0 := time.Now()
	workload.LockStressRun(workload.StressConfig{
		Machine: machine.Hector16(seed), Kind: kind, Procs: procs, Rounds: rounds, Warmup: warmup,
	})
	return float64(time.Since(t0).Nanoseconds()) / float64(procs*(rounds+warmup))
}

// probeFaults measures the kernel's soft-fault path (with cluster and
// core): host nanoseconds per simulated fault of Figure 6a's loop.
func probeFaults(seed uint64, faults int) float64 {
	const procs = 16
	rounds := max(1, faults/procs)
	sys := core.NewSystem(core.Config{Machine: machine.Hector16(seed), ClusterSize: 4, LockKind: locks.KindH2MCS})
	t0 := time.Now()
	workload.IndependentFaults(sys, procs, 4, rounds)
	return float64(time.Since(t0).Nanoseconds()) / float64(procs*(rounds+1))
}

// probeArrivals measures the open-loop generator: host nanoseconds per
// materialized arrival of a bursty schedule.
func probeArrivals(seed uint64, horizon sim.Duration) float64 {
	spec := workload.ArrivalSpec{
		MeanGap: sim.Micros(20), Horizon: horizon,
		BurstFactor: 3, OnMean: sim.Micros(400), OffMean: sim.Micros(800),
		RampFrom: 0.8, RampTo: 1.2, FlashAt: 0.55, FlashFor: 0.15, FlashFactor: 2.5,
	}
	t0 := time.Now()
	a := spec.Generate(seed)
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(len(a.Times)))
}

// modelGrid is the probe's (lock, point) grid on NUMAchine-64.
func modelGrid() (model.Machine, []model.Lock, []model.Point) {
	m := model.FromConfig(machine.NUMAchine64(1))
	ls := []model.Lock{{Family: model.FamilySpin}, {Family: model.FamilyQueue}, {Family: model.FamilyCohort}, {Family: model.FamilyCNA}}
	var pts []model.Point
	for p := 2; p <= 64; p *= 2 {
		for _, h := range []float64{0, 5, 25, 100} {
			pts = append(pts, model.Point{Procs: p, HoldUS: h})
		}
	}
	return m, ls, pts
}

// probePredict measures the analytic model: nanoseconds per prediction.
func probePredict(reps int) float64 {
	m, ls, pts := modelGrid()
	pr := model.Predictor{M: m}
	calls := 0
	t0 := time.Now()
	for r := 0; r < reps*100; r++ {
		for _, l := range ls {
			for _, pt := range pts {
				pr.Predict(l, pt)
				calls++
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// probeCalibrate measures the model's residual fit: microseconds per
// Calibrate over the probe grid's predicted cells, perturbed.
func probeCalibrate(reps int) float64 {
	m, ls, pts := modelGrid()
	pr := model.Predictor{M: m}
	rng := sim.NewRNG(1)
	var obs []model.Observation
	for _, l := range ls {
		for _, pt := range pts {
			p := pr.Predict(l, pt)
			f := 0.9 + 0.2*rng.Float64()
			obs = append(obs, model.Observation{Lock: l, Point: pt, PairUS: p.PairUS * f, AcquireUS: p.WaitUS * f})
		}
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		m.Calibrate(obs)
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps)
}

// probeTicks measures the autonomics policies: host nanoseconds per Tick,
// by policy name, over a traced tiny server-read pass.
func probeTicks(seed uint64) map[string]float64 {
	p, _ := buildServer(false)(seed, tiny, "")
	t := newTraced()
	p.pass(t)
	out := map[string]float64{}
	for name, tot := range t.ticks {
		out[name] = ratio(float64(tot.ns), float64(tot.n))
	}
	return out
}
