package main

import (
	"fmt"
	"runtime"
	"time"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/workload"
)

type lpPlan struct {
	cfg workload.TimedStressConfig
}

func buildLP(seed uint64, sz size, _ string) (plan, error) {
	window := 250.0 // ms
	if sz == tiny {
		window = 2
	}
	m := machine.NUMAchine256(seed)
	m.Workers = 1
	return &lpPlan{cfg: workload.TimedStressConfig{
		Machine:    m,
		Kind:       locks.KindH2MCS,
		Procs:      256,
		PerStation: true,
		Hold:       sim.Micros(6),
		Think:      sim.Micros(20),
		Warmup:     sim.Micros(200),
		Window:     sim.Micros(window * 1000),
	}}, nil
}

// lpThreads lets the LP engine's workers run on up to that many threads,
// at most two, and returns the function that restores the previous setting.
func lpThreads(workers int) (restore func()) {
	prev := runtime.GOMAXPROCS(max(1, min(workers, 2, runtime.NumCPU())))
	return func() { runtime.GOMAXPROCS(prev) }
}

// run executes the timed stress loop on the given number of LP workers and
// returns its result, the measured waits and the machine.
func (p *lpPlan) run(workers int) (*workload.TimedStressResult, *stats.Dist, *sim.Machine) {
	defer lpThreads(workers)()
	cfg := p.cfg
	cfg.Machine.Workers = workers
	waits := make([][]float64, cfg.Machine.Stations*cfg.Machine.ProcsPerStation)
	measured := func(start sim.Time) bool { return start >= sim.Time(cfg.Warmup) }
	var m *sim.Machine
	cfg.MakeLock = func(mm *sim.Machine, home int) locks.Lock {
		m = mm
		return &waitRecorder{Lock: locks.New(mm, cfg.Kind, home), measured: measured, waits: waits}
	}
	res := workload.TimedStressRun(cfg)
	return res, poolWaits(waits), m
}

func fingerprintLP(res *workload.TimedStressResult, waits *stats.Dist) string {
	return fmt.Sprintf("%swaits %s\n", res.Fingerprint(), waits.Tail())
}

// pass runs the workers=1 loop; the unit operation is one acquire.
func (p *lpPlan) pass(t *traced) *passResult {
	end := t.span("workload.TimedStressRun workers=1")
	res, waits, m := p.run(1)
	end()
	t.set("lp.rounds", float64(res.Rounds))
	t.set("lp.local_handoff", ratio(float64(res.LocalHandoffs), float64(res.Handoffs)))
	t.readMemory(m.Mem, 0, res.Elapsed)
	return &passResult{
		fingerprint: fingerprintLP(res, waits),
		attempted:   1,
		lat:         waits,
		opsPerMS:    res.RoundsPerMS,
	}
}

// finish replays the loop on two LP workers, outside wall_s: the parallel
// engine must publish the same bytes at any worker count.
func (p *lpPlan) finish(ref *passResult, wall float64, t *traced) (attempted, failed int) {
	end := t.span("workload.TimedStressRun workers=2")
	t0 := time.Now()
	res, waits, _ := p.run(2)
	w2 := time.Since(t0).Seconds()
	end()
	t.set("lp.speedup_w2", ratio(wall, w2))
	if fingerprintLP(res, waits) != ref.fingerprint {
		return 1, 1
	}
	return 1, 0
}
