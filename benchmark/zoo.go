package main

import (
	"fmt"
	"strings"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// zooHoldsUS are the lock zoo's critical-section holds.
var zooHoldsUS = []float64{0, 25}

type zooPlan struct {
	seed                  uint64
	procs, rounds, warmup int
}

func buildZoo(seed uint64, sz size, _ string) (plan, error) {
	p := &zooPlan{seed: seed, procs: 64, rounds: 100, warmup: 25}
	if sz == tiny {
		p.rounds, p.warmup = 3, 1
	}
	return p, nil
}

// pass runs every (hold, lock) cell of the zoo: closed-loop Figure 5
// stress on NUMAchine-64 with every processor contending one lock, 5us of
// start jitter. The unit operation is one measured acquire, pooled over
// the cells: single cells are no good, since some are the same at every
// seed and others are bimodal.
func (p *zooPlan) pass(t *traced) *passResult {
	r := &passResult{}
	var fp strings.Builder
	var acquisitions, windowMS float64
	waits := make([][]float64, p.procs)
	for _, hold := range zooHoldsUS {
		for _, kind := range zooKinds {
			end := t.span(fmt.Sprintf("workload.LockStressRun %s hold=%gus", kind, hold))
			// Warm-up acquires all finish before the measurement window opens.
			var obs *workload.LockStressObserved
			measured := func(sim.Time) bool { return obs.WindowStart > 0 }
			res := workload.LockStressRun(workload.StressConfig{
				Machine: machine.NUMAchine64(p.seed),
				MakeLock: func(m *sim.Machine, home int) locks.Lock {
					return &waitRecorder{Lock: locks.New(m, kind, home), measured: measured, waits: waits}
				},
				Attach: func(r *workload.LockStressObserved) { obs = r },
				Procs:  p.procs, Rounds: p.rounds, Warmup: p.warmup,
				Hold:   sim.Micros(hold),
				Jitter: sim.Micros(5),
				Tracer: t.tracer(nil, nil),
			})
			end()
			s := res.Lock
			r.attempted++
			if s.Acquisitions != uint64(p.procs*p.rounds) {
				r.failed++
			}
			fmt.Fprintf(&fp, "%s hold=%g acq=%d pair=%.6f window=%d-%d handoffs=%v %s\n",
				kind, hold, s.Acquisitions, res.PairUS, res.WindowStart, res.WindowEnd, s.Handoffs, res.AcquireDist.Tail())
			ms := (res.WindowEnd - res.WindowStart).Microseconds() / 1000
			acquisitions += float64(s.Acquisitions)
			windowMS += ms
			t.set(fmt.Sprintf("locks.%s.h%g.acq_per_ms", kind, hold), ratio(float64(s.Acquisitions), ms))
			if hold > 0 {
				local := s.Handoffs[sim.DistLocal] + s.Handoffs[sim.DistStation]
				t.set(fmt.Sprintf("locks.%s.local_handoff", kind), ratio(float64(local), float64(s.HandoffTotal())))
				t.set(fmt.Sprintf("locks.%s.home_util", kind), res.Resources[res.HomeModule].Utilization)
			}
			t.readMemory(res.M.Mem, res.WindowStart, res.WindowEnd)
		}
	}
	r.fingerprint = fp.String()
	r.lat = poolWaits(waits)
	r.opsPerMS = ratio(acquisitions, windowMS)
	return r
}
