package workload

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// TimedStressConfig parameterizes the time-gated lock stress loop — the
// variant of the Figure 5 loop the parallel engine can run. The classic
// loop is round-gated and phase-aligned with a Barrier, but the Barrier
// parks and unparks processors across stations from plain Go code, which
// the logical-process engine forbids (cross-LP state must travel as
// timestamped messages). Here every processor instead runs until a
// simulated-time deadline and measurement is gated by simulated time
// alone, so the loop needs no cross-processor coordination at all: the
// same config produces byte-identical results on the serial engine and on
// the parallel engine at any worker count.
type TimedStressConfig struct {
	// Machine is the hardware configuration, including the seed and (for
	// the parallel engine) the worker count.
	Machine sim.Config
	// Kind selects the lock algorithm; ignored when MakeLock is set.
	Kind locks.Kind
	// MakeLock, when non-nil, overrides lock construction (to pass
	// tune.Params or keep a controller handle).
	MakeLock func(m *sim.Machine, home int) locks.Lock
	// Procs is how many processors run the loop.
	Procs int
	// Spread, when set, assigns the w-th participant to processor
	// (w mod stations)*procsPerStation + w/stations — round-robin across
	// stations, so a partial-machine run still generates cross-station
	// lock traffic. Unset, participants are processors 0..Procs-1.
	Spread bool
	// PerStation, when set, gives every station its own lock and data —
	// homed at the station's first processor-memory module — and each
	// participant contends its own station's lock. Unset, one lock and its
	// data live on module 0. This is
	// the partitioned-kernel shape (per-module run queues, per-station
	// allocators): simulated load on every logical process at once, which
	// is what the parallel-speedup experiment has to offer the engine. A
	// single global lock serializes the simulated machine no matter how
	// many host workers run it.
	PerStation bool
	// Hold is the critical-section hold time; Think an optional per-round
	// post-release think, jittered uniformly in [0, Think) per processor.
	Hold, Think sim.Duration
	// Warmup and Window bound the run in simulated time: rounds whose
	// acquire starts in [Warmup, Warmup+Window) are measured, and every
	// processor stops starting rounds at Warmup+Window.
	Warmup, Window sim.Duration
}

// timedSlot is one processor's private counters, padded to a cache line so
// processors on different logical processes never share a line.
type timedSlot struct {
	rounds, handoffs, localHandoffs, waitCycles uint64
	_                                           [4]uint64
}

// TimedStressResult summarizes a timed stress run.
type TimedStressResult struct {
	// Rounds is the total measured acquisitions; PerProc the per-processor
	// breakdown (indexed by participant, not processor ID).
	Rounds  uint64
	PerProc []uint64
	// Handoffs counts measured acquisitions whose previous holder was a
	// different processor; LocalHandoffs those from the same station.
	Handoffs, LocalHandoffs uint64
	// WaitUS is the mean acquire latency over measured rounds.
	WaitUS float64
	// RoundsPerMS is measured throughput: rounds per simulated
	// millisecond of window.
	RoundsPerMS float64
	// Elapsed is the final simulated time.
	Elapsed sim.Time
}

// Fingerprint renders everything the run publishes, per processor, so two
// runs can be compared byte for byte — the worker-count-equivalence gate.
func (r *TimedStressResult) Fingerprint() string {
	s := fmt.Sprintf("rounds=%d handoffs=%d local=%d wait=%.4f thr=%.4f elapsed=%d\n",
		r.Rounds, r.Handoffs, r.LocalHandoffs, r.WaitUS, r.RoundsPerMS, r.Elapsed)
	for i, n := range r.PerProc {
		s += fmt.Sprintf("proc %d rounds=%d\n", i, n)
	}
	return s
}

// TimedStressRun executes the time-gated stress loop and aggregates the
// per-processor slots after the machine has stopped (the only moment the
// slots may be read together).
func TimedStressRun(cfg TimedStressConfig) *TimedStressResult {
	m := sim.NewMachine(cfg.Machine)
	mcfg := m.Config()
	mk := cfg.MakeLock
	if mk == nil {
		mk = func(m *sim.Machine, home int) locks.Lock { return locks.New(m, cfg.Kind, home) }
	}
	pps := mcfg.ProcsPerStation
	nlocks := 1
	if cfg.PerStation {
		nlocks = mcfg.Stations
	}
	// The protected data lives with the lock, as kernel data does; the
	// owner word carries the previous holder's identity in-band (through
	// simulated memory, under the lock), which is how hand-off locality is
	// tracked without any cross-LP Go state.
	ls := make([]locks.Lock, nlocks)
	datas := make([]sim.Addr, nlocks)
	owners := make([]sim.Addr, nlocks)
	for s := range ls {
		home := s * pps
		ls[s] = mk(m, home)
		datas[s] = m.Alloc(home, 8)
		owners[s] = m.Alloc(home, 1)
	}
	deadline := sim.Time(cfg.Warmup + cfg.Window)

	slots := make([]timedSlot, cfg.Procs)
	for w := 0; w < cfg.Procs; w++ {
		id := w
		if cfg.Spread {
			id = (w%mcfg.Stations)*pps + w/mcfg.Stations
		}
		slot := &slots[w]
		li := 0
		if cfg.PerStation {
			li = id / pps
		}
		l, data, owner := ls[li], datas[li], owners[li]
		m.Go(id, func(p *sim.Proc) {
			for {
				t0 := p.Now()
				if t0 >= deadline {
					return
				}
				l.Acquire(p)
				wait := p.Now() - t0
				prev := p.Swap(owner, uint64(1+p.ID()))
				if t0 >= sim.Time(cfg.Warmup) {
					slot.rounds++
					slot.waitCycles += uint64(wait)
					if prev != 0 && prev != uint64(1+p.ID()) {
						slot.handoffs++
						if int(prev-1)/pps == p.Station() {
							slot.localHandoffs++
						}
					}
				}
				holdWork(p, data, cfg.Hold)
				l.Release(p)
				if cfg.Think > 0 {
					p.Think(p.RNG().Duration(cfg.Think))
				}
			}
		})
	}
	m.RunAll()
	m.Shutdown()

	res := &TimedStressResult{Elapsed: m.Eng.Now(), PerProc: make([]uint64, cfg.Procs)}
	var waitCycles uint64
	for i := range slots {
		res.PerProc[i] = slots[i].rounds
		res.Rounds += slots[i].rounds
		res.Handoffs += slots[i].handoffs
		res.LocalHandoffs += slots[i].localHandoffs
		waitCycles += slots[i].waitCycles
	}
	if res.Rounds > 0 {
		res.WaitUS = sim.Duration(waitCycles).Microseconds() / float64(res.Rounds)
	}
	if cfg.Window > 0 {
		res.RoundsPerMS = float64(res.Rounds) / (cfg.Window.Microseconds() / 1000)
	}
	return res
}
