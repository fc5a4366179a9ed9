package workload

import (
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// TestTunedCapMonotoneInOfferedLoad is the end-to-end half of the
// metamorphic property (the pure-law half is quick-checked in
// internal/tune): raising offered load — more processors hammering the
// same lock — never lowers the highest backoff cap the controller chooses
// over the run. The tune.NextCap law is monotone in both pressure signals
// and offered load raises both, so the peak cap must be non-decreasing
// in the processor count.
func TestTunedCapMonotoneInOfferedLoad(t *testing.T) {
	peakCap := func(procs int) sim.Duration {
		var l *locks.Tuned
		LockStressRun(StressConfig{
			Machine: machine.Hector16(42),
			MakeLock: func(m *sim.Machine, home int) locks.Lock {
				l = locks.NewTuned(m, home, tune.Params{})
				return l
			},
			Procs:  procs,
			Rounds: 40,
			Warmup: 4,
			Hold:   sim.Micros(25),
		})
		peak := tune.MinCap
		for _, d := range l.Controller().Log() {
			if d.Cap > peak {
				peak = d.Cap
			}
		}
		return peak
	}
	loads := []int{1, 4, 16}
	caps := make([]sim.Duration, len(loads))
	for i, p := range loads {
		caps[i] = peakCap(p)
	}
	for i := 1; i < len(loads); i++ {
		if caps[i] < caps[i-1] {
			t.Fatalf("peak cap decreased with offered load: p=%d -> %v, p=%d -> %v",
				loads[i-1], caps[i-1], loads[i], caps[i])
		}
	}
	// And the property is not vacuous: contention must actually move the cap.
	if caps[len(caps)-1] == caps[0] {
		t.Fatalf("cap never moved across loads %v: %v", loads, caps)
	}
}
