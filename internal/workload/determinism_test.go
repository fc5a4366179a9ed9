package workload

import (
	"fmt"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// fingerprint renders everything a run publishes — the windowed lock
// telemetry report, the measurement window bounds, the final simulated
// clock (WindowEnd is m.Eng.Now() at shutdown) and the derived figures —
// as one string, so two runs can be compared byte for byte.
func fingerprint(r *LockStressObserved) string {
	s := fmt.Sprintf("window=[%d,%d] pair=%.6f acq=%.6f n=%d max=%.6f\n%s",
		r.WindowStart, r.WindowEnd, r.PairUS, r.AcquireUS,
		r.AcquireDist.N(), r.AcquireDist.Max(), r.Lock.Report())
	for _, ru := range r.Resources {
		s += fmt.Sprintf("%s u=%.9f req=%d q=%.3f\n", ru.Name, ru.Utilization, ru.Requests, ru.MaxQueueUS)
	}
	return s
}

// TestLockStressDeterministic is the determinism property the whole
// methodology rests on (every figure in EXPERIMENTS.md is reproducible
// from a seed): running the same seeded workload twice yields
// byte-identical lock telemetry and the same final simulated clock — for
// every lock family, on both the 16-processor HECTOR and the 64-processor
// NUMAchine configurations. CLH needs compare-and-swap, so its 16-proc run
// uses the CAS-extended HECTOR.
func TestLockStressDeterministic(t *testing.T) {
	kinds := []locks.Kind{
		locks.KindSpin, locks.KindMCS, locks.KindCLH,
		locks.KindAdaptive, locks.KindTuned,
	}
	cfgs := []struct {
		name  string
		mach  func(seed uint64) sim.Config
		procs int
		cas   func(seed uint64) sim.Config
	}{
		{"hector16", machine.Hector16, 16, func(seed uint64) sim.Config {
			c := machine.Hector16(seed)
			c.HasCAS = true
			return c
		}},
		{"numachine64", machine.NUMAchine64, 64, machine.NUMAchine64},
	}
	const seed = 0x5eed
	for _, c := range cfgs {
		for _, k := range kinds {
			k := k
			c := c
			t.Run(fmt.Sprintf("%s/%s", c.name, k), func(t *testing.T) {
				t.Parallel()
				mach := c.mach
				if k == locks.KindCLH {
					mach = c.cas
				}
				run := func() string {
					return fingerprint(LockStressRun(StressConfig{
						Machine: mach(seed),
						Kind:    k,
						Procs:   c.procs,
						Rounds:  6,
						Warmup:  2,
						Hold:    sim.Micros(25),
					}))
				}
				a, b := run(), run()
				if a != b {
					t.Fatalf("two identically seeded runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
				}
			})
		}
	}
}

// TestServerDeterministic extends the byte-identical guarantee to the
// open-loop server scenario: the same seed yields the same fingerprint —
// every count, every percentile, every kernel counter — for the fixed
// zoo, the tuned lock, and both protocols. Each run is one single-threaded
// simulation, so this is also what makes exp.ServerSweep's merged output
// byte-identical at any -jobs value (the jobs-equiv gate re-checks that
// end to end).
func TestServerDeterministic(t *testing.T) {
	kinds := []locks.Kind{locks.KindSpin2ms, locks.KindCohort, locks.KindTuned}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			run := func() string {
				cfg := serverTestConfig(0x5eed, k)
				return ServerRun(cfg).Fingerprint()
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("two identically seeded server runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
		})
	}
}

// TestServerSeedSensitivity: a different seed must move the server run,
// or TestServerDeterministic would pass vacuously.
func TestServerSeedSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		return ServerRun(serverTestConfig(seed, locks.KindSpin)).Fingerprint()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical server runs")
	}
}

// TestLockStressSeedSensitivity is the sanity counterweight: a different
// seed must actually move the jittered backoff locks, or the determinism
// test would pass vacuously on a simulator that ignored its seed.
func TestLockStressSeedSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		return fingerprint(LockStressRun(StressConfig{
			Machine: machine.Hector16(seed),
			Kind:    locks.KindSpin,
			Procs:   16,
			Rounds:  6,
			Warmup:  2,
			Hold:    sim.Micros(25),
		}))
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical spin-lock runs")
	}
}
