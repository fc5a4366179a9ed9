package locks

import (
	"testing"

	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// benchPairs runs one processor through b.N acquire/release pairs against a
// remote lock and reports host nanoseconds per simulated engine event. The
// per-acquire queue-node lookup sits on this path, so it doubles as the
// regression benchmark for the typed per-lock node registry (the old
// map[interface{}]interface{} scratch space cost an allocation and two map
// hits per pair).
func benchPairs(b *testing.B, kind Kind) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	l := New(m, kind, 15)
	m.Go(0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Acquire(p)
			l.Release(p)
		}
	})
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	if n := m.Eng.Processed(); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/simevent")
	}
}

func BenchmarkUncontendedMCS(b *testing.B)   { benchPairs(b, KindMCS) }
func BenchmarkUncontendedH2MCS(b *testing.B) { benchPairs(b, KindH2MCS) }
func BenchmarkUncontendedSpin(b *testing.B)  { benchPairs(b, KindSpin) }

// BenchmarkContendedH2MCS drives the full queue hand-off chain: 8
// processors contending one lock with a short hold.
func BenchmarkContendedH2MCS(b *testing.B) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	l := New(m, KindH2MCS, 0)
	per := b.N/8 + 1
	for i := 0; i < 8; i++ {
		m.Go(i, func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				l.Acquire(p)
				p.Think(100)
				l.Release(p)
			}
		})
	}
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	if n := m.Eng.Processed(); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/simevent")
	}
}

// BenchmarkSpinStorm drives the saturated backoff path: 64 processors of
// NUMAchine-64 contending one Spin-35us lock with a 25us hold, so nearly
// every poll fails and the engine queue holds an event per processor, past
// the size at which its timing wheel starts. This is the shape of the
// model sweep's Spin-35us calibration cells; b.N counts acquisitions.
func BenchmarkSpinStorm(b *testing.B) {
	const procs = 64
	m := sim.NewMachine(machine.NUMAchine64(1))
	l := New(m, KindSpin, 0)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		m.Go(i, func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				l.Acquire(p)
				p.Think(sim.Micros(25))
				l.Release(p)
			}
		})
	}
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	if n := m.Eng.Processed(); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/simevent")
	}
}
