package sim

import (
	"fmt"
	"testing"
)

// reportPerSimEvent converts a benchmark's wall time into nanoseconds of
// host time per logical engine event (dispatched + elided), the simulator's
// core throughput number (`go test -bench . -run NONE ./internal/sim/`).
func reportPerSimEvent(b *testing.B, e *Engine) {
	if n := e.Processed(); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/simevent")
	}
}

// BenchmarkEventDispatch measures the bare queue path: closure events with
// nothing to coalesce, each rescheduling itself at a seeded distance below
// wheelSpan, so every event is pushed and popped. The queue depth picks
// the path: one event and 8 (below wheelGate, an LP engine's depth) stay
// on the 4-ary heap; 32 (a 16-processor server's depth) and 512 run on the
// timing wheel (see BenchmarkSpinStorm in internal/locks for the wheel
// under a real lock).
func BenchmarkEventDispatch(b *testing.B) {
	for _, depth := range []int{1, 8, 32, 512} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			rng := NewRNG(1)
			n, scheduled := 0, 0
			var tick func()
			schedule := func() {
				scheduled++
				e.After(1+rng.Duration(wheelSpan-1), tick)
			}
			tick = func() {
				n++
				if scheduled < b.N {
					schedule()
				}
			}
			for scheduled < min(depth, b.N) {
				schedule()
			}
			b.ResetTimer()
			e.RunAll()
			b.StopTimer()
			if n != b.N {
				b.Fatalf("dispatched %d events, want %d", n, b.N)
			}
			if (e.wheel != nil) != (depth >= wheelGate && b.N >= wheelGate) {
				b.Fatalf("depth %d: wheel started = %v", depth, e.wheel != nil)
			}
			reportPerSimEvent(b, e)
		})
	}
}

// BenchmarkThink measures the coalescing fast path: one processor running
// straight-line computation, where every clock advance should be elided.
func BenchmarkThink(b *testing.B) {
	m := NewMachine(Config{Seed: 1})
	m.Go(0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Think(10)
		}
	})
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	reportPerSimEvent(b, m.Eng)
}

// BenchmarkLoadStoreRoundTrip measures the uncontended memory path: one
// processor alternating remote loads and stores (one ring hop), the shape
// of an uncontended lock acquire.
func BenchmarkLoadStoreRoundTrip(b *testing.B) {
	m := NewMachine(Config{Seed: 1})
	a := m.Alloc(15, 1)
	m.Go(0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Store(a, uint64(i))
			p.Load(a)
		}
	})
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	reportPerSimEvent(b, m.Eng)
}

// BenchmarkSwapStorm measures the contended path: 8 processors hammering
// one word with atomic swaps, so the module queues and wake events cannot
// be elided.
func BenchmarkSwapStorm(b *testing.B) {
	m := NewMachine(Config{Seed: 1})
	a := m.Alloc(0, 1)
	per := b.N/8 + 1
	for i := 0; i < 8; i++ {
		m.Go(i, func(p *Proc) {
			for k := 0; k < per; k++ {
				p.Swap(a, uint64(p.ID()))
			}
		})
	}
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	reportPerSimEvent(b, m.Eng)
}

// BenchmarkWaitLocalHandoff measures the park/wake path: two processors
// bouncing a word back and forth through write-watches, the shape of a
// queue-lock hand-off chain.
func BenchmarkWaitLocalHandoff(b *testing.B) {
	m := NewMachine(Config{Seed: 1})
	a := m.Alloc(0, 1)
	bb := m.Alloc(1, 1)
	rounds := b.N/2 + 1
	m.Go(0, func(p *Proc) {
		for k := 0; k < rounds; k++ {
			p.Store(a, uint64(k)+1)
			p.WaitLocal(bb, func(v uint64) bool { return v == uint64(k)+1 })
		}
	})
	m.Go(1, func(p *Proc) {
		for k := 0; k < rounds; k++ {
			p.WaitLocal(a, func(v uint64) bool { return v == uint64(k)+1 })
			p.Store(bb, uint64(k)+1)
		}
	})
	b.ResetTimer()
	m.RunAll()
	b.StopTimer()
	reportPerSimEvent(b, m.Eng)
}

// BenchmarkMachineConstruction measures per-cell setup cost, which bounds
// how fine-grained the parallel harness can slice experiments.
func BenchmarkMachineConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewMachine(Config{Seed: uint64(i) + 1})
		if m.NumProcs() != 16 {
			b.Fatal("bad machine")
		}
	}
}
