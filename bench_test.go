// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (run the full regeneration with cmd/hurricane-bench;
// these run reduced configurations and report the simulated metrics via
// b.ReportMetric), plus real-hardware benchmarks of the native lock ports.
package hurricane

import (
	"sync"
	"testing"

	"hurricane/internal/core"
	"hurricane/internal/exp"
	"hurricane/internal/locks"
	"hurricane/internal/native"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// BenchmarkFigure4InstructionCounts regenerates the instruction-count
// table (Figure 4).
func BenchmarkFigure4InstructionCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure4(1)
		if len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkUncontendedLatency measures §4.1.1 for each algorithm and
// reports the simulated microseconds.
func BenchmarkUncontendedLatency(b *testing.B) {
	for _, k := range []locks.Kind{locks.KindMCS, locks.KindH1MCS, locks.KindH2MCS, locks.KindSpin} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us, _ = workload.UncontendedPair(1, k)
			}
			b.ReportMetric(us, "sim-us/pair")
		})
	}
}

func benchFigure5(b *testing.B, holdUS float64) {
	for _, k := range []locks.Kind{locks.KindH2MCS, locks.KindSpin, locks.KindSpin2ms} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var r *workload.LockStressObserved
			for i := 0; i < b.N; i++ {
				r = workload.LockStressRun(workload.StressConfig{
					Machine: sim.Config{Seed: 1}, Kind: k, Procs: 16, Rounds: 60, Hold: sim.Micros(holdUS),
				})
			}
			b.ReportMetric(r.AcquireUS, "sim-us/acquire")
		})
	}
}

// BenchmarkFigure5a is the hold=0 contention sweep at p=16.
func BenchmarkFigure5a(b *testing.B) { benchFigure5(b, 0) }

// BenchmarkFigure5b is the hold=25us contention sweep at p=16.
func BenchmarkFigure5b(b *testing.B) { benchFigure5(b, 25) }

func faultSystem(clusterSize int, kind locks.Kind) *core.System {
	return core.NewSystem(core.Config{
		Machine:     sim.Config{Seed: 1},
		ClusterSize: clusterSize,
		LockKind:    kind,
	})
}

// BenchmarkFigure7a runs the independent-fault test at p=16 on one
// 16-processor cluster for both lock types.
func BenchmarkFigure7a(b *testing.B) {
	for _, k := range []locks.Kind{locks.KindH2MCS, locks.KindSpin} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = workload.IndependentFaults(faultSystem(16, k), 16, 4, 6).Dist.Mean()
			}
			b.ReportMetric(mean, "sim-us/fault")
		})
	}
}

// BenchmarkFigure7b runs the shared-fault test at p=16.
func BenchmarkFigure7b(b *testing.B) {
	for _, k := range []locks.Kind{locks.KindH2MCS, locks.KindSpin} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = workload.SharedFaults(faultSystem(16, k), 16, 4, 2).Dist.Mean()
			}
			b.ReportMetric(mean, "sim-us/fault")
		})
	}
}

// BenchmarkFigure7c sweeps cluster size for independent faults.
func BenchmarkFigure7c(b *testing.B) {
	for _, cs := range []int{1, 4, 16} {
		cs := cs
		b.Run(map[int]string{1: "cluster1", 4: "cluster4", 16: "cluster16"}[cs], func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = workload.IndependentFaults(faultSystem(cs, locks.KindH2MCS), 16, 4, 6).Dist.Mean()
			}
			b.ReportMetric(mean, "sim-us/fault")
		})
	}
}

// BenchmarkFigure7d sweeps cluster size for shared faults.
func BenchmarkFigure7d(b *testing.B) {
	for _, cs := range []int{1, 4, 16} {
		cs := cs
		b.Run(map[int]string{1: "cluster1", 4: "cluster4", 16: "cluster16"}[cs], func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = workload.SharedFaults(faultSystem(cs, locks.KindH2MCS), 16, 4, 2).Dist.Mean()
			}
			b.ReportMetric(mean, "sim-us/fault")
		})
	}
}

// BenchmarkCalibration regenerates the calibration constants table.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Calibration(1); len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkProtocols runs the optimistic-vs-pessimistic comparison.
func BenchmarkProtocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Protocols(1); len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkHybridAblation runs the §2.1 strategy comparison.
func BenchmarkHybridAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.HybridAblation(1, 10); len(t.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkCombining runs the replication-combining ablation.
func BenchmarkCombining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Combining(1); len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- native (real hardware) benchmarks ---

// BenchmarkNativeMCS contends the native MCS queue lock.
func BenchmarkNativeMCS(b *testing.B) {
	var l native.MCS
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tok := l.Acquire()
			l.Release(tok)
		}
	})
}

// BenchmarkNativeSpin contends the native backoff spin lock.
func BenchmarkNativeSpin(b *testing.B) {
	var l native.Spin
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Acquire()
			l.Release()
		}
	})
}

// BenchmarkNativeSpinThenBlock contends the spin-then-block lock.
func BenchmarkNativeSpinThenBlock(b *testing.B) {
	l := native.NewSpinThenBlock(32)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Acquire()
			l.Release()
		}
	})
}

// BenchmarkNativeMutex is the stdlib baseline.
func BenchmarkNativeMutex(b *testing.B) {
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			mu.Unlock()
		}
	})
}

// BenchmarkNativeTableReserve contends the hybrid table's reserve path.
func BenchmarkNativeTableReserve(b *testing.B) {
	tb := native.NewTable()
	tb.Insert(1, new(int))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e, _ := tb.Reserve(1, true)
			tb.ReleaseReserve(e, true)
		}
	})
}
