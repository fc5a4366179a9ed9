package exp

import (
	"fmt"
	"math"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// cohortKinds are the fixed locks the hierarchical families are judged
// against and alongside: the backoff spin lock and the best FIFO queue lock
// as the flat baselines, then the two NUMA-aware hierarchical locks.
var cohortKinds = []locks.Kind{
	locks.KindSpin, locks.KindH2MCS, locks.KindCohort, locks.KindCNA,
}

// cohortJitter staggers each processor's first measured acquisition so a
// FIFO lock's hand-off locality reflects the algorithm, not the ID-ordered
// post-barrier enqueue artifact (see StressConfig.Jitter).
var cohortJitter = sim.Micros(50)

// stationLocalFrac is the fraction of measured hand-offs that stayed on
// the holder's station (same module or same station bus) — the locality
// metric the hierarchical locks exist to raise. Zero when nothing was
// contended enough to hand off.
func stationLocalFrac(s *locks.Stats) float64 {
	tot := s.HandoffTotal()
	if tot == 0 {
		return 0
	}
	return float64(s.Handoffs[sim.DistLocal]+s.Handoffs[sim.DistStation]) / float64(tot)
}

// CohortSweep compares the flat locks (backoff spin, H2-MCS) against the
// hierarchical cohort and CNA locks and the feedback-tuned lock on both
// machine configurations, at each contention level. Latency columns are
// mean acquire time; the loc columns give each lock family's
// station-local hand-off fraction from the locks.Stats distance histogram
// — under saturation the hierarchical locks must batch grants by station
// (high fraction) where FIFO order crosses stations almost every grant.
//
// The batch-limit knob study runs the cohort lock at the largest
// configuration inside a fixed time window across batch limits: raising
// the limit buys throughput (more total rounds — fewer global transfers
// and ring crossings) at the price of short-term fairness (the most
// starved processor completes fewer rounds); the starvation bound B+1
// keeps the worst case finite. Results land in the notes and metrics.
func CohortSweep(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Cohort sweep: acquire latency (us) and station-local hand-off fraction, hold=25us",
		Cols:  []string{"machine", "p"},
	}
	for _, k := range cohortKinds {
		t.Cols = append(t.Cols, k.String())
	}
	t.Cols = append(t.Cols, "Tuned", "loc(MCS)", "loc(Coh)", "loc(CNA)", "loc(Tun)")

	hold := sim.Micros(25)
	// A full rounds-worth of warm-up: this sweep judges steady state (the
	// tuner must have settled into its regime — spin, queue or cohort —
	// before the window opens), not the crossover transient, which
	// TunedCrossover measures separately.
	warmup := rounds
	if warmup < 4 {
		warmup = 4
	}
	nFixed := len(cohortKinds)
	cells := runSweep(seed, sweepCols(cohortKinds, tune.Params{}),
		workload.StressConfig{Rounds: rounds, Warmup: warmup, Hold: hold, Jitter: cohortJitter})
	kindIdx := func(k locks.Kind) int {
		for i, ck := range cohortKinds {
			if ck == k {
				return i
			}
		}
		panic("kind not in sweep")
	}
	for mi, mc := range tunedMachines {
		worstPair, worstAcq, worstMin := 0.0, 0.0, 0.0
		pmax := mc.Procs[len(mc.Procs)-1]
		for pi, p := range mc.Procs {
			at := cells[mi][pi]
			row, bestAcq, bestPair := fixedRow([]string{mc.Name, fmt.Sprintf("%d", p)}, at[:nFixed])
			mcs, coh, cna := at[kindIdx(locks.KindH2MCS)], at[kindIdx(locks.KindCohort)], at[kindIdx(locks.KindCNA)]
			tc := at[nFixed]
			row = append(row, f1(tc.acq), f2(mcs.loc), f2(coh.loc), f2(cna.loc), f2(tc.loc))
			t.AddRow(row...)
			// The adaptivity acceptance, on two views per level: mean
			// acquire latency (the fairness-honest view) and per-round
			// elapsed wall time (overhead + hold, the throughput view, as in
			// TunedCrossover). A fixed lock is only best in its own regime —
			// spin at low p, a queue at saturation, a hierarchical lock past
			// one station — so staying near the per-p winner everywhere is
			// exactly what the feedback controller buys. The two views pull
			// against each other (spin regimes trade wall-clock fairness for
			// latency, queues the reverse), so a single adaptive lock cannot
			// match four specialists on both at once; the acceptance metric
			// takes, per level, the view on which the tuned lock does
			// better, and reports the worst such ratio over the sweep.
			acqR := tc.acq / bestAcq
			holdUS := hold.Microseconds()
			pairR := (tc.pair + holdUS) / (bestPair + holdUS)
			if acqR > worstAcq {
				worstAcq = acqR
			}
			if pairR > worstPair {
				worstPair = pairR
			}
			if r := math.Min(acqR, pairR); r > worstMin {
				worstMin = r
			}
			if p == pmax {
				t.AddMetric(mc.Name+".cohort_acquire_pmax", coh.acq, "us")
				t.AddMetric(mc.Name+".cna_acquire_pmax", cna.acq, "us")
				t.AddMetric(mc.Name+".h2mcs_local_frac", mcs.loc, "frac")
				t.AddMetric(mc.Name+".cohort_local_frac", coh.loc, "frac")
				t.AddMetric(mc.Name+".cna_local_frac", cna.loc, "frac")
				t.Note("%s p=%d: tuned lock finished in %s mode, station-local fraction %.2f",
					mc.Name, p, tc.ctl.Mode(), tc.loc)
			}
		}
		t.AddMetric(mc.Name+".tuned_worst_acquire_ratio", worstAcq, "ratio")
		t.AddMetric(mc.Name+".tuned_worst_ratio", worstPair, "ratio")
		t.AddMetric(mc.Name+".tuned_worst_minview_ratio", worstMin, "ratio")
	}

	// Batch-limit knob: cohort lock on the largest machine at full
	// contention, fixed time window, sweeping the local-pass budget.
	mc := tunedMachines[len(tunedMachines)-1]
	pmax := mc.Procs[len(mc.Procs)-1]
	window := hold * sim.Duration(rounds) * 4
	for _, limit := range []int{1, 8, 64} {
		total, min, max, loc := cohortBatchCell(mc.Cfg(seed), limit, pmax, hold, window)
		t.AddMetric(fmt.Sprintf("%s.batch%d_total_rounds", mc.Name, limit), float64(total), "rounds")
		t.AddMetric(fmt.Sprintf("%s.batch%d_min_rounds", mc.Name, limit), float64(min), "rounds")
		t.AddMetric(fmt.Sprintf("%s.batch%d_local_frac", mc.Name, limit), loc, "frac")
		t.Note("%s p=%d batch limit %d: %d rounds total in %.0fus window (per-proc min %d / max %d), local frac %.2f",
			mc.Name, pmax, limit, total, window.Microseconds(), min, max, loc)
	}
	return t
}

// cohortBatchCell runs pmax processors against one cohort lock for a fixed
// simulated window and reports total and per-processor extreme round
// counts plus the station-local hand-off fraction — the
// starvation-vs-throughput tradeoff the batch limit controls.
func cohortBatchCell(cfg sim.Config, limit, procs int, hold, window sim.Duration) (total, min, max int, loc float64) {
	m := sim.NewMachine(cfg)
	l := locks.NewCohort(m, 0)
	l.BatchLimit = limit
	s := locks.NewStats(m, l)
	counts := make([]int, procs)
	deadline := sim.Time(window)
	for i := 0; i < procs; i++ {
		i := i
		m.Go(i, func(p *sim.Proc) {
			p.Think(p.RNG().Duration(cohortJitter))
			for p.Now() < deadline {
				s.Acquire(p)
				p.Think(hold)
				s.Release(p)
				counts[i]++
			}
		})
	}
	m.RunAll()
	m.Shutdown()
	min, max = counts[0], counts[0]
	for _, c := range counts {
		total += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return total, min, max, stationLocalFrac(s)
}
