package exp

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/model"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// modelLocks pairs each modeled configuration with the simulator lock it
// claims to predict. The queue family is validated against plain MCS — the
// strict-FIFO lock the (p-1)(H+C) wait bound describes exactly; H2-MCS's
// locally-unfair hand-offs are the cohort family's territory.
var modelLocks = []struct {
	L    model.Lock
	Kind locks.Kind
}{
	{model.Lock{Family: model.FamilySpin, CapUS: 35}, locks.KindSpin},
	{model.Lock{Family: model.FamilySpin, CapUS: 2000}, locks.KindSpin2ms},
	{model.Lock{Family: model.FamilyQueue}, locks.KindMCS},
	{model.Lock{Family: model.FamilyCohort}, locks.KindCohort},
	{model.Lock{Family: model.FamilyCNA}, locks.KindCNA},
}

// modelMachines defines, per machine, the calibration grid the residuals
// are fitted on and the validation grid the errors are reported on. The
// two grids share no (procs, hold) cell, so every reported error is
// out-of-sample. NUMAchine-256 runs a thin single-seed grid with capped
// rounds (the scaling experiment's budget): the point there is checking
// the model's ring-hierarchy extrapolation, not dense coverage.
var modelMachines = []struct {
	Name               string
	Cfg                func(seed uint64) sim.Config
	FitProcs, ValProcs []int
	FitHolds, ValHolds []float64
	MaxRounds          int // 0 = the experiment's round count as-is
	Seeds              int
}{
	{"hector16", machine.Hector16,
		[]int{2, 16}, []int{2, 4, 8, 16},
		[]float64{10, 40}, []float64{5, 25}, 0, 3},
	{"numachine64", machine.NUMAchine64,
		[]int{16, 64}, []int{4, 16, 32, 64},
		[]float64{10, 40}, []float64{5, 25}, 0, 3},
	{"numachine256", machine.NUMAchine256,
		[]int{16, 256}, []int{64, 256},
		[]float64{25}, []float64{10}, 10, 1},
}

// modelSatUtil is the home-module utilization above which a validation
// cell counts as saturated: the tuner's own saturation threshold. Past this
// point the simulator is in the regime where backoff unfairness and
// module queueing dominate, which the closed forms only track through
// the clamped rho term — the headline error metric excludes these cells
// and the table still shows them.
const modelSatUtil = tune.SatHigh

// modelCell is one measured grid cell, averaged over a machine's seeds.
// pair is the serialized per-round overhead C — LockStressResult.PairUS
// is elapsed per per-processor round minus the hold, i.e. p(H+C)-H under
// the saturated closed loop, so C = (PairUS+H)/p - H recovers the
// quantity the model's closed forms predict.
type modelCell struct {
	pair, acq, util float64
}

// modelRun measures one (machine, lock, procs, hold) cell.
func modelRun(cfg func(uint64) sim.Config, kind locks.Kind, seed uint64, seeds, procs, rounds int, holdUS float64) modelCell {
	warmup := rounds / 4
	if warmup < 2 {
		warmup = 2
	}
	var c modelCell
	for s := uint64(0); s < uint64(seeds); s++ {
		r := workload.LockStressRun(workload.StressConfig{
			Machine: cfg(seed + s), Kind: kind,
			Procs: procs, Rounds: rounds, Warmup: warmup, Hold: sim.Micros(holdUS),
		})
		c.pair += (r.PairUS+holdUS)/float64(procs) - holdUS
		c.acq += r.AcquireUS
		c.util += r.Resources[r.HomeModule].Utilization
	}
	n := float64(seeds)
	c.pair /= n
	c.acq /= n
	c.util /= n
	return c
}

// ModelSweep validates the analytic performance model (internal/model)
// against the simulator.
//
// Phase one measures a calibration grid per machine and fits the per-lock
// residuals (model.Calibrate). Phase two measures a disjoint validation
// grid and reports, per cell, measured vs predicted per-round overhead;
// the headline metrics are the median relative error over non-saturated
// cells (home-module utilization below modelSatUtil) and the ranking
// agreement — the fraction of (procs, hold) points where the lock the
// model predicts cheapest is measurably within 10% of the actual cheapest
// (the decision the tuner makes; exact order among near-ties is noise).
func ModelSweep(seed uint64, rounds int) *Table {
	t := &Table{
		Title: "Analytic model: measured vs predicted pair overhead (us, meas/pred)",
		Cols:  []string{"machine", "p", "hold"},
	}
	for _, ml := range modelLocks {
		t.Cols = append(t.Cols, ml.L.String())
	}
	t.Cols = append(t.Cols, "best-meas", "best-pred", "util", "rank")

	// Every measurement cell of both grids runs on the worker pool in one
	// flat pass (validation cells do not depend on the fitted residuals —
	// only their evaluation does); the reduction reads them back in
	// declaration order.
	type cellKey struct {
		mi, li     int
		procs      int
		hold       float64
		cellRounds int
	}
	var cells []cellKey
	for mi, mc := range modelMachines {
		cellRounds := rounds
		if mc.MaxRounds > 0 && cellRounds > mc.MaxRounds {
			cellRounds = mc.MaxRounds
		}
		for _, p := range mc.FitProcs {
			for _, h := range mc.FitHolds {
				for li := range modelLocks {
					cells = append(cells, cellKey{mi, li, p, h, cellRounds})
				}
			}
		}
		for _, p := range mc.ValProcs {
			for _, h := range mc.ValHolds {
				for li := range modelLocks {
					cells = append(cells, cellKey{mi, li, p, h, cellRounds})
				}
			}
		}
	}
	measured := make([]modelCell, len(cells))
	RunParallel(len(cells), func(i int) {
		c := cells[i]
		mc := modelMachines[c.mi]
		measured[i] = modelRun(mc.Cfg, modelLocks[c.li].Kind, seed, mc.Seeds, c.procs, c.cellRounds, c.hold)
	})
	at := make(map[cellKey]modelCell, len(cells))
	for i, c := range cells {
		at[c] = measured[i]
	}

	// Fit, validate, and report per machine, in declaration order.
	for mi, mc := range modelMachines {
		mach := model.FromConfig(mc.Cfg(seed))
		cellRounds := rounds
		if mc.MaxRounds > 0 && cellRounds > mc.MaxRounds {
			cellRounds = mc.MaxRounds
		}
		var obs []model.Observation
		for _, p := range mc.FitProcs {
			for _, h := range mc.FitHolds {
				for li, ml := range modelLocks {
					m := at[cellKey{mi, li, p, h, cellRounds}]
					obs = append(obs, model.Observation{
						Lock: ml.L, Point: model.Point{Procs: p, HoldUS: h},
						PairUS: m.pair, AcquireUS: m.acq,
					})
				}
			}
		}
		cal := mach.Calibrate(obs)
		pr := model.Predictor{M: mach, Cal: cal}

		var pairErrs, waitErrs []float64
		rankOK, rankN := 0, 0
		for _, p := range mc.ValProcs {
			for _, h := range mc.ValHolds {
				row := []string{mc.Name, fmt.Sprintf("%d", p), fmt.Sprintf("%g", h)}
				bestMeas, bestPred := -1, -1
				var bestMeasUS, bestPredUS float64
				measuredUS := make([]float64, len(modelLocks))
				util := 0.0
				for li, ml := range modelLocks {
					m := at[cellKey{mi, li, p, h, cellRounds}]
					pred := pr.Predict(ml.L, model.Point{Procs: p, HoldUS: h})
					row = append(row, fmt.Sprintf("%.1f/%.1f", m.pair, pred.PairUS))
					// Elapsed per round (overhead plus the hold): robust where
					// the bare overhead is near zero and the quantity the
					// ranking decision actually trades on.
					measuredUS[li] = m.pair + h
					predUS := pred.PairUS + h
					if bestMeas < 0 || measuredUS[li] < bestMeasUS {
						bestMeas, bestMeasUS = li, measuredUS[li]
					}
					if bestPred < 0 || predUS < bestPredUS {
						bestPred, bestPredUS = li, predUS
					}
					if m.util > util {
						util = m.util
					}
					if p >= 2 && m.pair > 0 {
						sat := m.util >= modelSatUtil
						if !sat {
							pairErrs = append(pairErrs, abs(pred.PairUS-m.pair)/m.pair)
							if m.acq > 0 {
								waitErrs = append(waitErrs, abs(pred.WaitUS-m.acq)/m.acq)
							}
						}
					}
				}
				ok := measuredUS[bestPred] <= 1.10*bestMeasUS
				rankN++
				if ok {
					rankOK++
				}
				mark := "ok"
				if !ok {
					mark = "MISS"
				}
				row = append(row, modelLocks[bestMeas].L.String(), modelLocks[bestPred].L.String(),
					fmt.Sprintf("%.0f%%", 100*util), mark)
				t.AddRow(row...)
			}
		}
		medPair := model.Median(pairErrs)
		medWait := model.Median(waitErrs)
		rank := 100 * float64(rankOK) / float64(max(rankN, 1))
		t.AddMetric(mc.Name+".fit_median_err", cal.MedianErr, "ratio")
		t.AddMetric(mc.Name+".val_median_pair_err_nonsat", medPair, "ratio")
		t.AddMetric(mc.Name+".val_median_wait_err_nonsat", medWait, "ratio")
		t.AddMetric(mc.Name+".rank_agreement", rank, "%")
		t.Note("%s: fit leftover %.0f%%; out-of-sample median rel err %.0f%% pair / %.0f%% wait over %d non-saturated cells; ranking correct at %d/%d points",
			mc.Name, 100*cal.MedianErr, 100*medPair, 100*medWait, len(pairErrs), rankOK, rankN)

		// The calibrated crossovers the controller would act on, including
		// the 256-processor extrapolation the simulator grid only samples.
		spin := model.Lock{Family: model.FamilySpin, CapUS: 35}
		queue := model.Lock{Family: model.FamilyQueue}
		cohort := model.Lock{Family: model.FamilyCohort}
		if p, ok := pr.Crossover(spin, queue, 25, 1, mach.Procs()); ok {
			t.AddMetric(mc.Name+".pred_cross_spin_queue", float64(p), "procs")
			t.Note("%s: predicted stable spin->queue crossover at p=%d (hold 25us)", mc.Name, p)
		}
		if p, ok := pr.Crossover(queue, cohort, 25, 1, mach.Procs()); ok {
			t.AddMetric(mc.Name+".pred_cross_queue_cohort", float64(p), "procs")
			t.Note("%s: predicted stable queue->cohort crossover at p=%d (hold 25us)", mc.Name, p)
		}
	}
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
