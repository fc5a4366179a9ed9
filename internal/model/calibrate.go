package model

import (
	"math"
	"sort"
)

// Observation is one measured grid cell the calibration fits against:
// a (lock, point) pair with the simulator's measured per-round overhead
// and mean acquire latency.
type Observation struct {
	// Lock and Point identify the cell.
	Lock Lock
	// Point is the workload operating point the measurement ran at.
	Point Point
	// PairUS is the measured serialized per-round overhead C, in the
	// machine-wide sense Prediction.PairUS predicts. Derive it from
	// workload.LockStressResult.PairUS (which is per per-processor round)
	// as (measured+H)/p - H. AcquireUS is the measured mean acquire
	// latency, directly comparable to LockStressResult.AcquireUS.
	PairUS, AcquireUS float64
}

// Calibration holds fitted per-lock multiplicative residuals. The closed
// forms capture how cost scales with p, hold, and distance; the residuals
// absorb the constants the derivation idealizes away (instruction-path
// details, queueing interactions, and — dominating the spin family — the
// unfairness of backoff, which makes the measured mean wait fall below the
// FIFO (p-1)(H+C) bound). Residuals are keyed by Lock.Key, so spin locks
// with different caps calibrate independently.
type Calibration struct {
	// Pair maps Lock.Key to the overhead residual: measured pair overhead
	// over predicted, geometric-mean over the fit grid.
	Pair map[string]float64
	// Wait maps Lock.Key to the wait residual applied after the pair
	// residual: measured mean acquire over the FIFO-bound prediction.
	Wait map[string]float64
	// MedianErr is the median relative wait error remaining on the fit
	// grid after applying the residuals — the model's own uncertainty
	// estimate, which the model sweep publishes as fit_median_err.
	MedianErr float64
}

// PairResidual returns the overhead residual for a lock (1 when unfitted).
func (c Calibration) PairResidual(l Lock) float64 { return residual(c.Pair, l) }

// WaitResidual returns the wait residual for a lock (1 when unfitted).
func (c Calibration) WaitResidual(l Lock) float64 { return residual(c.Wait, l) }

func residual(m map[string]float64, l Lock) float64 {
	if m == nil {
		return 1
	}
	if r, ok := m[l.Key()]; ok && r > 0 {
		return r
	}
	return 1
}

// Calibrate fits residuals from a measured grid. The fit is a per-key
// geometric mean of measured/predicted ratios — the least-squares solution
// in log space for a single multiplicative constant. Cells with p < 2 or
// non-positive measurements are skipped (the p=1 pair overhead can go
// slightly negative in the simulator because the hold-work model
// undershoots the nominal hold). The returned MedianErr summarizes the
// leftover wait error on the fit grid itself; an independent validation
// grid (exp.ModelSweep) reports the out-of-sample error.
func (m Machine) Calibrate(obs []Observation) Calibration {
	cal := Calibration{
		Pair: make(map[string]float64),
		Wait: make(map[string]float64),
	}
	logSum := make(map[string]float64)
	logN := make(map[string]int)
	for _, o := range obs {
		if o.Point.Procs < 2 || o.PairUS <= 0 {
			continue
		}
		raw := m.overhead(o.Lock, o.Point)
		if raw <= 0 {
			continue
		}
		key := o.Lock.Key()
		logSum[key] += math.Log(o.PairUS / raw)
		logN[key]++
	}
	for key, s := range logSum {
		cal.Pair[key] = math.Exp(s / float64(logN[key]))
	}
	clear(logSum)
	clear(logN)
	for _, o := range obs {
		if o.Point.Procs < 2 || o.AcquireUS <= 0 {
			continue
		}
		c := m.overhead(o.Lock, o.Point) * cal.PairResidual(o.Lock)
		fifo := float64(o.Point.Procs-1) * (o.Point.HoldUS + c)
		if fifo <= 0 {
			continue
		}
		key := o.Lock.Key()
		logSum[key] += math.Log(o.AcquireUS / fifo)
		logN[key]++
	}
	for key, s := range logSum {
		cal.Wait[key] = math.Exp(s / float64(logN[key]))
	}
	// Leftover error on the fit grid, with the residuals applied.
	var errs []float64
	pr := Predictor{M: m, Cal: cal}
	for _, o := range obs {
		if o.Point.Procs < 2 || o.AcquireUS <= 0 {
			continue
		}
		p := pr.Predict(o.Lock, o.Point)
		errs = append(errs, math.Abs(p.WaitUS-o.AcquireUS)/o.AcquireUS)
	}
	cal.MedianErr = Median(errs)
	return cal
}

// Median returns the median of a slice (0 when empty). Sorted copy, so the
// input order — and therefore parallel-harness merge order — is untouched.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
