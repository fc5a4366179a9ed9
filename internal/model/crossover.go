package model

// Crossover finds the stable crossover point from lock a to lock b: the
// smallest processor count in [lo, hi] from which b stays strictly
// cheaper than a (on predicted per-round overhead) all the way to hi —
// the analytic version of the Figure 5b crossover the tuner otherwise
// discovers by search. The boolean is false when b is not cheaper at hi.
//
// Two details of the definition matter. Strictness: families that
// degenerate to the same protocol in a regime (cohort and CNA within one
// station) predict equal costs there, and a tie is no reason to switch.
// Stability: near-tied families can trade the lead by fractions of a
// microsecond at low contention, so "first point where b wins" would fire
// on noise-scale leads that immediately reverse; the regime boundary a
// controller should act on is where b's advantage persists as contention
// grows. The solver scans down from hi for the boundary; model_test
// checks it against a brute-force evaluation of the definition.
func (pr Predictor) Crossover(a, b Lock, holdUS float64, lo, hi int) (int, bool) {
	if lo < 1 {
		lo = 1
	}
	if hi > pr.M.Procs() {
		hi = pr.M.Procs()
	}
	if lo > hi {
		return 0, false
	}
	beats := func(p int) bool {
		pt := Point{Procs: p, HoldUS: holdUS}
		return pr.Predict(b, pt).PairUS < pr.Predict(a, pt).PairUS
	}
	if !beats(hi) {
		return 0, false
	}
	p := hi
	for p > lo && beats(p-1) {
		p--
	}
	return p, true
}
