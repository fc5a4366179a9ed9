package model

import (
	"math"
	"testing"

	"hurricane/internal/sim"
)

// The reference machines of every model test: the paper's HECTOR and the
// §5.3 NUMAchine sketch, built from the same configs the experiments use.
func hector16() Machine {
	return FromConfig(sim.Config{Stations: 4, ProcsPerStation: 4})
}

func numachine64() Machine {
	lat := sim.DefaultLatency()
	lat.Local, lat.Station, lat.Ring = 20, 60, 90
	lat.ModuleService, lat.AtomicExtra, lat.IPI = 12, 6, 60
	return FromConfig(sim.Config{Stations: 8, ProcsPerStation: 8, Lat: lat})
}

func numachine256() Machine {
	lat := sim.DefaultLatency()
	lat.Local, lat.Station, lat.Ring, lat.Ring2 = 20, 60, 90, 150
	lat.ModuleService, lat.AtomicExtra, lat.IPI = 12, 6, 60
	return FromConfig(sim.Config{Stations: 32, ProcsPerStation: 8, StationsPerRing: 4, Lat: lat})
}

var testLocks = []Lock{
	{Family: FamilySpin, CapUS: 35},
	{Family: FamilySpin, CapUS: 2000},
	{Family: FamilyQueue},
	{Family: FamilyCohort},
	{Family: FamilyCNA},
}

// Predicted wait must be nondecreasing in the contender count for every
// family: adding a contender can never shorten anyone's expected wait.
func TestWaitMonotoneInProcs(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64(), numachine256()} {
		pr := Predictor{M: m}
		for _, l := range testLocks {
			for _, hold := range []float64{0, 5, 25, 100} {
				prev := -1.0
				for p := 1; p <= m.Procs(); p++ {
					w := pr.Predict(l, Point{Procs: p, HoldUS: hold}).WaitUS
					if w < prev-1e-9 {
						t.Errorf("%s machine=%dx%d hold=%g: wait(p=%d)=%.3f < wait(p=%d)=%.3f",
							l, m.Stations, m.ProcsPerStation, hold, p, w, p-1, prev)
					}
					prev = w
				}
			}
		}
	}
}

// Predicted wait must be nondecreasing in the hold time: holding longer
// can never drain the queue faster.
func TestWaitMonotoneInHold(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64()} {
		pr := Predictor{M: m}
		for _, l := range testLocks {
			for _, p := range []int{1, 2, 7, m.Procs()} {
				prev := -1.0
				for hold := 0.0; hold <= 200; hold += 2.5 {
					w := pr.Predict(l, Point{Procs: p, HoldUS: hold}).WaitUS
					if w < prev-1e-9 {
						t.Errorf("%s p=%d: wait(hold=%g)=%.3f < wait(hold=%g)=%.3f",
							l, p, hold, w, hold-2.5, prev)
					}
					prev = w
				}
			}
		}
	}
}

// Crossover must agree exactly with a brute-force evaluation of its
// definition — the smallest p from which b stays strictly cheaper than a
// through the top of the range — for every ordered family pair on all
// three reference machines.
func TestCrossoverAgreesWithBruteForce(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64(), numachine256()} {
		pr := Predictor{M: m}
		for _, hold := range []float64{5, 25, 60} {
			for _, a := range testLocks {
				for _, b := range testLocks {
					if a == b {
						continue
					}
					got, gotOK := pr.Crossover(a, b, hold, 1, m.Procs())
					// Brute force: evaluate the predicate at every p, then
					// find the start of the trailing all-true suffix.
					want, wantOK := 0, false
					for p := m.Procs(); p >= 1; p-- {
						pt := Point{Procs: p, HoldUS: hold}
						if !(pr.Predict(b, pt).PairUS < pr.Predict(a, pt).PairUS) {
							break
						}
						want, wantOK = p, true
					}
					if got != want || gotOK != wantOK {
						t.Errorf("machine=%dx%d hold=%g %s->%s: Crossover=%d,%v brute=%d,%v",
							m.Stations, m.ProcsPerStation, hold, a, b, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// Calibration must drive the fit-grid residual error to (near) zero when
// the observations come from the model itself scaled by per-lock
// constants — the identifiability sanity check.
func TestCalibrateRecoversResiduals(t *testing.T) {
	m := hector16()
	truth := map[string]float64{"spin:35": 2.0, "queue": 1.5, "cohort:16": 0.8}
	var obs []Observation
	for _, l := range []Lock{{Family: FamilySpin, CapUS: 35}, {Family: FamilyQueue}, {Family: FamilyCohort}} {
		for _, p := range []int{2, 4, 8, 16} {
			pt := Point{Procs: p, HoldUS: 25}
			c := m.overhead(l, pt) * truth[l.Key()]
			obs = append(obs, Observation{
				Lock: l, Point: pt,
				PairUS:    c,
				AcquireUS: float64(p-1) * (25 + c),
			})
		}
	}
	cal := m.Calibrate(obs)
	for key, want := range truth {
		if got := cal.Pair[key]; math.Abs(got-want) > 1e-6 {
			t.Errorf("pair residual %s: got %.4f want %.4f", key, got, want)
		}
		if got := cal.Wait[key]; math.Abs(got-1) > 1e-6 {
			t.Errorf("wait residual %s: got %.4f want 1", key, got)
		}
	}
	if cal.MedianErr > 1e-6 {
		t.Errorf("MedianErr = %g on a perfectly fittable grid", cal.MedianErr)
	}
}

// FromConfig must apply the simulator's defaulting rules.
func TestFromConfigDefaults(t *testing.T) {
	m := FromConfig(sim.Config{})
	if m.Stations != 4 || m.ProcsPerStation != 4 {
		t.Fatalf("default topology = %dx%d, want 4x4", m.Stations, m.ProcsPerStation)
	}
	if m.LocalUS != 10.0/sim.CyclesPerMicrosecond {
		t.Errorf("LocalUS = %g, want %g", m.LocalUS, 10.0/sim.CyclesPerMicrosecond)
	}
	h := FromConfig(sim.Config{Stations: 32, ProcsPerStation: 8, StationsPerRing: 4})
	if h.Ring2US != 2*h.RingUS {
		t.Errorf("hierarchy Ring2US = %g, want 2x RingUS = %g", h.Ring2US, 2*h.RingUS)
	}
}
