package workload

import (
	"math"
	"reflect"
	"testing"

	"hurricane/internal/sim"
)

// TestPoissonInterarrivalMean pins the base process: with no modulation,
// interarrival gaps are exponential with the configured mean, so the
// sample mean must land within a 4-sigma confidence bound (sigma = mean
// for the exponential), seeded and deterministic.
func TestPoissonInterarrivalMean(t *testing.T) {
	mean := sim.Micros(100)
	spec := ArrivalSpec{MeanGap: mean, Horizon: sim.Micros(2_000_000)}
	a := spec.Generate(7)
	n := len(a.Times)
	if n < 10000 {
		t.Fatalf("only %d arrivals over a 2s horizon at 100us mean gap", n)
	}
	sum := 0.0
	prev := sim.Time(0)
	for _, at := range a.Times {
		sum += float64(at - prev)
		prev = at
	}
	got := sum / float64(n)
	bound := 4 * float64(mean) / math.Sqrt(float64(n))
	if math.Abs(got-float64(mean)) > bound {
		t.Fatalf("mean interarrival %.1f cycles, want %d +- %.1f", got, mean, bound)
	}
	// All arrivals strictly inside the horizon, strictly increasing.
	for i, at := range a.Times {
		if at >= sim.Time(spec.Horizon) {
			t.Fatalf("arrival %d at %v past horizon", i, at)
		}
		if i > 0 && at <= a.Times[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
}

// TestZipfRankFrequencySlope fits a least-squares line to log(frequency)
// vs log(rank+1) over the top ranks of a large sample and requires the
// slope to sit near -s — the rank-frequency law the skewed tenant draw is
// supposed to follow.
func TestZipfRankFrequencySlope(t *testing.T) {
	const n, s = 64, 1.0
	z := NewZipf(n, s)
	r := sim.NewRNG(11)
	counts := make([]int, n)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	// Regress over the top 16 ranks, where counts are large enough that
	// sampling noise cannot bend the fit.
	var sx, sy, sxx, sxy float64
	const top = 16
	for rank := 0; rank < top; rank++ {
		x := math.Log(float64(rank + 1))
		y := math.Log(float64(counts[rank]) / draws)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (top*sxy - sx*sy) / (top*sxx - sx*sx)
	if slope < -1.15 || slope > -0.85 {
		t.Fatalf("rank-frequency slope %.3f, want -1.0 +- 0.15", slope)
	}
	// The sampler must match its own advertised weights on the head.
	for rank := 0; rank < 4; rank++ {
		got := float64(counts[rank]) / draws
		want := z.Weight(rank)
		if math.Abs(got-want) > 0.25*want {
			t.Fatalf("rank %d frequency %.4f, want %.4f +- 25%%", rank, got, want)
		}
	}
}

// TestMMPPDutyCycle pins the burst chain: the fraction of the horizon
// spent in the on state matches OnMean/(OnMean+OffMean), and the measured
// arrival rate while on is BurstFactor times the rate while off.
func TestMMPPDutyCycle(t *testing.T) {
	spec := ArrivalSpec{
		MeanGap:     sim.Micros(50),
		Horizon:     sim.Micros(4_000_000),
		BurstFactor: 4,
		OnMean:      sim.Micros(300),
		OffMean:     sim.Micros(700),
	}
	a := spec.Generate(13)
	total := float64(a.OnTime + a.OffTime)
	if got := float64(a.OnTime+a.OffTime) - float64(spec.Horizon); got != 0 {
		t.Fatalf("on+off time %v != horizon %v", sim.Time(total), spec.Horizon)
	}
	duty := float64(a.OnTime) / total
	want := float64(spec.OnMean) / float64(spec.OnMean+spec.OffMean)
	if math.Abs(duty-want) > 0.05 {
		t.Fatalf("on duty cycle %.3f, want %.3f +- 0.05", duty, want)
	}
	rateOn := float64(a.OnCount) / float64(a.OnTime)
	rateOff := float64(a.OffCount) / float64(a.OffTime)
	if ratio := rateOn / rateOff; math.Abs(ratio-spec.BurstFactor) > 0.5 {
		t.Fatalf("on/off rate ratio %.2f, want %.1f +- 0.5", ratio, spec.BurstFactor)
	}
}

// TestFlashCrowdAndRampShape checks the non-stationary shapes: the flash
// window's arrival density scales by FlashFactor, and a rising ramp puts
// more arrivals in the second half than the first.
func TestFlashCrowdAndRampShape(t *testing.T) {
	spec := ArrivalSpec{
		MeanGap:     sim.Micros(50),
		Horizon:     sim.Micros(2_000_000),
		FlashAt:     0.5,
		FlashFor:    0.1,
		FlashFactor: 3,
	}
	a := spec.Generate(17)
	inFlash, before := 0, 0
	fs := sim.Time(0.5 * float64(spec.Horizon))
	fe := sim.Time(0.6 * float64(spec.Horizon))
	for _, at := range a.Times {
		if at >= fs && at < fe {
			inFlash++
		}
		if at < fs {
			before++
		}
	}
	// Density: flash window is 1/5 the length of the pre-flash span but
	// 3x the rate, so expect inFlash ~ 0.6*before.
	ratio := float64(inFlash) / float64(before) * 5
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("flash-window density ratio %.2f, want ~3", ratio)
	}

	ramp := ArrivalSpec{
		MeanGap:  sim.Micros(50),
		Horizon:  sim.Micros(2_000_000),
		RampFrom: 0.5,
		RampTo:   1.5,
	}
	b := ramp.Generate(19)
	half := sim.Time(spec.Horizon / 2)
	first := 0
	for _, at := range b.Times {
		if at < half {
			first++
		}
	}
	second := len(b.Times) - first
	// Integrated rate: first half 0.75x, second half 1.25x of baseline.
	if r := float64(second) / float64(first); r < 1.5 || r > 1.85 {
		t.Fatalf("ramp second/first half ratio %.2f, want ~5/3", r)
	}
}

// TestArrivalsDeterministicAndSeedSensitive: the schedule is a pure
// function of the seed, and different seeds give different schedules.
func TestArrivalsDeterministicAndSeedSensitive(t *testing.T) {
	spec := ArrivalSpec{
		MeanGap:     sim.Micros(80),
		Horizon:     sim.Micros(100_000),
		BurstFactor: 3,
		OnMean:      sim.Micros(200),
		OffMean:     sim.Micros(400),
		FlashAt:     0.4, FlashFor: 0.2, FlashFactor: 2,
	}
	a, b := spec.Generate(3), spec.Generate(3)
	if len(a.Times) != len(b.Times) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a.Times), len(b.Times))
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	c := spec.Generate(4)
	if len(c.Times) == len(a.Times) && func() bool {
		for i := range a.Times {
			if a.Times[i] != c.Times[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// within maps a fuzzed float into [lo, hi]: NaN and values below lo go to
// lo, values above hi to hi.
func within(x, lo, hi float64) float64 {
	if !(x >= lo) {
		return lo
	}
	return math.Min(x, hi)
}

// FuzzArrivals checks the schedule invariants of Generate on bounded
// specs: mean gap 1-1000 us, horizon up to 20 ms, and burst factor, dwell
// means, ramp and flash window inside their valid ranges. Arrivals
// strictly increase inside [0, Horizon), the on/off tallies split the
// arrivals and the horizon, a spec without MMPP modulation has nothing on,
// and the same seed gives the same schedule. `make fuzz-smoke` runs it for
// five seconds; the checked-in corpus under testdata/fuzz (the server
// sweep's spec and plain Poisson) runs with every `go test`.
func FuzzArrivals(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, gapUS, horizonUS, burst, onUS, offUS, rampFrom, rampTo, flashAt, flashFor, flashFactor float64) {
		spec := ArrivalSpec{
			MeanGap:     sim.Micros(within(gapUS, 1, 1000)),
			Horizon:     sim.Micros(within(horizonUS, 0, 20_000)),
			BurstFactor: within(burst, 0, 4),
			OnMean:      sim.Micros(within(onUS, 0, 5000)),
			OffMean:     sim.Micros(within(offUS, 0, 5000)),
			RampFrom:    within(rampFrom, 0, 2),
			RampTo:      within(rampTo, 0, 2),
			FlashAt:     within(flashAt, 0, 1),
			FlashFor:    within(flashFor, 0, 1),
			FlashFactor: within(flashFactor, 0, 4),
		}
		a := spec.Generate(seed)
		for i, at := range a.Times {
			if at < 0 || at >= sim.Time(spec.Horizon) {
				t.Fatalf("%+v: arrival %d at %v outside [0, %v)", spec, i, at, spec.Horizon)
			}
			if i > 0 && at <= a.Times[i-1] {
				t.Fatalf("%+v: arrival %d at %v not after %v", spec, i, at, a.Times[i-1])
			}
		}
		if a.OnCount+a.OffCount != len(a.Times) {
			t.Fatalf("%+v: on %d + off %d arrivals, want %d", spec, a.OnCount, a.OffCount, len(a.Times))
		}
		if a.OnTime+a.OffTime != spec.Horizon {
			t.Fatalf("%+v: on %v + off %v, want the horizon %v", spec, a.OnTime, a.OffTime, spec.Horizon)
		}
		mmpp := spec.BurstFactor > 1 && spec.OnMean > 0 && spec.OffMean > 0
		if !mmpp && (a.OnCount != 0 || a.OnTime != 0) {
			t.Fatalf("%+v: no MMPP, yet %d arrivals and %v on", spec, a.OnCount, a.OnTime)
		}
		if b := spec.Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: seed %d gave two schedules", spec, seed)
		}
	})
}
