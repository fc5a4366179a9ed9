// Arrival generators for the open-loop server workloads: Poisson and
// MMPP (Markov-modulated on/off) arrival processes with optional
// non-stationary shapes (a diurnal-style linear ramp and a flash-crowd
// window), and a Zipf sampler for skewed tenant selection. Everything is
// seeded and pure — schedules are materialized up front from a standalone
// sim.RNG, so a run's event stream is a function of its seed alone and the
// same schedule can be replayed against any machine or lock.
package workload

import (
	"math"
	"sort"

	"hurricane/internal/sim"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, by inverting a precomputed CDF. s=0 is uniform; s=1 is
// the classic hot-key web distribution where the top few tenants carry
// most of the traffic.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Weight reports rank's probability mass.
func (z *Zipf) Weight(rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// Sample draws a rank.
func (z *Zipf) Sample(r *sim.RNG) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// ArrivalSpec describes an open-loop arrival process over a finite
// horizon. The base process is Poisson with the given mean interarrival
// gap; the optional modulations multiply its instantaneous rate.
type ArrivalSpec struct {
	// MeanGap is the baseline mean interarrival time (the Poisson rate is
	// 1/MeanGap before modulation).
	MeanGap sim.Duration
	// Horizon is the arrival window: no arrivals at or past it.
	Horizon sim.Duration

	// MMPP on/off burst modulation: while the modulating chain is "on" the
	// rate is multiplied by BurstFactor (>1). Dwell times in each state are
	// exponential with means OnMean/OffMean. Zero means disable (plain
	// Poisson).
	BurstFactor     float64
	OnMean, OffMean sim.Duration

	// RampFrom/RampTo, when nonzero, scale the rate linearly from RampFrom
	// at t=0 to RampTo at t=Horizon — the diurnal shape.
	RampFrom, RampTo float64

	// FlashAt/FlashFor bound a flash-crowd window as fractions of the
	// horizon during which the rate is multiplied by FlashFactor.
	FlashAt, FlashFor, FlashFactor float64
}

// rate returns the instantaneous rate multiplier at time t (excluding the
// MMPP chain, which Generate tracks separately).
func (s ArrivalSpec) shape(t sim.Time) float64 {
	f := 1.0
	if s.RampFrom != 0 || s.RampTo != 0 {
		frac := float64(t) / float64(s.Horizon)
		f *= s.RampFrom + (s.RampTo-s.RampFrom)*frac
	}
	if s.FlashFactor > 1 {
		start := sim.Time(s.FlashAt * float64(s.Horizon))
		end := sim.Time((s.FlashAt + s.FlashFor) * float64(s.Horizon))
		if t >= start && t < end {
			f *= s.FlashFactor
		}
	}
	return f
}

// maxShape is the supremum of shape() over the horizon, for thinning.
func (s ArrivalSpec) maxShape() float64 {
	f := 1.0
	if s.RampFrom != 0 || s.RampTo != 0 {
		f = math.Max(s.RampFrom, s.RampTo)
	}
	if s.FlashFactor > 1 {
		f *= s.FlashFactor
	}
	return f
}

// Arrivals is one materialized schedule plus the burst-chain tallies the
// duty-cycle property tests check.
type Arrivals struct {
	// Times are the arrival instants, strictly within [0, Horizon).
	Times []sim.Time
	// OnTime/OffTime split the horizon by the MMPP chain's state;
	// OnCount/OffCount split the arrivals the same way. Without burst
	// modulation everything lands in the Off (baseline) buckets.
	OnTime, OffTime   sim.Duration
	OnCount, OffCount int
}

// exponential draws an exponentially distributed duration with the given
// mean (at least 1 cycle, so chains always advance).
func exponential(r *sim.RNG, mean float64) sim.Duration {
	d := sim.Duration(-mean * math.Log(1-r.Float64()))
	if d < 1 {
		d = 1
	}
	return d
}

// Generate materializes the schedule for a seed, by Lewis-Shedler
// thinning: candidate arrivals are drawn from a homogeneous Poisson
// process at the peak rate and each is accepted with probability equal to
// the instantaneous rate fraction. The MMPP chain's switch times are drawn
// from an independent stream first, so the chain's trajectory does not
// depend on how many candidates the thinning draws.
func (s ArrivalSpec) Generate(seed uint64) Arrivals {
	var a Arrivals
	mmpp := s.BurstFactor > 1 && s.OnMean > 0 && s.OffMean > 0

	// The modulating chain: alternating off/on dwell times covering the
	// horizon, starting in the baseline (off) state.
	var switches []sim.Time // state flips at each entry; even index -> on
	if mmpp {
		cr := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		t := sim.Time(0)
		on := false
		for t < sim.Time(s.Horizon) {
			mean := float64(s.OffMean)
			if on {
				mean = float64(s.OnMean)
			}
			d := exponential(cr, mean)
			end := t + sim.Time(d)
			if end > sim.Time(s.Horizon) {
				end = sim.Time(s.Horizon)
			}
			if on {
				a.OnTime += sim.Duration(end - t)
			} else {
				a.OffTime += sim.Duration(end - t)
			}
			t = end
			if t < sim.Time(s.Horizon) {
				switches = append(switches, t)
			}
			on = !on
		}
	} else {
		a.OffTime = s.Horizon
	}
	stateAt := func(t sim.Time, idx *int) bool {
		for *idx < len(switches) && switches[*idx] <= t {
			*idx++
		}
		return *idx%2 == 1 // odd number of flips passed -> on
	}

	peak := s.maxShape()
	if mmpp {
		peak *= s.BurstFactor
	}
	baseRate := 1 / float64(s.MeanGap)
	r := sim.NewRNG(seed)
	t := sim.Time(0)
	idx := 0
	for {
		t += sim.Time(exponential(r, 1/(baseRate*peak)))
		if t >= sim.Time(s.Horizon) {
			break
		}
		rate := s.shape(t)
		on := stateAt(t, &idx)
		if mmpp && on {
			rate *= s.BurstFactor
		}
		if r.Float64()*peak < rate {
			a.Times = append(a.Times, t)
			if on {
				a.OnCount++
			} else {
				a.OffCount++
			}
		}
	}
	return a
}
