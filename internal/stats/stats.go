// Package stats provides the small set of statistics the experiments
// report: means, extrema, percentiles and threshold counts over latency
// samples. Experiments are modest in size, so distributions keep raw
// samples and report exact order statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist accumulates a sample distribution.
type Dist struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (d *Dist) Add(x float64) {
	d.samples = append(d.samples, x)
	d.sorted = false
}

// N reports the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean reports the sample mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.samples {
		s += x
	}
	return s / float64(len(d.samples))
}

// Max reports the largest sample (0 if empty).
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[len(d.samples)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) by
// nearest-rank.
func (d *Dist) Percentile(p float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.sort()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.samples[rank-1]
}

// FracAbove reports the fraction of samples strictly greater than x.
func (d *Dist) FracAbove(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	c := 0
	for _, s := range d.samples {
		if s > x {
			c++
		}
	}
	return float64(c) / float64(len(d.samples))
}

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// String summarizes the distribution for logs.
func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		d.N(), d.Mean(), d.Percentile(50), d.Percentile(95), d.Max())
}

// Tail is the latency summary the server experiments report: order
// statistics through the extreme tail, with the mean carried alongside but
// never alone — the paper's §3.2 starvation discussion is exactly the case
// where a lock design looks fine on the mean and terrible at p999.
type Tail struct {
	N                         int
	Mean, P50, P95, P99, P999 float64
	Max                       float64
}

// Tail computes the tail summary of the distribution.
func (d *Dist) Tail() Tail {
	return Tail{
		N:    d.N(),
		Mean: d.Mean(),
		P50:  d.Percentile(50),
		P95:  d.Percentile(95),
		P99:  d.Percentile(99),
		P999: d.Percentile(99.9),
		Max:  d.Max(),
	}
}

// String renders the tail summary on one line.
func (t Tail) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f p999=%.1f max=%.0f",
		t.N, t.Mean, t.P50, t.P95, t.P99, t.P999, t.Max)
}
