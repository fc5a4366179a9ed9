package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Max() != 0 || d.Percentile(0) != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty dist not all-zero")
	}
	for _, x := range []float64{4, 1, 3, 2, 5} {
		d.Add(x)
	}
	if d.N() != 5 || d.Mean() != 3 || d.Max() != 5 {
		t.Fatalf("basics wrong: %s", d.String())
	}
	if d.Percentile(50) != 3 {
		t.Fatalf("median = %v", d.Percentile(50))
	}
	if d.Percentile(100) != 5 || d.Percentile(0) != 1 {
		t.Fatal("extreme percentiles wrong")
	}
	if got := d.FracAbove(3); got != 0.4 {
		t.Fatalf("FracAbove(3) = %v, want 0.4", got)
	}
}

func TestDistAddAfterSortedQuery(t *testing.T) {
	var d Dist
	d.Add(10)
	_ = d.Max() // forces sort
	d.Add(1)
	if d.Percentile(0) != 1 || d.Max() != 10 {
		t.Fatal("Add after query broke ordering")
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(xs []float64) bool {
		var d Dist
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			d.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if d.N() == 0 {
			return true
		}
		// Monotone in p, bounded by min/max.
		last := d.Percentile(0)
		for p := 10.0; p <= 100; p += 10 {
			v := d.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return d.Percentile(0) == lo && d.Percentile(100) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
