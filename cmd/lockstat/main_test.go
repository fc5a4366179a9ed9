package main

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		machine        string
		procs, home    int
		hold           float64
		rounds, warmup int
		ms             int
		ok             bool
	}{
		{"hector16", 16, 0, 25, 300, -1, 20, true},
		{"hector16", 1, 15, 0, 1, 0, 20, true},
		{"numachine64", 64, 63, 1e6, 4, 3, 20, true},
		{"hector16", 0, 0, 25, 300, -1, 20, false},
		{"hector16", 17, 0, 25, 300, -1, 20, false},
		{"hector16", 16, 16, 25, 300, -1, 20, false},
		{"hector16", 16, 99, 25, 300, -1, 20, false},
		{"hector16", 16, -1, 25, 300, -1, 20, false},
		{"numachine64", 64, 64, 25, 300, -1, 20, false},
		{"hector16", 2, 0, -5, 300, -1, 20, false},
		{"hector16", 2, 0, math.NaN(), 300, -1, 20, false},
		{"hector16", 2, 0, math.Inf(1), 300, -1, 20, false},
		{"hector16", 2, 0, 2e6, 300, -1, 20, false},
		{"hector16", 16, 0, 25, 0, -1, 20, false},
		{"hector16", 16, 0, 25, -3, -1, 20, false},
		{"hector16", 16, 0, 25, 300, -2, 20, false},
		{"hector16", 16, 0, 25, 300, 300, 20, false},
		{"hector16", 16, 0, 25, 300, -1, 0, false},
		{"hector16", 16, 0, 25, 300, -1, -5, false},
	}
	for _, c := range cases {
		err := validate(c.machine, machines[c.machine], c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms)
		if (err == nil) != c.ok {
			t.Errorf("validate(%s procs=%d home=%d hold=%g rounds=%d warmup=%d ms=%d) = %v, want ok=%v",
				c.machine, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms, err, c.ok)
		}
	}
}
