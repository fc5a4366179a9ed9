package main

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		machine, run   string
		procs, home    int
		hold           float64
		rounds, warmup int
		ms             int
		ok             bool
	}{
		{"hector16", "stress", 16, 0, 25, 300, -1, 20, true},
		{"hector16", "stress", 1, 15, 0, 1, 0, 20, true},
		{"numachine64", "stress", 64, 63, 1e6, 4, 3, 20, true},
		{"hector16", "stress", 0, 0, 25, 300, -1, 20, false},
		{"hector16", "stress", 17, 0, 25, 300, -1, 20, false},
		{"hector16", "stress", 16, 16, 25, 300, -1, 20, false},
		{"hector16", "stress", 16, 99, 25, 300, -1, 20, false},
		{"hector16", "stress", 16, -1, 25, 300, -1, 20, false},
		{"numachine64", "stress", 64, 64, 25, 300, -1, 20, false},
		{"hector16", "stress", 2, 0, -5, 300, -1, 20, false},
		{"hector16", "stress", 2, 0, math.NaN(), 300, -1, 20, false},
		{"hector16", "stress", 2, 0, math.Inf(1), 300, -1, 20, false},
		{"hector16", "stress", 2, 0, 2e6, 300, -1, 20, false},
		{"hector16", "stress", 16, 0, 25, 0, -1, 20, false},
		{"hector16", "stress", 16, 0, 25, -3, -1, 20, false},
		{"hector16", "stress", 16, 0, 25, 300, -2, 20, false},
		{"hector16", "stress", 16, 0, 25, 300, 300, 20, false},
		{"hector16", "stress", 16, 0, 25, 300, -1, 0, false},
		{"hector16", "stress", 16, 0, 25, 300, -1, -5, false},
		{"hector16", "server", 16, 0, 25, 300, -1, 20, true},
		{"numachine64", "server", 64, 0, 25, 300, -1, 20, true},
		{"hector16", "bogus", 16, 0, 25, 300, -1, 20, false},
		{"numachine256", "stress", 256, 255, 25, 10, -1, 20, true},
		{"numachine256", "stress", 257, 0, 25, 10, -1, 20, false},
		{"numachine256", "server", 16, 0, 25, 300, -1, 20, false},
		{"numachine1024", "stress", 1024, 1023, 25, 10, -1, 20, true},
		{"numachine1024", "stress", 1025, 0, 25, 10, -1, 20, false},
		{"numachine1024", "server", 16, 0, 25, 300, -1, 20, false},
	}
	for _, c := range cases {
		err := validate(c.machine, machines[c.machine], c.run, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms)
		if (err == nil) != c.ok {
			t.Errorf("validate(%s -run %s procs=%d home=%d hold=%g rounds=%d warmup=%d ms=%d) = %v, want ok=%v",
				c.machine, c.run, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms, err, c.ok)
		}
	}
}
