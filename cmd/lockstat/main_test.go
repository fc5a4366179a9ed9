package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hurricane/internal/exp"
	"hurricane/internal/locks"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		machine, run   string
		auto           bool
		procs, home    int
		hold           float64
		rounds, warmup int
		ms             int
		ok             bool
	}{
		{"hector16", "stress", false, 16, 0, 25, 300, -1, 20, true},
		{"hector16", "stress", false, 1, 15, 0, 1, 0, 20, true},
		{"numachine64", "stress", false, 64, 63, 1e6, 4, 3, 20, true},
		{"hector16", "stress", false, 0, 0, 25, 300, -1, 20, false},
		{"hector16", "stress", false, 17, 0, 25, 300, -1, 20, false},
		{"hector16", "stress", false, 16, 16, 25, 300, -1, 20, false},
		{"hector16", "stress", false, 16, 99, 25, 300, -1, 20, false},
		{"hector16", "stress", false, 16, -1, 25, 300, -1, 20, false},
		{"numachine64", "stress", false, 64, 64, 25, 300, -1, 20, false},
		{"hector16", "stress", false, 2, 0, -5, 300, -1, 20, false},
		{"hector16", "stress", false, 2, 0, math.NaN(), 300, -1, 20, false},
		{"hector16", "stress", false, 2, 0, math.Inf(1), 300, -1, 20, false},
		{"hector16", "stress", false, 2, 0, 2e6, 300, -1, 20, false},
		{"hector16", "stress", false, 16, 0, 25, 0, -1, 20, false},
		{"hector16", "stress", false, 16, 0, 25, -3, -1, 20, false},
		{"hector16", "stress", false, 16, 0, 25, 300, -2, 20, false},
		{"hector16", "stress", false, 16, 0, 25, 300, 300, 20, false},
		{"hector16", "stress", false, 16, 0, 25, 300, -1, 0, false},
		{"hector16", "stress", false, 16, 0, 25, 300, -1, -5, false},
		{"hector16", "server", false, 16, 0, 25, 300, -1, 20, true},
		{"numachine64", "server", false, 64, 0, 25, 300, -1, 20, true},
		{"hector16", "bogus", false, 16, 0, 25, 300, -1, 20, false},
		{"numachine256", "stress", false, 256, 255, 25, 10, -1, 20, true},
		{"numachine256", "stress", false, 257, 0, 25, 10, -1, 20, false},
		{"numachine256", "server", false, 16, 0, 25, 300, -1, 20, false},
		{"numachine1024", "stress", false, 1024, 1023, 25, 10, -1, 20, true},
		{"numachine1024", "stress", false, 1025, 0, 25, 10, -1, 20, false},
		{"numachine1024", "server", false, 16, 0, 25, 300, -1, 20, false},
		// A horizon inside the cell's 2 ms warm-up measures nothing.
		{"hector16", "server", false, 16, 0, 25, 300, -1, 2, false},
		{"hector16", "server", true, 16, 0, 25, 300, -1, 2, false},
		{"hector16", "server", false, 16, 0, 25, 300, -1, 3, true},
		{"hector16", "server", true, 16, 0, 25, 300, -1, 3, true},
		{"numachine64", "server", true, 64, 0, 25, 300, -1, 20, false},
	}
	for _, c := range cases {
		err := validate(c.machine, machines[c.machine](1), c.run, c.auto, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms)
		if (err == nil) != c.ok {
			t.Errorf("validate(%s -run %s autonomic=%v procs=%d home=%d hold=%g rounds=%d warmup=%d ms=%d) = %v, want ok=%v",
				c.machine, c.run, c.auto, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms, err, c.ok)
		}
	}
}

// TestServerRunsTheSweepCell holds -run server to the sweeps it quotes: at
// one short horizon, the p999 and goodput it prints for a cell are the
// server sweep's metrics for that cell, and with -autonomic the autonomic
// sweep's combined row.
func TestServerRunsTheSweepCell(t *testing.T) {
	const seed, ms = 1, 4
	metrics := func(tb *exp.Table) map[string]float64 {
		m := map[string]float64{}
		for _, x := range tb.Metrics {
			m[x.Name] = x.Value
		}
		return m
	}
	server := metrics(exp.ServerSweep(seed, ms))
	autonomic := metrics(exp.AutonomicSweep(seed, ms))
	for _, c := range []struct {
		machine       string
		kind          locks.Kind
		migrate, auto bool
		want          map[string]float64
		prefix        string
	}{
		{"hector16", locks.KindH2MCS, false, false, server, "hector16.H2-MCS"},
		{"hector16", locks.KindTuned, true, false, server, "hector16.Tuned+mig"},
		{"numachine64", locks.KindSpin2ms, false, false, server, "numachine64.Spin-2ms"},
		{"hector16", locks.KindTuned, true, true, autonomic, "hector16.combined"},
	} {
		var b strings.Builder
		if err := runServer(&b, c.machine, c.kind, seed, ms, c.migrate, c.auto); err != nil {
			t.Fatalf("%s: %v", c.prefix, err)
		}
		// The run's summary is its second and third lines; the per-tenant
		// tails follow.
		lines := strings.SplitN(b.String(), "\n", 4)
		summary := strings.Join(lines[1:3], "\n")
		for _, want := range []string{
			fmt.Sprintf(" p999=%.1f ", c.want[c.prefix+".p999"]),
			fmt.Sprintf("  goodput %.0f r/s", c.want[c.prefix+".goodput"]),
		} {
			if !strings.Contains(summary, want) {
				t.Errorf("%s: summary lacks the sweep's %q:\n%s", c.prefix, want, summary)
			}
		}
	}
	if err := runServer(io.Discard, "numachine64", locks.KindTuned, seed, ms, true, true); err == nil {
		t.Error("-autonomic ran on numachine64, where the autonomic sweep has no cell")
	}
}
