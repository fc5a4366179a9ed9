package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hurricane/internal/core"
	"hurricane/internal/exp"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		machine, run   string
		auto, trace    bool
		procs, home    int
		hold           float64
		rounds, warmup int
		ms             int
		size, pages    int
		wl             string
		ok             bool
	}{
		{"hector16", "stress", false, false, 16, 0, 25, 300, -1, 20, 4, 4, "independent", true},
		{"hector16", "stress", false, false, 1, 15, 0, 1, 0, 20, 4, 4, "independent", true},
		{"numachine64", "stress", false, false, 64, 63, 1e6, 4, 3, 20, 4, 4, "independent", true},
		{"hector16", "stress", false, false, 0, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 17, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 16, 25, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 99, 25, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, -1, 25, 300, -1, 20, 4, 4, "independent", false},
		{"numachine64", "stress", false, false, 64, 64, 25, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 2, 0, -5, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 2, 0, math.NaN(), 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 2, 0, math.Inf(1), 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 2, 0, 2e6, 300, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, 0, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, -3, -1, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, 300, -2, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, 300, 300, 20, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, 300, -1, 0, 4, 4, "independent", false},
		{"hector16", "stress", false, false, 16, 0, 25, 300, -1, -5, 4, 4, "independent", false},
		{"hector16", "server", false, false, 16, 0, 25, 300, -1, 20, 4, 4, "independent", true},
		{"numachine64", "server", false, false, 64, 0, 25, 300, -1, 20, 4, 4, "independent", true},
		{"hector16", "bogus", false, false, 16, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		{"numachine256", "stress", false, false, 256, 255, 25, 10, -1, 20, 4, 4, "independent", true},
		{"numachine256", "stress", false, false, 257, 0, 25, 10, -1, 20, 4, 4, "independent", false},
		{"numachine256", "server", false, false, 16, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		{"numachine1024", "stress", false, false, 1024, 1023, 25, 10, -1, 20, 4, 4, "independent", true},
		{"numachine1024", "stress", false, false, 1025, 0, 25, 10, -1, 20, 4, 4, "independent", false},
		{"numachine1024", "server", false, false, 16, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		// A horizon inside the cell's 2 ms warm-up measures nothing.
		{"hector16", "server", false, false, 16, 0, 25, 300, -1, 2, 4, 4, "independent", false},
		{"hector16", "server", true, false, 16, 0, 25, 300, -1, 2, 4, 4, "independent", false},
		{"hector16", "server", false, false, 16, 0, 25, 300, -1, 3, 4, 4, "independent", true},
		{"hector16", "server", true, false, 16, 0, 25, 300, -1, 3, 4, 4, "independent", true},
		{"numachine64", "server", true, false, 64, 0, 25, 300, -1, 20, 4, 4, "independent", false},
		// -run faults: the size must divide the machine's processor count.
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 4, 4, "independent", true},
		{"hector16", "faults", false, false, 1, 0, 25, 1, -1, 20, 16, 1, "shared", true},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 1, 4, "shared", true},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 3, 4, "independent", false},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 0, 4, "independent", false},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 32, 4, "independent", false},
		{"hector16", "faults", false, false, 99, 0, 25, 20, -1, 20, 4, 4, "independent", false},
		{"hector16", "faults", false, false, 17, 0, 25, 20, -1, 20, 4, 4, "independent", false},
		{"hector16", "faults", false, false, 0, 0, 25, 20, -1, 20, 4, 4, "independent", false},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 4, 0, "independent", false},
		{"hector16", "faults", false, false, 16, 0, 25, 0, -1, 20, 4, 4, "independent", false},
		{"hector16", "faults", false, false, 16, 0, 25, 20, -1, 20, 4, 4, "bogus", false},
		{"numachine64", "faults", false, false, 64, 0, 25, 20, -1, 20, 8, 4, "shared", true},
		{"numachine64", "faults", false, false, 64, 0, 25, 20, -1, 20, 48, 4, "independent", false},
		// -trace: stress and faults mode only.
		{"hector16", "stress", false, true, 4, 12, 25, 20, -1, 20, 4, 4, "independent", true},
		{"hector16", "faults", true, true, 4, 0, 25, 8, -1, 20, 16, 4, "independent", true},
		{"hector16", "server", false, true, 16, 0, 25, 300, -1, 3, 4, 4, "independent", false},
		{"hector16", "server", true, true, 16, 0, 25, 300, -1, 3, 4, 4, "independent", false},
	}
	for _, c := range cases {
		err := validate(c.machine, machines[c.machine](1), c.run, c.wl, c.auto, c.trace, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms, c.size, c.pages)
		if (err == nil) != c.ok {
			t.Errorf("validate(%s -run %s autonomic=%v trace=%v procs=%d home=%d hold=%g rounds=%d warmup=%d ms=%d size=%d pages=%d workload=%q) = %v, want ok=%v",
				c.machine, c.run, c.auto, c.trace, c.procs, c.home, c.hold, c.rounds, c.warmup, c.ms, c.size, c.pages, c.wl, err, c.ok)
		}
	}
}

// TestServerRunsTheSweepCell holds -run server to the sweeps it quotes: at
// one short horizon, the p999 and goodput it prints for a cell are the
// server sweep's metrics for that cell, and with -autonomic the autonomic
// sweep's combined row.
func TestServerRunsTheSweepCell(t *testing.T) {
	const seed, ms = 1, 4
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

// TestServerDispatchLine holds the dispatch and dequeue lines to the run's
// own counts: the autonomic cell, whose tenants have data regions, prints
// the counts its ServerRun reports (some wake-ups local to a copy at 40 ms,
// where workers go idle, and some requests taken ahead of the head), the
// dequeue line right after the dispatch line, and the server sweep's cell,
// whose tenants have none, prints neither line.
func TestServerDispatchLine(t *testing.T) {
	const seed, ms = 1, 40
	cell, err := serverCell("hector16", locks.KindTuned, seed, ms, true, true)
	if err != nil {
		t.Fatal(err)
	}
	r := workload.ServerRun(cell.Config)
	d := r.Dispatch
	if d[sim.DistLocal] == 0 || r.TakenAhead == 0 {
		t.Fatalf("dispatch %v, %d taken ahead: no wake-up local to a copy, or no request taken ahead", d, r.TakenAhead)
	}
	want := fmt.Sprintf("  dispatch: %d measured wake-ups by distance to the tenant data's nearest copy: local %d, station %d, ring %d, global %d\n",
		d[0]+d[1]+d[2]+d[3], d[0], d[1], d[2], d[3]) +
		fmt.Sprintf("  dequeue: %d measured requests taken ahead of their queue's head by a worker holding a copy of their replicated data\n", r.TakenAhead)
	var b strings.Builder
	if err := runServer(&b, "hector16", locks.KindTuned, seed, ms, true, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), want) {
		t.Errorf("autonomic run lacks %q:\n%s", want, b.String())
	}
	b.Reset()
	if err := runServer(&b, "hector16", locks.KindH2MCS, seed, 4, false, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "dispatch:") || strings.Contains(b.String(), "dequeue:") {
		t.Errorf("a run without tenant data printed a dispatch or dequeue line:\n%s", b.String())
	}
}

// metrics indexes a table's published metrics by name.
func metrics(tb *exp.Table) map[string]float64 {
	m := map[string]float64{}
	for _, x := range tb.Metrics {
		m[x.Name] = x.Value
	}
	return m
}

// TestFaultsRunsThePublishedCells holds -run faults to the figures it
// quotes: at the quick suite's rounds and seed, the fault mean it prints
// for a cell is the published Figure 7 metric of that cell, and with
// -migrate it prints placement_online's HECTOR-16 online row (fault mean,
// daemon moves, charged migration time).
func TestFaultsRunsThePublishedCells(t *testing.T) {
	const seed = 1
	fig7a := metrics(exp.Figure7a(seed, 8))
	fig7c := metrics(exp.Figure7c(seed, 8))
	fig7d := metrics(exp.Figure7d(seed, 4, 3))
	online := metrics(exp.PlacementOnline(seed, 24))
	mean := func(v float64) string { return fmt.Sprintf("fault latency (us): mean %.1f  ", v) }
	for _, c := range []struct {
		name                string
		kind                locks.Kind
		wl                  string
		size, procs, rounds int
		migrate             bool
		want                []string
	}{
		{"fig7a spin.fault_p16", locks.KindSpin, "independent", 16, 16, 8, false,
			[]string{mean(fig7a["spin.fault_p16"])}},
		{"fig7c fault_cs4", locks.KindH2MCS, "independent", 4, 16, 8, false,
			[]string{mean(fig7c["fault_cs4"])}},
		{"fig7d fault_cs1", locks.KindH2MCS, "shared", 1, 16, 3, false,
			[]string{mean(fig7d["fault_cs1"])}},
		{"placement_online hector16.online", locks.KindH2MCS, "independent", 16, 4, 24, true,
			[]string{
				mean(online["hector16.online.fault_mean"]),
				fmt.Sprintf("migrations: %.0f (", online["hector16.online.moves"]),
				fmt.Sprintf(", %.1fus charged)", online["hector16.online.migration_overhead"]),
			}},
	} {
		mc := machine.Hector16(seed)
		_, agg, tr := sinks("", c.migrate, mc.Stations*mc.ProcsPerStation)
		var b strings.Builder
		runFaults(&b, core.Config{Machine: mc, ClusterSize: c.size, LockKind: c.kind, Tracer: tr, Migratable: c.migrate},
			c.wl, c.procs, 4, c.rounds, false, false, agg)
		for _, want := range c.want {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s: report lacks the published %q:\n%s", c.name, want, b.String())
			}
		}
	}
}

// TestFaultsControllerLine holds -run faults -autonomic's controller line
// to what it counts: three tuned kernel locks per cluster, across the
// run's clusters, traced or not (a trace wraps each memory-manager lock in
// telemetry, which must not hide its controller).
func TestFaultsControllerLine(t *testing.T) {
	for _, size := range []int{16, 4} {
		var lines [2]string
		for i, traced := range []bool{false, true} {
			mc := machine.Hector16(1)
			_, agg, tr := sinks("", true, mc.Stations*mc.ProcsPerStation)
			var b strings.Builder
			runFaults(&b, core.Config{Machine: mc, ClusterSize: size, LockKind: locks.KindTuned, Tracer: tr, Migratable: true},
				"independent", 4, 4, 8, traced, true, agg)
			for _, l := range strings.Split(b.String(), "\n") {
				if strings.Contains(l, "kernel lock controllers:") {
					lines[i] = l
				}
			}
			clusters := 16 / size
			if want := fmt.Sprintf("kernel lock controllers: %d across %d cluster(s), ", 3*clusters, clusters); !strings.Contains(lines[i], want) {
				t.Errorf("-size %d traced=%v: controller line %q lacks %q", size, traced, lines[i], want)
			}
		}
		if lines[0] != lines[1] {
			t.Errorf("-size %d: a trace changed the controller line:\n%s\n%s", size, lines[0], lines[1])
		}
	}
}
