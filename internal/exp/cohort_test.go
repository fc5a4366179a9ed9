package exp

import (
	"sync"
	"testing"
)

// metric looks up an exported metric by name.
func metric(t *testing.T, tb *Table, name string) float64 {
	t.Helper()
	for _, m := range tb.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not exported", name)
	return 0
}

// cohortSweep10 is the quick-scale cohort sweep both cohort tests read; it
// runs once per test binary.
var cohortSweep10 = sync.OnceValue(func() *Table { return CohortSweep(1, 10) })

// TestCohortSweepAcceptance pins the issue's acceptance criteria at quick
// scale: on NUMAchine-64 at p=64 the hierarchical locks must batch grants
// by station (station-local hand-off fraction at least twice H2-MCS's),
// and at every contention level the tuned lock must be within 5% of the
// best fixed lock on at least one of the two standard views (mean acquire
// latency or per-round elapsed time — see the metric comment in
// CohortSweep for why the views trade against each other).
func TestCohortSweepAcceptance(t *testing.T) {
	tb := cohortSweep10()

	mcs := metric(t, tb, "numachine64.h2mcs_local_frac")
	for _, name := range []string{"numachine64.cohort_local_frac", "numachine64.cna_local_frac"} {
		if v := metric(t, tb, name); v < 2*mcs {
			t.Errorf("%s = %.3f, want >= 2x H2-MCS's %.3f", name, v, mcs)
		}
	}
	if v := metric(t, tb, "numachine64.tuned_worst_minview_ratio"); v > 1.05 {
		t.Errorf("numachine64.tuned_worst_minview_ratio = %.3f, want <= 1.05", v)
	}
}

// TestCohortSweepBatchKnob checks the batch-limit study's direction: a
// larger local-pass budget must raise the station-local fraction (fewer
// global transfers) without costing total throughput, and the B+1
// starvation bound must keep every processor progressing even at the
// largest budget.
func TestCohortSweepBatchKnob(t *testing.T) {
	tb := cohortSweep10()
	lo := metric(t, tb, "numachine64.batch1_local_frac")
	hi := metric(t, tb, "numachine64.batch64_local_frac")
	if hi <= lo {
		t.Errorf("local frac did not rise with the batch limit: batch1 %.3f vs batch64 %.3f", lo, hi)
	}
	if tot1, tot64 := metric(t, tb, "numachine64.batch1_total_rounds"), metric(t, tb, "numachine64.batch64_total_rounds"); tot64 < tot1 {
		t.Errorf("throughput fell with the batch limit: batch1 %.0f vs batch64 %.0f rounds", tot1, tot64)
	}
	for _, name := range []string{"numachine64.batch1_min_rounds", "numachine64.batch8_min_rounds", "numachine64.batch64_min_rounds"} {
		if v := metric(t, tb, name); v < 1 {
			t.Errorf("%s = %.0f: a processor starved inside the window", name, v)
		}
	}
}
