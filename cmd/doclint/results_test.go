package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestTablesAgainstResults runs the quoted-results check on a fixture:
// only table-row decimals missing from the run are flagged, and derived
// cells, derived columns, host-timing tables and code fences are skipped.
func TestTablesAgainstResults(t *testing.T) {
	dir := filepath.Join("testdata", "tables")
	doc, results := filepath.Join(dir, "EXPERIMENTS.md"), filepath.Join(dir, "results.txt")
	got := lintTables(doc, results)
	want := []string{
		doc + ":8: 1075.0 is not in " + results, // missing from the run
		doc + ":8: 2.32 is not in " + results,   // a ratio left unmarked
		doc + ":14: 12.34 is not in " + results, // only the marked column is skipped
		doc + ":28: 4.1 is not in " + results,   // a section number is no decimal, 4.1 is
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant:\n%q", got, want)
	}
}

func TestDecimals(t *testing.T) {
	for s, want := range map[string][]string{
		"1184.5 µs, 2.55×":  {"1184.5", "2.55"},
		"§4.1.1 and 12.":    nil,
		"p999 .5 0.6. 3.0s": {"0.6", "3.0"},
		"[1.061, 1.066]":    {"1.061", "1.066"},
	} {
		if got := decimals(s); !slices.Equal(got, want) {
			t.Errorf("decimals(%q) = %q, want %q", s, got, want)
		}
	}
}
