package main

import (
	"strings"
	"testing"
)

// TestUnsetFields runs the fifth check on the fixture's Knobs, whose
// fields each cover one rule.
func TestUnsetFields(t *testing.T) {
	got := unsetFields(mustLoad(t))
	for _, c := range []struct {
		field   string
		flagged bool
	}{
		{"Knobs.Lit", false},      // a keyed literal sets it
		{"Knobs.TestSet", true},   // a test is not a setter
		{"Knobs.Never", true},     // read, never set
		{"Knobs.Defaulted", true}, // only its zero-guarded default
		{"Knobs.Count", false},    // a pointer method sets it
		{"Knobs.Kept", false},     // keep with a reason
		{"Counter.n", false},      // ++ sets it
	} {
		flagged := false
		for _, p := range got {
			flagged = flagged || strings.Contains(p, " field "+c.field+" is read but never set")
		}
		if flagged != c.flagged {
			t.Errorf("%s: flagged=%v, want %v", c.field, flagged, c.flagged)
		}
	}
	if len(got) != 3 {
		t.Errorf("%d problems, want 3:\n%s", len(got), strings.Join(got, "\n"))
	}
}
