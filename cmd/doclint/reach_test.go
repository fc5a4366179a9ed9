package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestReachability runs the check on a two-module fixture whose
// identifiers each cover one rule.
func TestReachability(t *testing.T) {
	got := reachability(mustLoad(t))
	has := func(s string) bool {
		for _, p := range got {
			if strings.Contains(p, s) {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		what    string
		flagged bool
	}{
		{"func Used", false},
		{"func TestOnly", true}, // a test is not a caller
		{"func Unused", true},
		{"func BySecond", false}, // a second module is a caller
		{"type Shape", false},
		{"func NewShape", false},
		{"method Shape.String", false}, // fmt.Stringer reaches it
		{"method Shape.Area", true},
		{"func Kept", false},    // keep with a reason
		{"func KeptBare", true}, // keep without a reason exempts nothing
		{"func helper", false},  // unexported, called in its package
		{"func unused", true},
		{"func testOnly", true},
		{"method Shape.size", false}, // sizer reaches it
	} {
		if f := has(" " + c.what + " has no non-test caller"); f != c.flagged {
			t.Errorf("%s: flagged=%v, want %v", c.what, f, c.flagged)
		}
	}
	if !has(keepDirective + " needs a reason") {
		t.Errorf("a keep directive without a reason was accepted")
	}
	if len(got) != 7 {
		t.Errorf("%d problems, want 7:\n%s", len(got), strings.Join(got, "\n"))
	}
}

// mustLoad type-checks the two-module fixture.
func mustLoad(t *testing.T) *loader {
	t.Helper()
	l, errs := load(filepath.Join("testdata", "reach"))
	if l == nil {
		t.Fatalf("fixture does not type-check:\n%s", strings.Join(errs, "\n"))
	}
	return l
}
