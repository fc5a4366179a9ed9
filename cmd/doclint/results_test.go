package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestExcerpts runs the quoted-results check on a fixture: an excerpt that
// skips rows passes, and a digit edited, two rows swapped, a line taken
// from another table, an unknown title and a markdown table row each fail
// on their own line.
func TestExcerpts(t *testing.T) {
	dir := filepath.Join("testdata", "excerpts")
	doc, results := filepath.Join(dir, "EXPERIMENTS.md"), filepath.Join(dir, "results.txt")
	notIn := func(line, from, to, title string) string {
		return doc + ":" + line + ": not a line of " + results + ":" + from + "-" + to +
			" (== " + title + " ==) below the excerpt's previous line"
	}
	got := lintExcerpts(doc, results)
	want := []string{
		notIn("23", "9", "13", "Figure 7d: fault time us vs cluster size"),
		notIn("31", "1", "7", "Figure 7a: fault time us vs p"),
		notIn("38", "1", "7", "Figure 7a: fault time us vs p"),
		doc + `:44: "== Figure 7e: no such table ==" is not a table title of ` + results,
		doc + ":48: markdown table row: quote the run's lines from " + results + " in a ```results block",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant:\n%q", got, want)
	}
}
