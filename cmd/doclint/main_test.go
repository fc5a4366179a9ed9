package main

import "testing"

// GitHub keeps Unicode letters, marks and digits in a heading's anchor and
// drops punctuation and symbols, backticks included.
func TestSlugify(t *testing.T) {
	for h, want := range map[string]string{
		"Figure 5b — contention, hold = 25 µs":                                  "figure-5b--contention-hold--25-µs",
		"§4.1.1 — uncontended latency (lock word one ring hop away)":            "411--uncontended-latency-lock-word-one-ring-hop-away",
		"Tuned crossover — feedback-tuned lock vs every fixed choice (`tuned`)": "tuned-crossover--feedback-tuned-lock-vs-every-fixed-choice-tuned",
	} {
		if got := slugify(h); got != want {
			t.Errorf("slugify(%q) = %q, want %q", h, got, want)
		}
	}
}
