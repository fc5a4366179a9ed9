package a

// Knobs is the unset-fields check's fixture: each field's comment says
// whether the check must flag it.
type Knobs struct {
	// Lit is set by main's literal: not flagged.
	Lit int
	// TestSet is set only by a test: flagged.
	TestSet int
	// Never is read and never set: flagged.
	Never int
	// Defaulted is set only when zero, to its default: flagged.
	Defaulted int
	// Count is set only through a pointer method: not flagged.
	Count Counter
	// Kept is never set but says why it stays: not flagged.
	Kept int //doclint:keep the fixture's reason
}

// Counter counts through a pointer method.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Sum reads every field of k.
func (k Knobs) Sum() int {
	if k.Defaulted == 0 {
		k.Defaulted = 4
	}
	k.Count.Inc()
	return k.Lit + k.TestSet + k.Never + k.Defaulted + k.Count.n + k.Kept
}
