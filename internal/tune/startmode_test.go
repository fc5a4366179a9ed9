package tune

import (
	"testing"

	"hurricane/internal/sim"
)

// StartMode warm-starts the controller anywhere on the mode chain; the
// zero value keeps the historical optimistic spin start byte for byte.
func TestStartModeWarmStart(t *testing.T) {
	if NewController(Params{}, 1).Mode() != ModeSpin {
		t.Fatal("zero-value StartMode did not start in ModeSpin")
	}
	c := NewController(Params{StartMode: ModeQueue}, 1)
	if c.Mode() != ModeQueue {
		t.Fatalf("StartMode ModeQueue started in %v", c.Mode())
	}
	if c.Switches() != 0 {
		t.Fatalf("warm start counted %d switches, want 0", c.Switches())
	}
	// The controller still walks DOWN from a warm start: sustained idle
	// windows must retreat queue -> spin exactly as they would after a
	// genuine escalation.
	for i := 0; i < 64 && c.Mode() == ModeQueue; i++ {
		c.Observe(Sample{Now: sim.Time(i+1) * sim.Time(sim.Micros(100))})
	}
	if c.Mode() != ModeSpin {
		t.Fatalf("warm-started controller never retreated under idle, stuck in %v", c.Mode())
	}
	if c.Switches() != 1 {
		t.Fatalf("retreat counted %d switches, want 1", c.Switches())
	}
}
