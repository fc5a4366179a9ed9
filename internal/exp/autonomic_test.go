package exp

import (
	"testing"

	"hurricane/internal/workload"
)

// TestAutonomicDequeueActsOnReplicas runs the quick autonomic cell (15 ms,
// seed 1), where no worker is ever idle at an arrival, so the dispatcher's
// only choice is which queued request a freed worker takes. The combined
// row replicates its read-mostly tenants' data and takes some measured
// requests ahead of their queue's head; the migrate-only row never
// replicates, so it takes none.
func TestAutonomicDequeueActsOnReplicas(t *testing.T) {
	for _, row := range autonomicRows {
		if row.name != "combined" && row.name != "migrate" {
			continue
		}
		r := workload.ServerRun(autonomicCell(1, row, 15).Config)
		switch {
		case row.name == "combined" && r.TakenAhead == 0:
			t.Errorf("combined: no measured request taken ahead of its queue's head (%d replications)", r.KStats.Replications)
		case row.name == "migrate" && r.TakenAhead != 0:
			t.Errorf("migrate: %d measured requests taken ahead of the head without a replica", r.TakenAhead)
		}
	}
}
