package trace

import (
	"slices"
	"testing"

	"hurricane/internal/sim"
)

// access is an EvAccess record of operation op from module src to a word
// of address-space index id homed on physical module dst.
func access(op string, src, dst, id int) sim.TraceEvent {
	return sim.TraceEvent{Kind: sim.EvAccess, Name: op, Proc: src, Src: src, Dst: dst,
		Arg: uint64(id)<<32 | 1}
}

// Region vectors are indexed by region id: ids first touched out of order
// each get their own vectors, loads count as reads and stores and atomics
// as writes, accesses to physical modules never create a vector, the
// physical matrix still counts region traffic at its home, and event
// counts are kept by kind.
func TestAggregateRegionVectors(t *testing.T) {
	agg := NewAggregate(16)
	agg.Event(access("load", 3, 5, 5)) // a physical module: no vector
	if len(agg.RegionReads) != 0 || len(agg.RegionWrites) != 0 {
		t.Fatalf("an access to module 5 created region vectors: %v %v", agg.RegionReads, agg.RegionWrites)
	}
	agg.Event(access("load", 1, 2, 21))
	agg.Event(access("store", 1, 2, 21))
	agg.Event(access("load", 7, 9, 17))
	agg.Event(access("swap", 4, 9, 17))
	agg.Event(access("cas", 4, 9, 17))
	agg.Event(access("load", 7, 9, 17))

	want := map[int][2][]int{ // id: reads, writes by src
		17: {{7, 7}, {4, 4}},
		21: {{1}, {1}},
	}
	for id, w := range want {
		for i, vecs := range []RegionVecs{agg.RegionReads, agg.RegionWrites} {
			got := vecs.Of(id)
			if len(got) != 16 {
				t.Fatalf("region %d vector %d has %d entries, want 16", id, i, len(got))
			}
			exp := make([]uint64, 16)
			for _, src := range w[i] {
				exp[src]++
			}
			if !slices.Equal(got, exp) {
				t.Errorf("region %d vector %d = %v, want %v", id, i, got, exp)
			}
		}
	}
	for id := -1; id < 40; id++ {
		if _, ok := want[id]; ok {
			continue
		}
		if agg.RegionReads.Of(id) != nil || agg.RegionWrites.Of(id) != nil {
			t.Errorf("id %d has a region vector, but no access addressed it as a region", id)
		}
	}
	if len(agg.RegionReads) != 22 || len(agg.RegionWrites) != 22 {
		t.Errorf("region indexes grew to %d and %d ids, want 22", len(agg.RegionReads), len(agg.RegionWrites))
	}
	if agg.Access[2][1] != 2 || agg.Access[9][4] != 2 || agg.Access[5][3] != 1 {
		t.Errorf("physical matrix lost region traffic: %v", agg.Access)
	}

	agg.Event(sim.TraceEvent{Kind: sim.EvIRQ, Src: -1, Dst: -1})
	agg.Event(sim.TraceEvent{Kind: sim.EventKind(99), Src: -1, Dst: -1}) // unknown: not counted
	wantCounts := [sim.NumEventKinds]uint64{sim.EvAccess: 7, sim.EvIRQ: 1}
	if agg.EventCount != wantCounts {
		t.Errorf("EventCount = %v, want %v", agg.EventCount, wantCounts)
	}
}
