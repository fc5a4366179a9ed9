package workload

import (
	"cmp"
	"slices"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// hector16Dist classifies module distances on HECTOR-16: four processors
// per station, one ring.
func hector16Dist(src, dst int) sim.DistClass { return sim.Classify(src, dst, 4, 0) }

// clusterOf4 maps a processor to its four-processor cluster.
func clusterOf4(proc int) int { return proc / 4 }

// placeData creates a tenant data region on mem with copies on the given
// modules, the primary first, and returns the wake rule's distance for it:
// each worker's distance class to the copy its loads read. No copies is no
// tenant data, a nil distance.
func placeData(mem *sim.Memory, copies []int) func(w int) sim.DistClass {
	if len(copies) == 0 {
		return nil
	}
	r := mem.NewRegion(copies[0])
	for _, to := range copies[1:] {
		mem.ReplicateRegion(nil, r, to)
	}
	return func(w int) sim.DistClass { return mem.Distance(w, mem.NearestCopy(r, w)) }
}

// TestNearestIdle table-tests the wake rule on HECTOR-16 with four-processor
// clusters, over tenant data placed by real replications. Without copies it
// is the newest-parked eligible worker; with copies it is the eligible
// worker nearest one, local before station before ring, ties going to the
// newest-parked; and it never leaves an affinized cluster.
func TestNearestIdle(t *testing.T) {
	mem := sim.NewMachine(machine.Hector16(1)).Mem
	cases := []struct {
		name   string
		idle   []int // oldest-parked first
		c      int
		copies []int
		want   int // index into idle, -1 for none
		dist   sim.DistClass
	}{
		{"no copies: newest-parked", []int{3, 7, 12}, -1, nil, 2, sim.DistLocal},
		{"no copies: newest-parked in the cluster", []int{5, 7, 12}, 1, nil, 1, sim.DistLocal},
		{"local beats newer station and ring", []int{8, 9, 0}, -1, []int{8}, 0, sim.DistLocal},
		{"station beats newer ring", []int{9, 0, 13}, -1, []int{8}, 0, sim.DistStation},
		{"station tie goes to the newest-parked", []int{6, 5, 12}, -1, []int{4}, 1, sim.DistStation},
		{"nearest of primary and replica", []int{13, 9, 3}, -1, []int{0, 8}, 2, sim.DistStation},
		{"replica local", []int{0, 1, 9}, -1, []int{0, 9}, 2, sim.DistLocal},
		{"affinized: a nearer worker outside the cluster is skipped", []int{4, 13, 12, 5}, 3, []int{4}, 2, sim.DistRing},
		{"affinized: nearest inside the cluster", []int{14, 4, 15, 12}, 3, []int{12}, 3, sim.DistLocal},
		{"no eligible worker", []int{0, 4}, 2, []int{8}, -1, 0},
		{"nobody idle", nil, -1, []int{8}, -1, 0},
	}
	for _, tc := range cases {
		j, d := nearestIdle(tc.idle, tc.c, clusterOf4, placeData(mem, tc.copies))
		if j != tc.want || (j >= 0 && d != tc.dist) {
			t.Errorf("%s: got index %d (%v), want %d (%v)", tc.name, j, d, tc.want, tc.dist)
		}
	}

	// Random idle lists against a brute-force reference over the copy
	// modules: the pick is eligible, no eligible worker is nearer, and no
	// nearer-or-equal one parked later.
	rng := sim.NewRNG(7)
	for trial := 0; trial < 2000; trial++ {
		perm := make([]int, 16)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			perm[i], perm[k] = perm[k], perm[i]
		}
		idle := perm[:rng.Intn(17)]
		c := rng.Intn(5) - 1
		var copies []int
		for n := rng.Intn(4); n > 0; n-- {
			copies = append(copies, rng.Intn(16))
		}
		near := func(w int) sim.DistClass {
			d := sim.DistLocal
			for i, mod := range copies {
				if dm := hector16Dist(w, mod); i == 0 || dm < d {
					d = dm
				}
			}
			return d
		}
		want := -1
		for j, w := range idle {
			if (c < 0 || clusterOf4(w) == c) && (want < 0 || near(w) <= near(idle[want])) {
				want = j
			}
		}
		j, d := nearestIdle(idle, c, clusterOf4, placeData(mem, copies))
		if j != want || (j >= 0 && d != near(idle[j])) {
			t.Fatalf("idle %v cluster %d copies %v: got %d (%v), want %d", idle, c, copies, j, d, want)
		}
	}
}

// requestSpans records the server's request spans.
type requestSpans []sim.TraceEvent

func (r *requestSpans) Event(e sim.TraceEvent) {
	if e.Kind == sim.EvSpan && e.Span == sim.SpanRequest {
		*r = append(*r, e)
	}
}

// TestServerWakesTheDataHolder runs one tenant with a data region and
// arrivals far enough apart that every worker is idle at each arrival (no
// two request spans overlap): every measured request must then be served on
// the processor whose module holds the data, and the dispatch counts must
// say so. The newest-parked rule serves each one on whichever worker
// parked last.
func TestServerWakesTheDataHolder(t *testing.T) {
	var spans requestSpans
	cfg := ServerConfig{
		Machine:         machine.Hector16(2),
		ClusterSize:     4,
		LockKind:        locks.KindH2MCS,
		Tracer:          &spans,
		Tenants:         1,
		Arrivals:        ArrivalSpec{MeanGap: sim.Micros(10_000), Horizon: sim.Micros(200_000)},
		Warmup:          sim.Micros(2000),
		TenantDataWords: 64,
	}
	r := ServerRun(cfg)
	holder := r.Sys.M.Mem.Home(r.Sys.K.MigratableSlots()[0].Region)

	if len(spans) < 10 {
		t.Fatalf("%d requests served, want at least 10", len(spans))
	}
	slices.SortFunc(spans, func(a, b sim.TraceEvent) int { return cmp.Compare(a.Start, b.Start) })
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("requests at %v and %v overlap: a worker was busy at an arrival", spans[i-1].Start, spans[i].Start)
		}
	}
	measured := uint64(0)
	for _, s := range spans {
		if s.Start < sim.Time(cfg.Warmup) {
			continue
		}
		measured++
		if s.Proc != holder {
			t.Errorf("request arriving at %v served on processor %d, not the data's module %d", s.Start, s.Proc, holder)
		}
	}
	want := [sim.NumDistClasses]uint64{sim.DistLocal: measured}
	if measured != r.Admitted || r.Dispatch != want {
		t.Errorf("dispatch counts %v for %d admitted requests, want %v", r.Dispatch, r.Admitted, want)
	}
}

// TestDequeue table-tests the dequeue rule on HECTOR-16's memory, whose
// tenant data regions come from real replications: a worker takes the
// oldest request whose replicated data has a copy on its own module, else
// the head, and the head once it has been passed over the limit; the pick
// moves to the front and the requests it skipped keep their order.
func TestDequeue(t *testing.T) {
	mem := sim.NewMachine(machine.Hector16(1)).Mem
	region := func(primary int, reps ...int) int {
		r := mem.NewRegion(primary)
		for _, to := range reps {
			mem.ReplicateRegion(nil, r, to)
		}
		return r
	}
	// Requests are indices into regions: each one's tenant data region.
	regions := []int{
		-1,              // 0: no tenant data
		region(8),       // 1: single copy on module 8
		region(0, 8),    // 2: copies on modules 0 and 8
		region(4, 12),   // 3: copies on modules 4 and 12
		region(1, 8, 9), // 4: copies on modules 1, 8 and 9
		region(5, 13),   // 5: copies on modules 5 and 13
	}
	dataOf := func(req int) int { return regions[req] }
	cases := []struct {
		name   string
		q      []int
		w      int
		passed int
		want   []int // q afterwards: the pick first
		ahead  bool
	}{
		{"nothing qualifies: the head", []int{0, 1, 3}, 8, 0, []int{0, 1, 3}, false},
		{"the first qualifying request, not a later one", []int{3, 0, 2, 4}, 8, 0, []int{2, 3, 0, 4}, true},
		{"a qualifying head is the head", []int{2, 4, 0}, 8, 3, []int{2, 4, 0}, false},
		{"single copy on the worker's module does not qualify", []int{0, 1, 4}, 8, 0, []int{4, 0, 1}, true},
		{"single copy alone: the head", []int{3, 1}, 8, 0, []int{3, 1}, false},
		{"a copy on the worker's station but not its module", []int{0, 3, 5}, 6, 0, []int{0, 3, 5}, false},
		{"the station copy is skipped for a local one", []int{0, 3, 5}, 13, 0, []int{5, 0, 3}, true},
		{"one bypass short of the limit", []int{0, 1, 3, 2}, 0, 15, []int{2, 0, 1, 3}, true},
		{"head passed over the limit: the head", []int{0, 1, 3, 2}, 0, 16, []int{0, 1, 3, 2}, false},
		{"skipped requests keep their order", []int{5, 3, 1, 0, 4, 2}, 9, 0, []int{4, 5, 3, 1, 0, 2}, true},
	}
	for _, tc := range cases {
		q := slices.Clone(tc.q)
		if ahead := dequeue(q, tc.w, tc.passed, 16, mem, dataOf); ahead != tc.ahead || !slices.Equal(q, tc.want) {
			t.Errorf("%s: queue %v -> %v (ahead %v), want %v (ahead %v)", tc.name, tc.q, q, ahead, tc.want, tc.ahead)
		}
	}

	// Random queues against a brute-force reference: the pick is the first
	// request with a replica set holding the worker's module, unless the head
	// has been passed over the limit, and the rest keep their order.
	rng := sim.NewRNG(11)
	var sets [][]int // each region's copy modules, primary first
	regions = regions[:0]
	for n := 0; n < 12; n++ {
		copies := []int{rng.Intn(16)}
		for r := rng.Intn(4); r > 0; r-- {
			copies = append(copies, rng.Intn(16))
		}
		sets = append(sets, copies)
		regions = append(regions, region(copies[0], copies[1:]...))
	}
	for trial := 0; trial < 2000; trial++ {
		q := make([]int, 1+rng.Intn(20))
		for i := range q {
			q[i] = rng.Intn(len(regions))
		}
		w, passed := rng.Intn(16), rng.Intn(20)
		qualifies := func(req int) bool {
			primary, reps := sets[req][0], sets[req][1:]
			replicated := slices.ContainsFunc(reps, func(r int) bool { return r != primary })
			return replicated && slices.Contains(sets[req], w)
		}
		pick := 0
		if j := slices.IndexFunc(q, qualifies); j > 0 && passed < 16 {
			pick = j
		}
		want := append([]int{q[pick]}, slices.Delete(slices.Clone(q), pick, pick+1)...)
		got := slices.Clone(q)
		if ahead := dequeue(got, w, passed, 16, mem, dataOf); ahead != (pick > 0) || !slices.Equal(got, want) {
			t.Fatalf("queue %v worker %d passed %d: got %v (ahead %v), want %v", q, w, passed, got, ahead, want)
		}
	}
}

// TestQueues drives the dispatcher's queue type: take hands out requests
// oldest first and counts consecutive bypasses of the head, nextQueue
// serves a worker's own cluster queue before the shared one (the last),
// and falls back to the shared queue, never another cluster's.
func TestQueues(t *testing.T) {
	mem := sim.NewMachine(machine.Hector16(1)).Mem
	local := mem.NewRegion(3)
	mem.ReplicateRegion(nil, local, 8)
	dataOf := func(req int) int {
		if req == 2 {
			return local
		}
		return -1
	}
	q := reqQueue{reqs: []int{0, 1, 2, 3}}
	for _, step := range []struct {
		w, req int
		ahead  bool
		passed int
	}{
		{8, 2, true, 1},  // worker 8 holds request 2's copy: ahead of the head
		{8, 0, false, 0}, // nothing else qualifies: the head, and the count resets
		{8, 1, false, 0},
		{3, 3, false, 0},
	} {
		req, ahead := q.take(step.w, 16, mem, dataOf)
		if req != step.req || ahead != step.ahead || q.passed != step.passed {
			t.Fatalf("take by worker %d = (%d, %v) passed %d, want (%d, %v) passed %d",
				step.w, req, ahead, q.passed, step.req, step.ahead, step.passed)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d requests left after four takes of four", q.len())
	}

	queues := make([]reqQueue, 5) // four clusters, then the shared queue
	if got := nextQueue(queues, 1); got != nil {
		t.Fatalf("all queues empty: nextQueue = %v, want nil", got)
	}
	queues[2].reqs = []int{7}
	if got := nextQueue(queues, 1); got != nil {
		t.Fatalf("only cluster 2's queue holds work: cluster 1 got %v, want nil", got)
	}
	queues[4].reqs = []int{5}
	if got := nextQueue(queues, 1); got != &queues[4] {
		t.Fatal("cluster 1's queue is empty: nextQueue did not pick the shared queue")
	}
	if got := nextQueue(queues, 2); got != &queues[2] {
		t.Fatal("cluster 2 holds work: nextQueue did not pick it before the shared queue")
	}
	queues[2].head = 1
	if got := nextQueue(queues, 2); got != &queues[4] {
		t.Fatal("cluster 2's queue is served out: nextQueue did not pick the shared queue")
	}
}
