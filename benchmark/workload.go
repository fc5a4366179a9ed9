package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
)

// size scales a workload: full for measurement, tiny for this package's
// tests.
type size int

const (
	full size = iota
	tiny
)

// workloadSpec is one named input set of the benchmark.
type workloadSpec struct {
	name, why string
	// tailPct is the percentile sim_tail_us reports: p99 of the large
	// latency samples, p90 of the suite's 141 published microsecond values
	// (a p99 of those would be a single experiment cell).
	tailPct float64
	// build makes the workload's configs from its seed — the config-build
	// part of set-up — and returns the plan its passes run.
	build func(seed uint64, sz size, baseline string) (plan, error)
}

// workloads are the benchmark's workloads, in run order.
var workloads = []workloadSpec{
	{name: "suite", tailPct: 90, build: buildSuite,
		why: "the 25 quick-suite experiments in-process at one job: what CI and researchers re-run; model calibration is most of it"},
	{name: "server-read", tailPct: 99, build: buildServer(false),
		why: "open-loop read-mostly server on HECTOR-16 under the full autonomics plane: kernel fault path, admission queue, replication"},
	{name: "server-write", tailPct: 99, build: buildServer(true),
		why: "the same server with 75% writes and tenants sharded off their data's home: migrations and replica write-updates"},
	{name: "lock-zoo", tailPct: 99, build: buildZoo,
		why: "closed-loop lock zoo at p=64 on NUMAchine-64: engine swap storms and hand-offs, no kernel, plane or model"},
	{name: "lp-engine", tailPct: 99, build: buildLP,
		why: "dense per-station lock loop on NUMAchine-256: the only workload on the parallel LP engine"},
}

func lookup(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plan runs a built workload. A pass with a nil *traced is untraced.
type plan interface {
	pass(t *traced) *passResult
}

// finisher is a plan with a check that runs once after the timed passes,
// outside wall_s.
type finisher interface {
	finish(ref *passResult, wall float64, t *traced) (attempted, failed int)
}

// passResult is what one pass publishes.
type passResult struct {
	// fingerprint renders every simulated result of the pass; two passes of
	// one seed must match byte for byte.
	fingerprint       string
	attempted, failed int
	// lat are the simulated latencies of the workload's unit operation in
	// microseconds.
	lat *stats.Dist
	// opsPerMS is the workload's simulated throughput.
	opsPerMS float64
	// note, when set, is reported with the results (a skipped check).
	note string
}

// waitRecorder wraps a lock and records each measured acquire's wait, in
// microseconds, in the acquiring processor's own slice: only that
// processor's logical process touches the slice, so LP workers record
// concurrently. measured decides from an acquire's start whether it counts.
type waitRecorder struct {
	locks.Lock
	measured func(start sim.Time) bool
	waits    [][]float64 // by processor ID
}

// Acquire implements locks.Lock.
func (w *waitRecorder) Acquire(p *sim.Proc) {
	t0 := p.Now()
	w.Lock.Acquire(p)
	if w.measured(t0) {
		w.waits[p.ID()] = append(w.waits[p.ID()], (p.Now() - t0).Microseconds())
	}
}

// poolWaits returns every processor's recorded waits as one distribution.
func poolWaits(waits [][]float64) *stats.Dist {
	d := &stats.Dist{}
	for _, w := range waits {
		for _, x := range w {
			d.Add(x)
		}
	}
	return d
}

// workloadResult is one workload's measurement, before the parent adds
// set-up time and memory.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	// RSSKB is the peak resident set at the end of the first pass: set-up
	// plus one pass. Later passes only add garbage-collector timing noise.
	RSSKB int64 `json:"rss_kb"`
	// ref and trace are the first pass and the traced pass's instruments,
	// kept in-process for the spans file and the tests.
	ref   *passResult
	trace *traced
}

// runWorkload runs whole untraced passes of a built plan — at least two,
// then more while the budget lasts — checks every pass against the first,
// and reports the end-to-end metrics it can measure in-process. wall_s is
// the fastest pass: host noise on a shared machine only ever adds time, and
// the minimum of a few passes is much steadier than their median. A
// non-nil between runs before each untraced pass and after the last,
// outside the passes and the budget. With layers set it then runs one
// traced pass and the layer probes and reports the per-layer metrics too.
func runWorkload(w *workloadSpec, p plan, seed uint64, budget time.Duration, layers bool, sz size, between func()) *workloadResult {
	res := &workloadResult{EndToEnd: map[string]float64{}}
	check := func(r, ref *passResult, what string) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.fingerprint != ref.fingerprint {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %s differs from the first pass", w.name, what))
		}
	}
	start := time.Now()
	var paused time.Duration
	pause := func() {
		if between != nil {
			t0 := time.Now()
			between()
			paused += time.Since(t0)
		}
	}
	var ref *passResult
	var walls []float64
	var events, elided uint64
	for len(walls) < 2 || time.Since(start)-paused < budget {
		pause()
		d0, e0 := sim.TotalEvents()
		t0 := time.Now()
		r := p.pass(nil)
		walls = append(walls, time.Since(t0).Seconds())
		if ref == nil {
			ref = r
			if r.note != "" {
				res.Notes = append(res.Notes, r.note)
			}
			d1, e1 := sim.TotalEvents()
			events, elided = (d1-d0)+(e1-e0), e1-e0
			var ru syscall.Rusage
			if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
				res.RSSKB = ru.Maxrss
			}
		}
		check(r, ref, fmt.Sprintf("untraced pass %d", len(walls)))
	}
	pause()
	wall := slices.Min(walls)
	var t *traced
	if layers {
		t = newTraced()
	}
	if f, ok := p.(finisher); ok {
		a, failed := f.finish(ref, wall, t)
		res.Attempted += a
		res.Failed += failed
	}
	res.ref = ref
	res.EndToEnd["wall_s"] = wall
	res.EndToEnd["sim_p50_us"] = ref.lat.Percentile(50)
	res.EndToEnd["sim_tail_us"] = ref.lat.Percentile(w.tailPct)
	res.EndToEnd["sim_ops_per_ms"] = ref.opsPerMS
	if !layers {
		return res
	}

	t0 := time.Now()
	r := p.pass(t)
	tracedWall := time.Since(t0).Seconds()
	check(r, ref, "traced pass")
	t.set("sim.events", float64(events))
	t.set("sim.events_per_s", ratio(float64(events), wall))
	t.set("sim.elided_frac", ratio(float64(elided), float64(events)))
	t.set("sim.p999_us", ref.lat.Percentile(99.9))
	t.set("sim.tail_n", float64(ref.lat.N()))
	t.set("trace.overhead_frac", tracedWall/wall-1)
	t.setMemory()
	t.setTicks(tracedWall)
	runProbes(t, seed, sz)
	res.Layer = map[string]float64{}
	for _, m := range perLayer {
		res.Layer[m.name] = t.layer[m.name]
	}
	res.trace = t
	return res
}
