package main

import (
	"slices"
	"sort"
	"strings"
	"time"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
)

// traced holds one traced pass's instruments: the benchmark's host spans
// around each call into a layer, memory-access totals folded online from
// every machine's EvAccess events, memory-resource totals read after each
// machine run, autonomics-policy tick timings, and the per-layer values the
// workload reports. Untraced passes hold a nil *traced, on which every
// method is a no-op, so the two passes run the same code.
type traced struct {
	origin time.Time
	spans  []hostSpan
	open   []int // indices of the open spans, innermost last

	access [sim.NumDistClasses]struct{ n, cycles uint64 }
	mem    memTotals
	ticks  map[string]*tickTotals // by autonomic.Policy name
	layer  map[string]float64
	// split is the server nominal rung's request split (nil elsewhere).
	split *splitter
}

// tickMetrics maps each autonomics policy's Name to its per-layer prefix.
var tickMetrics = map[string]string{"tune": "tune", "migrate": "placement", "replicate": "autonomic.replicator"}

// hostSpan is one benchmark-side span around a call into a layer, in host
// nanoseconds since the traced pass began.
type hostSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// memTotals accumulates memory-system resource counters over the machines
// a traced pass runs.
type memTotals struct {
	ringBusy, ringSpan       float64 // busy and window cycles of every ring resource that saw traffic
	moduleBusy, moduleQueued float64
	moduleUtilMax            float64
	replicaUpdates           uint64
}

type tickTotals struct {
	n  int
	ns int64
}

func newTraced() *traced {
	return &traced{origin: time.Now(), ticks: map[string]*tickTotals{}, layer: map[string]float64{}}
}

// span opens a host span under the innermost open one and returns the
// function that closes it.
func (t *traced) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, hostSpan{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = time.Since(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// set records a per-layer value.
func (t *traced) set(name string, v float64) {
	if t != nil {
		t.layer[name] = v
	}
}

// tracer returns the sim.Tracer to install on one machine: it forwards
// every event to next (the program's own tracer, nil if none), folds
// memory accesses into t, and feeds spans to split when it is non-nil.
// Untraced, it is next itself.
func (t *traced) tracer(next sim.Tracer, split *splitter) sim.Tracer {
	if t == nil {
		return next
	}
	return &simTracer{t: t, next: next, split: split}
}

type simTracer struct {
	t     *traced
	next  sim.Tracer
	split *splitter
}

// Event implements sim.Tracer.
func (s *simTracer) Event(ev sim.TraceEvent) {
	if s.next != nil {
		s.next.Event(ev)
	}
	switch ev.Kind {
	case sim.EvAccess:
		a := &s.t.access[ev.Dist]
		a.n++
		a.cycles += uint64(ev.End - ev.Start)
	case sim.EvSpan:
		if s.split != nil {
			s.split.span(ev)
		}
	}
}

// readMemory folds one finished machine's memory resources, whose current
// accounting window opened at since, into the totals.
func (t *traced) readMemory(m *sim.Memory, since, until sim.Time) {
	if t == nil || until <= since {
		return
	}
	span := float64(until - since)
	m.Resources(func(r *sim.Resource) {
		switch {
		case strings.HasPrefix(r.Name, "module"):
			t.mem.moduleBusy += float64(r.Busy)
			t.mem.moduleQueued += float64(r.Queued)
			t.mem.moduleUtilMax = max(t.mem.moduleUtilMax, r.Utilization(since, until))
		case strings.HasPrefix(r.Name, "ring") && r.Requests > 0:
			t.mem.ringBusy += float64(r.Busy)
			t.mem.ringSpan += span
		}
	})
	t.mem.replicaUpdates += m.ReplicaUpdates
}

// policy wraps an autonomics policy so each Tick is timed on the host.
func (t *traced) policy(p autonomic.Policy) autonomic.Policy {
	if t == nil {
		return p
	}
	tot := t.ticks[p.Name()]
	if tot == nil {
		tot = &tickTotals{}
		t.ticks[p.Name()] = tot
	}
	return timedPolicy{Policy: p, tot: tot}
}

type timedPolicy struct {
	autonomic.Policy
	tot *tickTotals
}

// Tick implements autonomic.Policy.
func (p timedPolicy) Tick(now sim.Time) {
	t0 := time.Now()
	p.Policy.Tick(now)
	p.tot.ns += time.Since(t0).Nanoseconds()
	p.tot.n++
}

// setTicks reports each policy's share of the traced pass's host time.
func (t *traced) setTicks(wall float64) {
	for name, tot := range t.ticks {
		t.set(tickMetrics[name]+".tick_frac", ratio(float64(tot.ns)/1e9, wall))
	}
}

// setMemory reports the memory layer from the folded totals.
func (t *traced) setMemory() {
	var cycles uint64
	for _, a := range t.access {
		cycles += a.cycles
	}
	for c, a := range t.access {
		name := "mem." + sim.DistClass(c).String()
		t.set(name+".accesses", float64(a.n))
		t.set(name+".stall_frac", ratio(float64(a.cycles), float64(cycles)))
	}
	t.set("mem.ring.util", ratio(t.mem.ringBusy, t.mem.ringSpan))
	t.set("mem.module.util_max", t.mem.moduleUtilMax)
	t.set("mem.module.queue_frac", ratio(t.mem.moduleQueued, t.mem.moduleQueued+t.mem.moduleBusy))
	t.set("mem.replica_updates", float64(t.mem.replicaUpdates))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitter cuts every measured server request's sojourn at its serving
// processor's spans: arrival to fault start (admission queue), to the
// first region-lookup start (trap entry, address space, gate and mm-lock
// wait), to fault end (fault body), to unmap start (tenant-data touch), to
// unmap end (unmap), to request end (fork/message/destroy churn). A
// request's fault, lock sections and unmap all run on the processor that
// ends it, and one processor's spans arrive in end order, so the cuts are
// monotone and the parts sum exactly to the sojourn.
type splitter struct {
	warmup sim.Time
	marks  map[int]*procMarks
	reqs   []splitRequest
	// bad counts measured requests whose cuts were missing or out of order.
	bad int
}

type procMarks struct {
	region, f0, f1, u0, u1           sim.Time
	haveRegion, haveFault, haveUnmap bool
	rpcCalls                         int
	rpcCycles                        uint64
}

// splitRequest is one measured request's sojourn split, in cycles.
type splitRequest struct {
	Proc      int             `json:"proc"`
	Tenant    uint64          `json:"tenant"`
	Arrival   sim.Time        `json:"arrival_cycles"`
	Parts     [6]sim.Duration `json:"parts_cycles"` // in splitParts order
	RPCCalls  int             `json:"rpc_calls"`
	RPCCycles uint64          `json:"rpc_cycles"`
}

// Sojourn is the request's arrival-to-completion time in cycles.
func (r splitRequest) Sojourn() sim.Duration {
	var s sim.Duration
	for _, p := range r.Parts {
		s += p
	}
	return s
}

func newSplitter(warmup sim.Duration) *splitter {
	return &splitter{warmup: sim.Time(warmup), marks: map[int]*procMarks{}}
}

func (s *splitter) span(ev sim.TraceEvent) {
	m := s.marks[ev.Proc]
	if m == nil {
		m = &procMarks{}
		s.marks[ev.Proc] = m
	}
	switch ev.Span {
	case sim.SpanRegionSection:
		if !m.haveRegion {
			m.region, m.haveRegion = ev.Start, true
		}
	case sim.SpanFault:
		m.f0, m.f1, m.haveFault = ev.Start, ev.End, true
	case sim.SpanUnmap:
		m.u0, m.u1, m.haveUnmap = ev.Start, ev.End, true
	case sim.SpanRPC:
		m.rpcCalls++
		m.rpcCycles += uint64(ev.End - ev.Start)
	case sim.SpanRequest:
		if ev.Start >= s.warmup {
			cuts := []sim.Time{ev.Start, m.f0, m.region, m.f1, m.u0, m.u1, ev.End}
			if !m.haveRegion || !m.haveFault || !m.haveUnmap || !slices.IsSorted(cuts) {
				s.bad++
			} else {
				r := splitRequest{Proc: ev.Proc, Tenant: ev.Arg, Arrival: ev.Start, RPCCalls: m.rpcCalls, RPCCycles: m.rpcCycles}
				for i := range r.Parts {
					r.Parts[i] = cuts[i+1] - cuts[i]
				}
				s.reqs = append(s.reqs, r)
			}
		}
		*m = procMarks{}
	}
}

// report sets the split's per-layer values: each part's share of all
// measured sojourn time, the same for the slowest 1% of requests, and the
// RPC traffic per request.
func (s *splitter) report(t *traced) {
	t.split = s
	reqs := s.slowest(len(s.reqs))
	shares := func(rs []splitRequest, cohort string) {
		var parts [6]float64
		var total float64
		for _, r := range rs {
			for i, p := range r.Parts {
				parts[i] += float64(p)
			}
			total += float64(r.Sojourn())
		}
		for i, part := range splitParts {
			t.set(splitMetric(part, cohort), ratio(parts[i], total))
		}
	}
	shares(reqs, "")
	shares(reqs[:min(len(reqs), max(1, len(reqs)/100))], "tail.")
	var calls, rpc, total float64
	for _, r := range reqs {
		calls += float64(r.RPCCalls)
		rpc += float64(r.RPCCycles)
		total += float64(r.Sojourn())
	}
	t.set("kernel.rpc_per_request", ratio(calls, float64(len(reqs))))
	t.set("kernel.rpc_frac", ratio(rpc, total))
}

// slowest returns the n slowest measured requests, slowest first: the tail
// exemplars written with the spans.
func (s *splitter) slowest(n int) []splitRequest {
	reqs := append([]splitRequest(nil), s.reqs...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Sojourn() > reqs[j].Sojourn() })
	return reqs[:min(len(reqs), n)]
}
