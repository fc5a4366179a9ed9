package sim

import (
	"fmt"
	"sync/atomic"
)

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (seq breaks ties), which makes runs deterministic.
// Processor wake-ups — the overwhelming majority of events — carry the Proc
// directly instead of a closure, so scheduling one allocates nothing.
// Daemon events are pure observers (statistics samplers): they run like any
// other event but do not keep the simulation alive — once only daemons
// remain the run is over and they are discarded.
type event struct {
	at     Time
	seq    uint64
	proc   *Proc  // non-nil: wake this processor (no closure needed)
	fn     func() // otherwise: call fn
	daemon bool
}

// before orders events by (time, sequence). seq is unique, so this is a
// strict total order: pop order is independent of heap shape or arity.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// set stores an event's fields one by one (see Engine.push).
func (ev *event) set(at Time, seq uint64, proc *Proc, fn func(), daemon bool) {
	ev.at, ev.seq, ev.proc, ev.fn, ev.daemon = at, seq, proc, fn, daemon
}

// totalDispatched and totalElided accumulate event counts across every
// engine in the process, so the parallel harness can report aggregate
// events/sec. They are the only cross-engine shared state in the simulator
// and are only added to when a Run call returns.
var totalDispatched, totalElided atomic.Uint64

// TotalEvents reports process-wide engine activity: heap events dispatched
// and clock advances elided by the coalescing fast path, summed over all
// completed Run calls of all engines.
func TotalEvents() (dispatched, elided uint64) {
	return totalDispatched.Load(), totalElided.Load()
}

// Engine is the discrete-event core: a clock and an ordered queue of
// callbacks. Processors are coroutines that the engine wakes one at a time,
// so all simulated state is accessed single-threadedly and runs are
// reproducible.
type Engine struct {
	now    Time
	events []event // inlined 4-ary min-heap ordered by event.before
	// wheel, once the heap has held wheelGate events, takes every event due
	// within wheelSpan of now; the heap keeps the later ones (wheel.go).
	wheel *wheel
	seq   uint64
	// live counts queued non-daemon events; when it reaches zero the run is
	// over even if daemon (observer) events remain queued.
	live int
	// running/runUntil hold the bound of the in-progress Run call; the
	// sleepUntil fast path may only advance the clock inside that window.
	running  bool
	runUntil Time
	// processed counts heap events dispatched; elided counts clock advances
	// that the coalescing fast path performed without a heap event. Their
	// sum is the logical event count (a progress/≈cost metric).
	processed uint64
	elided    uint64
	// tracer, when non-nil, observes typed machine events (see tracer.go).
	tracer Tracer
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been processed so far, counting
// both dispatched heap events and elided fast-path clock advances.
func (e *Engine) Processed() uint64 { return e.processed + e.elided }

// push queues an event with the given fields: in the wheel if there is one
// and it is due within the wheel's span, else in the 4-ary heap. A 4-ary
// heap trades slightly more comparisons on pop for half the sift depth and
// better cache locality than the binary container/heap, and inlining it
// removes the interface{} boxing that made every push allocate.
//
// The fields travel as scalars and are stored once, at the event's final
// slot, rather than as an event value: a 40-byte struct written field by
// field and then reloaded as 16-byte words defeats the CPU's store-to-load
// forwarding, which cost a stall on every push and every dispatch. Sift-up
// moves a hole from the new leaf toward the root instead of swapping.
func (e *Engine) push(at Time, seq uint64, proc *Proc, fn func(), daemon bool) {
	if w := e.wheel; w != nil && at-e.now < wheelSpan {
		w.push(at, seq, proc, fn, daemon)
		return
	}
	e.events = append(e.events, event{})
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		p := &e.events[parent]
		if at > p.at || at == p.at && seq > p.seq {
			break
		}
		e.events[i] = *p
		i = parent
	}
	e.events[i].set(at, seq, proc, fn, daemon)
	if e.wheel == nil && len(e.events) >= wheelGate {
		e.wheel = newWheel()
	}
}

// peek reports the due time of the earliest queued event, whether it is
// the wheel's head rather than the heap's top, and whether there is one.
func (e *Engine) peek() (at Time, inWheel, ok bool) {
	if w := e.wheel; w != nil && w.n > 0 {
		if len(e.events) == 0 {
			return w.firstAt, true, true
		}
		if h := &e.events[0]; w.firstAt < h.at || w.firstAt == h.at && w.headEv().seq < h.seq {
			return w.firstAt, true, true
		}
	}
	if len(e.events) == 0 {
		return 0, false, false
	}
	return e.events[0].at, false, true
}

// popHeap removes the heap's minimum event and returns its fields. The
// last element fills the hole the top leaves: sift-down moves the hole
// toward the leaves while its least child precedes the last element, then
// stores that element once, at the hole (see push).
func (e *Engine) popHeap() (at Time, proc *Proc, fn func(), daemon bool) {
	top := &e.events[0]
	at, proc, fn, daemon = top.at, top.proc, top.fn, top.daemon
	n := len(e.events) - 1
	last := &e.events[n]
	lat, lseq, lproc, lfn, ldaemon := last.at, last.seq, last.proc, last.fn, last.daemon
	*last = event{} // drop fn/proc references
	e.events = e.events[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.events[c].before(&e.events[min]) {
				min = c
			}
		}
		m := &e.events[min]
		if lat < m.at || lat == m.at && lseq < m.seq {
			break
		}
		e.events[i] = *m
		i = min
	}
	e.events[i].set(lat, lseq, lproc, lfn, ldaemon)
	return
}

// At schedules fn to run at time t. Scheduling in the past panics: it would
// silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.live++
	e.push(t, e.seq, nil, fn, false)
}

// atProc schedules a wake-up of p at time t: the closure-free equivalent of
// At(t, p.wakeEvent) for the per-instruction hot path.
func (e *Engine) atProc(t Time, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.live++
	e.push(t, e.seq, p, nil, false)
}

// sleepOrElide advances the clock to t on behalf of a sleeping processor.
// When no other event could possibly run in the window (now, t] — the queue
// is empty or its head is strictly later than t, and t is within the
// current Run's bound — it simply sets the clock and returns
// true: nothing could have observed the difference, because interrupts and
// memory writes only originate from events, daemons live in the same heap,
// and skipping the wake event's sequence number uniformly shifts later
// sequence numbers without reordering any coexisting pair. Otherwise it
// schedules a real wake event and returns false, and the caller must block.
// This is the coalescing fast path: straight-line Think/Reg/Branch runs and
// the latency tails of uncontended memory accesses never touch the heap or
// switch coroutines.
func (e *Engine) sleepOrElide(t Time, p *Proc) bool {
	if e.elide(t) {
		return true
	}
	e.atProc(t, p)
	return false
}

// elide is sleepOrElide's test: it advances the clock to t and reports
// true when no other event could run in (now, t].
func (e *Engine) elide(t Time) bool {
	if !e.running || t > e.runUntil ||
		len(e.events) > 0 && e.events[0].at <= t ||
		e.wheel != nil && e.wheel.n > 0 && e.wheel.firstAt <= t {
		return false
	}
	e.now = t
	e.elided++
	return true
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// AtDaemon schedules fn as a daemon event: it runs at time t in engine
// context like any event, but does not keep the simulation alive. Once only
// daemon events remain queued, Run ends and discards them. Daemon callbacks
// are observation hooks — they must not consume simulated time or schedule
// non-daemon events (that would let an observer alter what it observes).
func (e *Engine) AtDaemon(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(t, e.seq, nil, fn, true)
}

// Every runs fn as a daemon every period cycles, first at now+period, until
// the simulation drains. fn receives the firing time. Sampling is scheduled
// through the same deterministic (time, sequence) order as everything else,
// so attaching a sampler never perturbs the simulated instruction streams —
// only the observations fn itself publishes can feed back into them.
func (e *Engine) Every(period Duration, fn func(Time)) {
	if period == 0 {
		panic("sim: Every with zero period")
	}
	var tick func()
	tick = func() {
		fn(e.now)
		e.AtDaemon(e.now+period, tick)
	}
	e.AtDaemon(e.now+period, tick)
}

// Run dispatches events in order until the queue is empty or the clock
// would pass until (events at exactly until still run). It returns the
// number of events processed by this call, counting elided fast-path
// advances.
func (e *Engine) Run(until Time) uint64 {
	startDispatched, startElided := e.processed, e.elided
	prevRunning, prevUntil := e.running, e.runUntil
	e.running, e.runUntil = true, until
	for {
		at, inWheel, ok := e.peek()
		if !ok {
			break
		}
		if e.live == 0 {
			// Only daemon observers remain: the simulation proper is over.
			// Discard them so the queue reads as drained (Shutdown-safe).
			e.discardAll()
			break
		}
		if at > until {
			break
		}
		e.dispatch(inWheel)
	}
	e.running, e.runUntil = prevRunning, prevUntil
	totalDispatched.Add(e.processed - startDispatched)
	totalElided.Add(e.elided - startElided)
	return e.processed + e.elided - startDispatched - startElided
}

// RunAll dispatches events until none remain.
func (e *Engine) RunAll() uint64 {
	return e.Run(^Time(0))
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int {
	if e.wheel != nil {
		return len(e.events) + e.wheel.n
	}
	return len(e.events)
}

// nextEventAt reports the time of the earliest queued event, if any.
func (e *Engine) nextEventAt() (Time, bool) {
	at, _, ok := e.peek()
	return at, ok
}

// runCoordinator dispatches this engine's queued events with at <= until
// and advances the clock to until. It is the parallel coordinator's window
// step: unlike Run it does not treat a daemon-only queue as a finished
// simulation, because in parallel mode the processors live in the
// per-station engines and this engine typically holds nothing but daemon
// samplers. The workers are quiesced at the barrier when this runs, so
// daemon callbacks may read cross-station state.
func (e *Engine) runCoordinator(until Time) {
	startDispatched := e.processed
	for {
		at, inWheel, ok := e.peek()
		if !ok || at > until {
			break
		}
		e.dispatch(inWheel)
	}
	if e.now < until {
		e.now = until
	}
	totalDispatched.Add(e.processed - startDispatched)
}

// dispatch pops the earliest queued event, from the wheel when peek found
// it there, advances the clock to its time and runs it.
func (e *Engine) dispatch(inWheel bool) {
	var at Time
	var proc *Proc
	var fn func()
	var daemon bool
	if inWheel {
		at, proc, fn, daemon = e.wheel.pop()
	} else {
		at, proc, fn, daemon = e.popHeap()
	}
	e.now = at
	e.processed++
	if !daemon {
		e.live--
	}
	if proc != nil {
		proc.wakeEvent()
	} else {
		fn()
	}
}

// discardAll abandons every queued event: Run's end once only daemons
// remain, and parallel-mode termination once no live events remain
// anywhere. The wheel goes too; a later run starts it again if needed.
func (e *Engine) discardAll() {
	e.events = e.events[:0]
	e.wheel = nil
}
