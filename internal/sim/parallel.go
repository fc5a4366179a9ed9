package sim

import (
	"fmt"
	"sync"
)

// Conservative parallel discrete-event engine.
//
// The machine model already encodes the partition a parallel simulator
// needs: station-local traffic (the overwhelming majority, by the paper's
// own locality argument) touches only that station's processors, bus and
// modules, while every cross-station interaction pays at least the ring
// round trip. Each station therefore becomes a logical process (LP) with
// its own Engine, and the minimum cross-station latency becomes the
// lookahead horizon W: no event executed anywhere in the window
// [T, T+W) can schedule work on another LP before T+W. Execution
// alternates
//
//	window barrier:  W-aligned window [T, T+W) chosen from the globally
//	                 earliest pending event (empty windows are skipped)
//	parallel phase:  each worker runs its LPs' engines to T+W-1; cross-LP
//	                 effects are appended to the running LP's outbox as
//	                 timestamped messages (never touching another engine)
//	routing phase:   single-threaded: outbox messages are delivered into
//	                 their destination engines in LP order, then the
//	                 coordinator engine runs its daemons up to T+W-1
//
// Cross-station memory accesses split into a request message (source
// charges its bus and ring port, then parks) and a response message (home
// charges its bus and module, applies the operation, replies); both legs
// are at least W by construction, checked at routing time. IPIs are a
// single message, with Lat.IPI >= W validated up front.
//
// Determinism is worker-count independent by construction: each LP's
// window execution depends only on its own engine (workers share nothing
// but the quiesced barrier), and routing order is fixed (LP index, then
// outbox append order). `make jobs-equiv` holds the quick summary at
// -parworkers 1 and -parworkers 8 byte-identical.
//
// LPs are pinned to workers (LP i is always driven by worker i mod
// Workers), so a processor coroutine is only ever resumed — and at
// shutdown unwound — by one goroutine.
type parSim struct {
	m       *Machine
	lps     []*lproc
	window  Duration
	workers int

	started bool
	cmds    []chan parCmd
	wg      sync.WaitGroup
}

// lproc is one station's logical process: an engine plus the outbox of
// cross-station messages generated during the current window.
type lproc struct {
	eng    *Engine
	outbox []parMsg
}

// parMsg is a timestamped inter-LP message: run fn at time at in station
// dst's engine.
type parMsg struct {
	at  Time
	dst int
	fn  func()
}

// parCmd tells a worker to run its LPs to a time bound, or to unwind their
// processor coroutines.
type parCmd struct {
	until Time
	kill  bool
}

// newParSim partitions machine m into per-station logical processes and
// validates that every cross-station interaction covers the lookahead
// window. Called by NewMachine after the processors exist.
func newParSim(m *Machine, workers int) *parSim {
	if m.cfg.Lat.Ring < 2 {
		panic("sim: parallel mode needs Ring >= 2 for a nonzero lookahead window")
	}
	ps := &parSim{
		m:      m,
		window: m.cfg.Lat.Ring / 2,
	}
	if m.cfg.Lat.IPI < ps.window {
		panic(fmt.Sprintf("sim: parallel mode needs IPI (%d) >= lookahead window (%d)",
			m.cfg.Lat.IPI, ps.window))
	}
	nSt := m.cfg.Stations
	if workers > nSt {
		workers = nSt
	}
	ps.workers = workers
	ps.lps = make([]*lproc, nSt)
	for s := range ps.lps {
		ps.lps[s] = &lproc{eng: NewEngine()}
	}
	for _, p := range m.Procs {
		p.eng = ps.lps[m.Mem.stationOf(p.module)].eng
	}
	mem := m.Mem
	mem.par = ps
	mem.ringPorts = make([]Resource, nSt)
	for i := range mem.ringPorts {
		mem.ringPorts[i].Name = fmt.Sprintf("ringport%d", i)
	}
	return ps
}

// stationProcs returns station s's processors (ids are laid out
// station-major).
func (ps *parSim) stationProcs(s int) []*Proc {
	pps := ps.m.cfg.ProcsPerStation
	return ps.m.Procs[s*pps : (s+1)*pps]
}

// start launches the worker goroutines (idempotent). Workers idle between
// windows; they exit when shutdown closes their command channels.
func (ps *parSim) start() {
	if ps.started {
		return
	}
	ps.started = true
	ps.cmds = make([]chan parCmd, ps.workers)
	for w := range ps.cmds {
		ps.cmds[w] = make(chan parCmd)
		go ps.worker(w)
	}
}

func (ps *parSim) worker(w int) {
	for cmd := range ps.cmds[w] {
		ps.runLPs(w, cmd)
		ps.wg.Done()
	}
}

// runLPs executes one command on worker w's strided share of the LPs.
func (ps *parSim) runLPs(w int, cmd parCmd) {
	for i := w; i < len(ps.lps); i += ps.workers {
		if cmd.kill {
			for _, p := range ps.stationProcs(i) {
				if p.started && !p.finished {
					p.kill()
				}
			}
		} else {
			ps.lps[i].eng.Run(cmd.until)
		}
	}
}

// dispatch runs one command on every worker and waits for all of them —
// the window barrier. One worker is the serial reference: it runs every
// LP inline on the coordinator goroutine, with no worker goroutines and
// no barrier at all, so the 1-vs-N equivalence gate compares the parallel
// execution against a genuinely synchronization-free baseline.
func (ps *parSim) dispatch(cmd parCmd) {
	if ps.workers == 1 {
		ps.runLPs(0, cmd)
		return
	}
	ps.start()
	ps.wg.Add(ps.workers)
	for _, c := range ps.cmds {
		c <- cmd
	}
	ps.wg.Wait()
}

// nextEvent reports the earliest pending event time across every engine.
func (ps *parSim) nextEvent() (Time, bool) {
	next, any := ps.m.Eng.nextEventAt()
	for _, lp := range ps.lps {
		if t, ok := lp.eng.nextEventAt(); ok && (!any || t < next) {
			next, any = t, true
		}
	}
	return next, any
}

// totalLive counts queued non-daemon events across every engine. Messages
// are only in flight (outbox-held) inside a window, so at the barrier this
// is exact.
func (ps *parSim) totalLive() int {
	live := ps.m.Eng.live
	for _, lp := range ps.lps {
		live += lp.eng.live
	}
	return live
}

// route delivers every outbox message into its destination LP's engine, in
// LP order then append order — the single deterministic serialization
// point of the parallel engine. Every message must land at or beyond the
// window boundary; anything earlier is a lookahead violation.
func (ps *parSim) route(winEnd Time) {
	for s, lp := range ps.lps {
		for _, msg := range lp.outbox {
			if msg.at < winEnd {
				panic(fmt.Sprintf("sim: lookahead violation: station %d message at %d inside window ending %d",
					s, msg.at, winEnd))
			}
			ps.lps[msg.dst].eng.At(msg.at, msg.fn)
		}
		lp.outbox = lp.outbox[:0]
	}
}

// run executes windows until every engine drains or the next event lies
// past until. Each iteration: find the globally earliest event, align its
// window, run every LP to the window's last instant in parallel, then
// route messages and run coordinator daemons at the barrier.
func (ps *parSim) run(until Time) {
	for {
		next, any := ps.nextEvent()
		if !any {
			return
		}
		if ps.totalLive() == 0 {
			// Only daemon observers remain anywhere: the simulation proper
			// is over (mirrors Engine.Run's live==0 branch).
			ps.m.Eng.discardAll()
			for _, lp := range ps.lps {
				lp.eng.discardAll()
			}
			return
		}
		if next > until {
			return
		}
		winStart := (next / ps.window) * ps.window
		winEnd := winStart + ps.window
		runTo := winEnd - 1
		if runTo > until {
			runTo = until
		}
		ps.dispatch(parCmd{until: runTo})
		ps.route(winEnd)
		ps.m.Eng.runCoordinator(runTo)
	}
}

// shutdown unwinds still-parked processors through their owning workers
// and stops the workers. Mirrors Machine.Shutdown's drained-queue
// requirement.
func (ps *parSim) shutdown() {
	pending := ps.m.Eng.Pending()
	for _, lp := range ps.lps {
		pending += lp.eng.Pending()
	}
	if pending != 0 {
		panic(fmt.Sprintf("sim: Shutdown with %d events still pending", pending))
	}
	if ps.started {
		ps.dispatch(parCmd{kill: true})
		for _, c := range ps.cmds {
			close(c)
		}
		ps.started = false
		ps.cmds = nil
	} else {
		for _, p := range ps.m.Procs {
			if p.started && !p.finished {
				p.kill()
			}
		}
	}
}

// remoteAccess performs a cross-station memory access as a request/response
// message pair. It runs on the accessing processor's coroutine: the source
// side charges its station bus and ring port, posts the request, and parks
// until the home station's response unparks it at the completion time.
// Uncontended it completes in exactly base+extra like the serial path; all
// queueing it suffers is at the same per-resource granularity, but ring
// contention is modeled at per-station injection ports rather than one
// shared ring resource (a slotted-ring approximation — the serial and
// parallel machines are distinct calibrations, compared in DESIGN.md).
func (ps *parSim) remoteAccess(p *Proc, a Addr, kind accessKind, operand, expect uint64) (old uint64, done Time, ok bool) {
	m := ps.m.Mem
	now := p.eng.Now()
	src := p.module
	dst := m.homes[a.Module()]
	ss, ds := m.stationOf(src), m.stationOf(dst)

	nAcc := Duration(1)
	var extra Duration
	if kind == accSwap || kind == accCAS {
		nAcc = Duration(m.lat.AtomicAccesses)
		extra = m.lat.AtomicExtra
	}
	base := m.lat.Ring
	if m.localRings != nil && m.groupOf(ss) != m.groupOf(ds) {
		base = m.lat.Ring2
	}
	req := base / 2    // request transit; >= window since window = Ring/2
	resp := base - req // response transit; >= request transit

	t := m.buses[ss].Acquire(now, m.lat.BusService*nAcc)
	t = m.ringPorts[ss].Acquire(t, m.lat.RingService*nAcc)
	arrive := t + req

	p.remoteWait = true
	ps.post(ss, ds, arrive, func() {
		ps.homeAccess(p, ss, a, kind, operand, expect, nAcc, extra, resp)
	})
	p.park()
	p.remoteWait = false
	return p.remoteVal, p.eng.Now(), p.remoteOK
}

// homeAccess is the home-station half of a remote access: it runs as an
// event in the word's LP at the request's arrival time, charges the home
// bus and module, applies the operation to the word, wakes any (home-
// station) watchers, and posts the response back to the source station.
func (ps *parSim) homeAccess(p *Proc, srcStation int, a Addr, kind accessKind, operand, expect uint64, nAcc Duration, extra, resp Duration) {
	m := ps.m.Mem
	dst := m.homes[a.Module()]
	ds := m.stationOf(dst)
	arrive := ps.lps[ds].eng.Now()
	t := m.buses[ds].Acquire(arrive, m.lat.BusService*nAcc)
	t = m.modules[dst].Acquire(t, m.lat.ModuleService*nAcc)

	w := m.word(a)
	old := *w
	ok := true
	switch kind {
	case accStore, accSwap:
		*w = operand
		m.wakeWatchers(a, t+extra)
	case accCAS:
		if old == expect {
			*w = operand
			m.wakeWatchers(a, t+extra)
		} else {
			ok = false
		}
	}
	respAt := t + extra + resp
	ps.post(ds, srcStation, respAt, func() {
		p.remoteVal, p.remoteOK = old, ok
		p.unparkAt(p.eng.Now())
	})
}

// post appends a message to station from's outbox for delivery into
// station dst's engine at the next barrier.
func (ps *parSim) post(from, dst int, at Time, fn func()) {
	lp := ps.lps[from]
	lp.outbox = append(lp.outbox, parMsg{at: at, dst: dst, fn: fn})
}
