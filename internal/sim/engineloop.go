package sim

// An engineLoop runs a fixed instruction loop of one processor in engine
// context: on the serial engine, between its wake-ups the loop is driven
// by its own wake events' callbacks, not by resuming the processor's
// coroutine. A coroutine round trip costs more than the simulated
// instruction it carries, and loops like a spinning swap or a sweep over a
// table make most of a run's events.
//
// The loop's stepper executes its steps against the memory system exactly
// as Proc's methods would: same counters, same RNG draws, same
// Memory.access calls (so the same trace events). A step is one
// instruction, except that a failed BackoffSwap poll is one step from the
// swap's issue to the next swap (see BackoffSwap). engineLoop keeps the
// rest of the contract. A wake-up that nothing else could precede is
// elided as Proc.sleepUntil elides it, and otherwise scheduled with the
// same (time, sequence) key. Every completed step is an instruction
// boundary, where an interrupt deliverable at that instant hands the
// coroutine back to run its handler, as Proc's instructions call checkIRQ
// there; the loop resumes after it. The coroutine also takes over once the
// loop is done.
//
// The state belongs to the call, not to the processor: an interrupt
// handler may start a loop of its own, which must not disturb this one.
// BackoffSwap and Sweep are the two steppers.
type engineLoop struct {
	p *Proc
	// boundary is set when an instruction has just completed, and the
	// interrupt check that Proc's instructions make there is still owed.
	boundary bool
	// wake is the loop's wake event, the stepper's resume, bound once per
	// call. It calls run directly: an interface call per wake-up made the
	// spin storms of the model sweep and lock-zoo measurably slower.
	wake func()
}

// stepper is one loop shape. Its run executes the loop's steps from where
// it stands, settling each owed boundary first (interrupted), until a
// step schedules the loop's wake event (sleep returned false; run returns
// false) or the coroutine must take over (run returns true): either an
// interrupt is deliverable at the boundary reached (boundary is set), or
// the loop is done (boundary is clear: done is reported only from a step
// that executes no instruction). run is called on the coroutine until the
// loop first waits, and in engine context after that, once per wake-up,
// by the stepper's wake event:
//
//	func (s *shape) resume() {
//		if s.run() {
//			s.p.wakeEvent() // hand the coroutine back
//		}
//	}
type stepper interface {
	run() bool
}

// drive runs the loop whose stepper is s, with its wake event already
// bound (wake), on p's coroutine until it is done, blocking whenever it
// waits.
func (l *engineLoop) drive(p *Proc, s stepper) {
	l.p = p
	for {
		if !s.run() {
			p.block() // the wake event hands the coroutine back
		}
		if !l.boundary {
			return // done
		}
		l.boundary = false
		p.checkIRQ()
	}
}

// interrupted settles the boundary check owed since the last completed
// instruction, if any: it reports true when an interrupt is deliverable
// there, so the coroutine must take over to run the handler.
func (l *engineLoop) interrupted() bool {
	if l.boundary {
		if l.p.irqDeliverable() {
			return true
		}
		l.boundary = false
	}
	return false
}

// sleep advances the processor to t as Proc.sleepUntil does, eliding the
// wake-up when nothing else can run first, and marks the instruction
// boundary. It reports false when it scheduled the wake event instead.
func (l *engineLoop) sleep(t Time) bool {
	l.boundary = true
	if l.p.eng.elide(t) {
		return true
	}
	l.p.eng.At(t, l.wake)
	return false
}

// Sweep makes n memory accesses, at addr(0), addr(1), ..., addr(n-1):
// loads, or stores of v when store is set, each followed by think cycles
// of local computation. Its instruction stream, counters, trace events and
// engine events are exactly those of
//
//	for j := 0; j < n; j++ {
//		if store {
//			p.Store(addr(j), v)
//		} else {
//			p.Load(addr(j))
//		}
//		p.Think(think)
//	}
//
// but on the serial engine the loop is an engineLoop, as BackoffSwap's is:
// the coroutine is resumed only when an interrupt is deliverable at an
// instruction boundary, and when the sweep is done. addr is called in
// engine context, so it must depend on j alone.
func (p *Proc) Sweep(n int, addr func(j int) Addr, store bool, v uint64, think Duration) {
	if p.mach.par != nil {
		// On the LP engine a cross-station access parks the coroutine until
		// its response arrives (parSim.remoteAccess), so the loop must run
		// on the coroutine.
		for j := 0; j < n; j++ {
			if store {
				p.Store(addr(j), v)
			} else {
				p.Load(addr(j))
			}
			p.Think(think)
		}
		return
	}
	if n <= 0 {
		return
	}
	s := &sweep{n: n, addr: addr, v: v, think: think}
	s.wake = s.resume
	if store {
		s.kind = accStore
	}
	s.drive(p, s)
}

// sweep is the state of one Sweep call.
type sweep struct {
	engineLoop
	n, j  int // accesses in all, and made so far
	addr  func(int) Addr
	kind  accessKind
	v     uint64
	think Duration
	// thinking is set when the think after access j-1 is the next step.
	thinking bool
}

// run executes the sweep's steps (see stepper).
func (s *sweep) run() bool {
	p := s.p
	for !s.interrupted() {
		if s.thinking {
			s.thinking = false
			if !s.sleep(p.eng.now + s.think) {
				return false
			}
			continue
		}
		if s.j == s.n {
			return true // done
		}
		p.counters.Mem++
		_, done, _ := p.mem.access(p, s.addr(s.j), s.kind, s.v, 0)
		s.j++
		s.thinking = s.think != 0 // Think(0) is not an instruction boundary
		if !s.sleep(done) {
			return false
		}
	}
	return true
}

// resume is the sweep's wake event (see stepper).
func (s *sweep) resume() {
	if s.run() {
		s.p.wakeEvent()
	}
}
