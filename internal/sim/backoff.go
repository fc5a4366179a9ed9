package sim

// BackoffSwap is the waiting half of a test-and-set lock with capped
// exponential backoff (the paper's Figure 3c). Until a swap of 1 into the
// word at a fetches 0, it backs off locally for a jittered delay, swaps,
// and spends one branch on the test; the delay starts at initial and
// doubles after every failed poll up to maxDelay. Its instruction stream,
// counters, RNG draws, trace events and engine events are exactly those of
//
//	for {
//		p.Think(delay/2 + p.RNG().Duration(delay/2+1))
//		if p.Swap(a, 1) == 0 {
//			p.Branch(1)
//			return
//		}
//		p.Branch(1)
//		delay = min(2*delay, maxDelay)
//	}
//
// but on the serial engine a failed poll costs only queue work: between
// wake-ups the loop runs in engine context, and the processor's coroutine
// is resumed only when the swap succeeds or an interrupt is deliverable at
// an instruction boundary. The handler then runs on the coroutine, as
// always, and may itself call BackoffSwap: each call keeps its own state.
func (p *Proc) BackoffSwap(a Addr, initial, maxDelay Duration) {
	if p.mach.par != nil {
		// On the LP engine a cross-station swap parks the coroutine until
		// its response arrives (parSim.remoteAccess), so the loop must run
		// on the coroutine.
		delay := initial
		for {
			p.Think(delay/2 + p.rng.Duration(delay/2+1))
			if p.Swap(a, 1) == 0 {
				p.Branch(1)
				return
			}
			p.Branch(1)
			delay = min(2*delay, maxDelay)
		}
	}
	b := &backoffPoll{p: p, a: a, delay: initial, maxDelay: maxDelay}
	b.wake = b.resume
	for {
		if !b.run() {
			p.block() // b.resume hands the coroutine back
		}
		if !b.boundary {
			return // acquired
		}
		b.boundary = false
		p.checkIRQ()
	}
}

// pollStep is the next instruction of a BackoffSwap loop.
type pollStep uint8

const (
	stepBackoff pollStep = iota // the jittered local delay
	stepSwap                    // the swap on the lock word
	stepBranch                  // the test's branch
	stepTest                    // stop if the swap fetched 0, else double the delay
)

// backoffPoll is the state of one BackoffSwap call. It belongs to the call,
// not to the processor: an interrupt handler delivered mid-loop may start a
// loop of its own, which must not disturb this one.
type backoffPoll struct {
	p               *Proc
	a               Addr
	delay, maxDelay Duration
	next            pollStep
	old             uint64 // the value the last swap fetched
	// boundary is set when an instruction has just completed, and the
	// interrupt check that Proc's instructions make there is still owed.
	boundary bool
	wake     func() // resume, bound once per call
}

// run executes the loop from b.next. It returns false when it scheduled a
// wake event (b.wake) and the engine must dispatch other events first, and
// true when the coroutine must take over: either the swap won (boundary is
// clear) or an interrupt is deliverable at the boundary reached (boundary
// is set). It runs on the coroutine until the loop first waits, and in
// engine context after that.
func (b *backoffPoll) run() bool {
	p := b.p
	for {
		if b.boundary {
			if p.irqDeliverable() {
				return true
			}
			b.boundary = false
		}
		switch b.next {
		case stepBackoff:
			b.next = stepSwap
			// Think(0) is not an instruction boundary.
			if d := b.delay/2 + p.rng.Duration(b.delay/2+1); d != 0 && !b.sleep(p.eng.now+d) {
				return false
			}
		case stepSwap:
			b.next = stepBranch
			p.counters.Atomic++
			var done Time
			b.old, done, _ = p.mem.access(p, b.a, accSwap, 1, 0)
			if !b.sleep(done) {
				return false
			}
		case stepBranch:
			b.next = stepTest
			p.counters.Branch++
			if d := p.mem.lat.Branch; d != 0 && !b.sleep(p.eng.now+d) {
				return false
			}
		case stepTest:
			if b.old == 0 {
				return true
			}
			b.next = stepBackoff
			b.delay = min(2*b.delay, b.maxDelay)
		}
	}
}

// sleep advances the processor to t as Proc.sleepUntil does, eliding the
// wake-up when nothing else can run first, and marks the instruction
// boundary. It reports false when it scheduled the wake event instead.
func (b *backoffPoll) sleep(t Time) bool {
	b.boundary = true
	if b.p.eng.elide(t) {
		return true
	}
	b.p.eng.At(t, b.wake)
	return false
}

// resume is the wake event of a loop waiting in engine context: it carries
// on polling, and hands the coroutine back only when run asks for it.
func (b *backoffPoll) resume() {
	if b.run() {
		b.p.wakeEvent()
	}
}
