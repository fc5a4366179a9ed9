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
// but on the serial engine a failed poll costs only queue work: the loop
// is an engineLoop (engineloop.go), so between wake-ups it runs in engine
// context, and the processor's coroutine is resumed only when the swap
// succeeds or an interrupt is deliverable at an instruction boundary. The
// handler then runs on the coroutine, as always, and may itself call
// BackoffSwap: each call keeps its own state.
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
	b := &backoffPoll{a: a, delay: initial, maxDelay: maxDelay}
	b.wake = b.resume
	b.drive(p, b)
}

// pollStep is the next instruction of a BackoffSwap loop.
type pollStep uint8

const (
	stepBackoff pollStep = iota // the jittered local delay
	stepSwap                    // the swap on the lock word
	stepBranch                  // the test's branch
	stepTest                    // stop if the swap fetched 0, else double the delay
)

// backoffPoll is the state of one BackoffSwap call.
type backoffPoll struct {
	engineLoop
	a               Addr
	delay, maxDelay Duration
	next            pollStep
	old             uint64 // the value the last swap fetched
}

// run executes the poll loop's steps (see stepper).
func (b *backoffPoll) run() bool {
	p := b.p
	for !b.interrupted() {
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
				return true // acquired
			}
			b.next = stepBackoff
			b.delay = min(2*b.delay, b.maxDelay)
		}
	}
	return true
}

// resume is the poll loop's wake event (see stepper).
func (b *backoffPoll) resume() {
	if b.run() {
		b.p.wakeEvent()
	}
}
