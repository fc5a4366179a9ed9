package sim

// BackoffSwap is the waiting half of a test-and-set lock with capped
// exponential backoff (the paper's Figure 3c). Until a swap of 1 into the
// word at a fetches 0, it backs off locally for a jittered delay, swaps,
// and spends one branch on the test; the delay starts at initial and
// doubles after every failed poll up to maxDelay. Its instruction stream,
// counters, RNG draws and memory accesses are those of
//
//	delay := initial
//	p.Think(delay/2 + p.RNG().Duration(delay/2+1))
//	for p.Swap(a, 1) != 0 {
//		p.Branch(1)
//		delay = min(2*delay, maxDelay)
//		p.Think(delay/2 + p.RNG().Duration(delay/2+1))
//	}
//	p.Branch(1)
//
// On the serial engine the loop is an engineLoop (engineloop.go): between
// wake-ups it runs in engine context, and the processor's coroutine is
// resumed only when the swap succeeds or an interrupt is deliverable at an
// instruction boundary. Only a swap's issue touches shared state, so a
// failed poll is one step: the swap issues, and the test's branch, the
// doubled delay and the next jitter are settled at once, in one sleep from
// the issue to fetch return + branch + backoff, whose end is the poll's
// one instruction boundary. Against the loop above this moves two things,
// both below what any published figure resolves: a same-cycle tie of that
// wake-up is sequenced at the swap's issue instead of at its fetch return,
// and an interrupt arriving before the backoff starts is taken at the end
// of the step, where one arriving during the backoff is taken already (a
// Think is one uninterruptible sleep). A winning swap keeps its separate
// fetch and branch. The handler runs on the coroutine, as always, and may
// itself call BackoffSwap: each call keeps its own state.
//
// On the LP engine a cross-station swap parks the coroutine until its
// response arrives (parSim.remoteAccess), so there the loop above runs on
// the coroutine, instruction by instruction.
func (p *Proc) BackoffSwap(a Addr, initial, maxDelay Duration) {
	if p.mach.par != nil {
		delay := initial
		p.Think(delay/2 + p.rng.Duration(delay/2+1))
		for p.Swap(a, 1) != 0 {
			p.Branch(1)
			delay = min(2*delay, maxDelay)
			p.Think(delay/2 + p.rng.Duration(delay/2+1))
		}
		p.Branch(1)
		return
	}
	b := &backoffPoll{a: a, delay: initial, maxDelay: maxDelay}
	b.wake = b.resume
	b.drive(p, b)
}

// pollStep is the next step of a BackoffSwap loop.
type pollStep uint8

const (
	stepBackoff pollStep = iota // the first jittered local delay
	stepSwap                    // a swap on the lock word, and a failed one's backoff
	stepBranch                  // the winning swap's branch
	stepDone                    // the lock is taken
)

// backoffPoll is the state of one BackoffSwap call.
type backoffPoll struct {
	engineLoop
	a               Addr
	delay, maxDelay Duration
	next            pollStep
}

// jitter draws the next backoff from the current delay.
func (b *backoffPoll) jitter() Duration {
	return b.delay/2 + b.p.rng.Duration(b.delay/2+1)
}

// run executes the poll loop's steps (see stepper).
func (b *backoffPoll) run() bool {
	p := b.p
	for !b.interrupted() {
		switch b.next {
		case stepBackoff:
			b.next = stepSwap
			// Think(0) is not an instruction boundary.
			if d := b.jitter(); d != 0 && !b.sleep(p.eng.now+d) {
				return false
			}
		case stepSwap:
			p.counters.Atomic++
			old, done, _ := p.mem.access(p, b.a, accSwap, 1, 0)
			if old == 0 {
				b.next = stepBranch
			} else {
				// A failed poll: its branch and the next backoff join
				// the fetch in one sleep, up to the next swap.
				p.counters.Branch++
				b.delay = min(2*b.delay, b.maxDelay)
				done += p.mem.lat.Branch + b.jitter()
			}
			if !b.sleep(done) {
				return false
			}
		case stepBranch:
			b.next = stepDone
			p.counters.Branch++
			if d := p.mem.lat.Branch; d != 0 && !b.sleep(p.eng.now+d) {
				return false
			}
		case stepDone:
			return true // acquired
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
