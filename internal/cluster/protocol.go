package cluster

import (
	"hurricane/internal/hybrid"
	"hurricane/internal/sim"
)

// The §2.3 optimistic deadlock-avoidance protocol, stated once. A remote
// handler never waits on a reserve bit: it takes one Reserve step and
// answers. The initiator runs each attempt under Retry: an attempt that
// meets StatusRetry releases the reserve bits it holds and answers
// StatusRetry itself, and Retry backs off and runs it again. The
// pessimistic variant (kernel.Pessimistic) uses the same two pieces but
// releases its bits before the remote step and re-establishes them after.

// Status is the result of a remote operation under the protocol.
type Status uint64

const (
	// StatusOK means the remote operation completed.
	StatusOK Status = iota
	// StatusRetry means the remote side met a reserve bit (potential
	// deadlock): the caller must release its reserve bits and retry.
	StatusRetry
	// StatusAbsent means the remote side did not find the datum.
	StatusAbsent
)

// Reserve is the handler's step: in one hold of t's coarse lock it
// searches for key and try-reserves the entry in mode. A free entry is
// reserved, fn (if non-nil) runs on it inside the same hold, and the
// answer is StatusOK. An entry another holder has reserved answers
// StatusRetry and an absent key StatusAbsent; fn does not run.
func Reserve(h *sim.Proc, t *hybrid.Table, key uint64, mode hybrid.Mode, fn func(e sim.Addr)) Status {
	st := StatusOK
	t.WithLock(h, func() {
		e, ok := t.TryReserveKeyLocked(h, key, mode)
		switch {
		case e == 0:
			st = StatusAbsent
		case !ok:
			st = StatusRetry
		case fn != nil:
			fn(e)
		}
	})
	return st
}

// Retry is the initiator's loop: it runs attempt until the answer is not
// StatusRetry and returns that answer. After each StatusRetry it adds one
// to *retries (if retries is non-nil) and waits one Proc.Backoff, whose
// delay starts at 4 µs and doubles while below max.
func Retry(p *sim.Proc, max sim.Duration, retries *uint64, attempt func() Status) Status {
	delay := sim.Micros(4)
	for {
		st := attempt()
		if st != StatusRetry {
			return st
		}
		if retries != nil {
			*retries++
		}
		p.Backoff(&delay, max)
	}
}
