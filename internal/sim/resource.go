package sim

// Resource models a hardware component that services one request at a time
// in arrival order: a memory module, a station bus, or the ring. Requests
// that arrive while the resource is busy queue up, which is how the
// simulator produces the second-order contention effects the paper studies
// (remote spinning saturating a module and slowing the lock holder).
//
// Statistics are windowed: ResetStats closes the current accounting window
// and opens a new one, so experiments can warm up, reset, and then measure
// utilization over just the measurement interval — the way the paper's
// instrumented kernel counts events between probe points.
type Resource struct {
	// Name identifies the resource in utilization reports.
	Name string

	busyUntil Time

	// windowStart is when the current accounting window opened (0 until the
	// first ResetStats).
	windowStart Time

	// Requests, Busy and MaxQueue accumulate over the current window.
	// Requests counts accesses; Busy is total service time; MaxQueue is the
	// longest observed queueing delay.
	Requests uint64
	Busy     Duration
	MaxQueue Duration
	// Queued is the total time requests spent waiting for service in this
	// window (Queued/Requests is the mean queueing delay).
	Queued Duration
}

// Acquire reserves the resource for dur cycles for a request arriving at
// time at. It returns the time service begins (>= at) — the request waits
// behind earlier requests if the resource is busy.
func (r *Resource) Acquire(at Time, dur Duration) (start Time) {
	start = at
	if r.busyUntil > start {
		start = r.busyUntil
	}
	if q := start - at; q > 0 {
		r.Queued += q
		if q > r.MaxQueue {
			r.MaxQueue = q
		}
	}
	r.busyUntil = start + dur
	r.Requests++
	r.Busy += dur
	return start
}

// Utilization reports the fraction of the interval [since, now] the
// resource spent busy. Busy time is accumulated per window, so since should
// be at or after the current window's start (typically exactly that, the
// time the caller recorded when it last called ResetStats). It can
// exceed 1 only if Acquire was called with times beyond now (requests
// already queued into the future).
func (r *Resource) Utilization(since, now Time) float64 {
	if now <= since {
		return 0
	}
	return float64(r.Busy) / float64(now-since)
}

// WindowUtilization reports the busy fraction of the current window,
// [window start, now].
func (r *Resource) WindowUtilization(now Time) float64 {
	return r.Utilization(r.windowStart, now)
}

// ResetStats closes the accounting window and opens a new one at now,
// clearing the accumulated counters without affecting timing state. Service
// already scheduled past now (a request in flight) is carried into the new
// window as busy time, so utilization never loses in-progress work.
func (r *Resource) ResetStats(now Time) {
	r.Requests = 0
	r.Busy = 0
	r.MaxQueue = 0
	r.Queued = 0
	r.windowStart = now
	if r.busyUntil > now {
		r.Busy = r.busyUntil - now
	}
}
