package native

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCohortMutualExclusion churns the native cohort lock from goroutines
// spread over 2 stations; the -race gate in make ci doubles as a check on
// the hand-off ordering of the holder-private station state.
func TestCohortMutualExclusion(t *testing.T) {
	l := NewCohort(2)
	l.BatchLimit = 4
	if n := hammer(t, 8, 500, func(g int) func() {
		tok := l.Acquire(g / 4)
		return func() { l.Release(g/4, tok) }
	}); n != 4000 {
		t.Fatalf("total = %d", n)
	}
}

// TestCohortUncontendedReentry exercises the acquire-global/release-global
// path repeatedly with no contention anywhere.
func TestCohortUncontendedReentry(t *testing.T) {
	l := NewCohort(2)
	for i := 0; i < 100; i++ {
		tok := l.Acquire(i % 2)
		l.Release(i%2, tok)
	}
}

// TestCNAMutualExclusion churns the native CNA lock across stations; under
// -race the holder-private secondary-list state is checked for ordering
// bugs in the grant hand-off.
func TestCNAMutualExclusion(t *testing.T) {
	l := NewCNA()
	l.SpillThreshold = 4
	if n := hammer(t, 8, 500, func(g int) func() {
		tok := l.Acquire(g / 4)
		return func() { l.Release(tok) }
	}); n != 4000 {
		t.Fatalf("total = %d", n)
	}
}

// TestCNAUncontendedReentry exercises the close-the-queue CAS path.
func TestCNAUncontendedReentry(t *testing.T) {
	l := NewCNA()
	for i := 0; i < 100; i++ {
		tok := l.Acquire(i % 2)
		l.Release(tok)
	}
}

// TestCNATryAcquire checks the single-CAS trylock: succeeds on a free
// queue, fails immediately on a busy one, leaves nothing enqueued behind.
func TestCNATryAcquire(t *testing.T) {
	l := NewCNA()
	tok, ok := l.TryAcquire(0)
	if !ok {
		t.Fatal("try on free lock failed")
	}
	if _, ok := l.TryAcquire(1); ok {
		t.Fatal("try on held lock succeeded")
	}
	l.Release(tok)
	// The failed try left no node behind: the queue closed cleanly and a
	// fresh try wins again.
	if _, ok := l.TryAcquire(1); !ok {
		t.Fatal("try after clean release failed — the failed try left residue")
	}
}

// TestCNADeferredWaiterEventuallyGranted pins the native starvation bound
// end-to-end: two remote waiters blocked behind a stream of same-station
// acquisitions must be granted once the spill threshold trips.
func TestCNADeferredWaiterEventuallyGranted(t *testing.T) {
	l := NewCNA()
	l.SpillThreshold = 2
	var wg sync.WaitGroup
	var remoteIn atomic.Int32
	tok := l.Acquire(0)
	// Remote waiters enqueue while station 0 holds.
	ready := make(chan *cnaNode, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, held := l.Enqueue(1)
			ready <- n
			if !held {
				l.WaitGrant(n)
			}
			remoteIn.Add(1)
			l.Release(n)
		}()
	}
	<-ready
	<-ready
	// Local traffic that would, unbounded, starve them.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := l.Acquire(0)
			l.Release(n)
		}()
	}
	l.Release(tok)
	wg.Wait()
	if remoteIn.Load() != 2 {
		t.Fatalf("remote waiters granted %d times, want 2", remoteIn.Load())
	}
}
