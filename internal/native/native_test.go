package native

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// hammer runs goroutines goroutines of iters critical sections each and
// returns how many sections ran. lock(g) takes the lock for goroutine g and
// returns its unlock, or nil when a try failed. The sections are counted
// with a plain increment before any other synchronization, so under -race
// every hammer also checks that each hand-off publishes the previous
// holder's writes.
func hammer(t *testing.T, goroutines, iters int, lock func(g int) (unlock func())) int {
	t.Helper()
	var held atomic.Int32
	sections := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				unlock := lock(g)
				if unlock == nil {
					continue
				}
				sections++
				if h := held.Add(1); h != 1 {
					t.Errorf("exclusion violated: %d holders", h)
				}
				held.Add(-1)
				unlock()
			}
		}()
	}
	wg.Wait()
	return sections
}

func TestMCSMutualExclusion(t *testing.T) {
	var l MCS
	if n := hammer(t, 8, 500, func(int) func() {
		tok := l.Acquire()
		return func() { l.Release(tok) }
	}); n != 4000 {
		t.Fatalf("total = %d", n)
	}
}

func TestMCSUncontendedReentry(t *testing.T) {
	var l MCS
	for i := 0; i < 100; i++ {
		tok := l.Acquire()
		l.Release(tok)
	}
}

func TestMCSTryAcquire(t *testing.T) {
	var l MCS
	tok, ok := l.TryAcquire()
	if !ok {
		t.Fatal("try on free lock failed")
	}
	// A second try must fail fast while held.
	done := make(chan bool)
	go func() {
		_, ok2 := l.TryAcquire()
		done <- ok2
	}()
	select {
	case ok2 := <-done:
		if ok2 {
			t.Fatal("try on held lock succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TryAcquire blocked")
	}
	l.Release(tok)
	// After release (which garbage-collects the abandoned node), a fresh
	// try must succeed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tok2, ok2 := l.TryAcquire(); ok2 {
			l.Release(tok2)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lock never became acquirable after release")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMCSMixedTryAndAcquire mixes blocking acquirers (even goroutines)
// with single-attempt trylocks (odd ones) on one lock.
func TestMCSMixedTryAndAcquire(t *testing.T) {
	var l MCS
	hammer(t, 6, 300, func(g int) func() {
		if g%2 == 0 {
			tok := l.Acquire()
			return func() { l.Release(tok) }
		}
		if tok, ok := l.TryAcquire(); ok {
			return func() { l.Release(tok) }
		}
		return nil
	})
}

func TestSpinLock(t *testing.T) {
	var l Spin
	if n := hammer(t, 8, 200, func(int) func() {
		l.Acquire()
		return l.Release
	}); n != 1600 {
		t.Fatalf("total = %d", n)
	}
	if l.word.Load() != 0 {
		t.Fatal("lock held after every goroutine released")
	}
}

func TestSpinThenBlock(t *testing.T) {
	l := NewSpinThenBlock(8)
	if n := hammer(t, 8, 200, func(int) func() {
		l.Acquire()
		return l.Release
	}); n != 1600 {
		t.Fatalf("total = %d", n)
	}
	if len(l.ch) != 1 {
		t.Fatal("lock held after every goroutine released")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	if !tb.Insert(1, "a") || tb.Insert(1, "b") {
		t.Fatal("insert semantics wrong")
	}
	if _, ok := tb.Lookup(2); ok {
		t.Fatal("phantom lookup")
	}
	e, ok := tb.Reserve(1, true)
	if !ok || e.Value != "a" {
		t.Fatal("reserve failed")
	}
	if tb.Remove(1) {
		t.Fatal("removed a reserved entry")
	}
	tb.ReleaseReserve(e, true)
	if !tb.Remove(1) {
		t.Fatal("remove failed")
	}
	if len(tb.m) != 0 {
		t.Fatal("table not empty")
	}
	if _, ok := tb.Reserve(1, true); ok {
		t.Fatal("reserved an absent key")
	}
}

func TestTableExclusiveReservations(t *testing.T) {
	tb := NewTable()
	tb.Insert(7, new(int))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e, ok := tb.Reserve(7, true)
				if !ok {
					t.Error("reserve failed")
					return
				}
				n := e.Value.(*int)
				*n++ // data race iff exclusion broken (run with -race)
				tb.ReleaseReserve(e, true)
			}
		}()
	}
	wg.Wait()
	e, _ := tb.Lookup(7)
	if got := *e.Value.(*int); got != 800 {
		t.Fatalf("increments lost: %d", got)
	}
}

func TestTableSharedReaders(t *testing.T) {
	tb := NewTable()
	tb.Insert(3, "ro")
	var maxReaders atomic.Int64
	var cur atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, ok := tb.Reserve(3, false)
			if !ok {
				t.Error("shared reserve failed")
				return
			}
			n := cur.Add(1)
			for {
				m := maxReaders.Load()
				if n <= m || maxReaders.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			tb.ReleaseReserve(e, false)
		}()
	}
	wg.Wait()
	if maxReaders.Load() < 2 {
		t.Errorf("readers never overlapped (max %d)", maxReaders.Load())
	}
	// Writer excluded while a reader holds.
	e, _ := tb.Reserve(3, false)
	done := make(chan struct{})
	go func() {
		we, _ := tb.Reserve(3, true)
		tb.ReleaseReserve(we, true)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("writer reserved while reader held")
	case <-time.After(20 * time.Millisecond):
	}
	tb.ReleaseReserve(e, false)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never got in after reader release")
	}
}

func TestTablePropertyCountsPreserved(t *testing.T) {
	// Property: concurrent exclusive increments across several keys are
	// never lost.
	f := func(keysRaw uint8) bool {
		nkeys := int(keysRaw)%4 + 1
		tb := NewTable()
		for k := 0; k < nkeys; k++ {
			tb.Insert(uint64(k), new(int))
		}
		var wg sync.WaitGroup
		per := 50
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					key := uint64((g + i) % nkeys)
					e, ok := tb.Reserve(key, true)
					if !ok {
						return
					}
					*(e.Value.(*int))++
					tb.ReleaseReserve(e, true)
				}
			}()
		}
		wg.Wait()
		total := 0
		for k := 0; k < nkeys; k++ {
			e, _ := tb.Lookup(uint64(k))
			total += *(e.Value.(*int))
		}
		return total == 4*per
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinBackoffPathUnderHold(t *testing.T) {
	var l Spin
	l.Acquire()
	acquired := make(chan struct{})
	go func() {
		l.Acquire() // must take the backoff path
		close(acquired)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-acquired:
		t.Fatal("second acquire succeeded while held")
	default:
	}
	l.Release()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never acquired after release")
	}
	l.Release()
}

func TestSpinThenBlockBlockingPath(t *testing.T) {
	l := NewSpinThenBlock(2) // tiny spin budget forces the blocking path
	l.Acquire()
	got := make(chan struct{})
	go func() {
		l.Acquire()
		close(got)
	}()
	time.Sleep(2 * time.Millisecond)
	l.Release()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked waiter never woke")
	}
	l.Release()
}

func TestEntryReservedReporting(t *testing.T) {
	tb := NewTable()
	tb.Insert(9, nil)
	e, _ := tb.Reserve(9, true)
	if e.state.Load() != -1 {
		t.Fatalf("exclusive state = %d", e.state.Load())
	}
	tb.ReleaseReserve(e, true)
	e, _ = tb.Reserve(9, false)
	e2, _ := tb.Reserve(9, false)
	if e.state.Load() != 2 || e != e2 {
		t.Fatalf("shared state = %d", e.state.Load())
	}
	tb.ReleaseReserve(e, false)
	tb.ReleaseReserve(e2, false)
	if e.state.Load() != 0 {
		t.Fatalf("state after releases = %d", e.state.Load())
	}
}

func TestTableReserveWaitsOutWriter(t *testing.T) {
	tb := NewTable()
	tb.Insert(4, new(int))
	e, _ := tb.Reserve(4, true)
	done := make(chan struct{})
	go func() {
		e2, ok := tb.Reserve(4, true)
		if !ok {
			t.Error("reserve failed")
		}
		tb.ReleaseReserve(e2, true)
		close(done)
	}()
	time.Sleep(3 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("writer got in while reserved")
	default:
	}
	tb.ReleaseReserve(e, true)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter starved")
	}
}

func TestMCSHandoffChainUnderChurn(t *testing.T) {
	// Force long queues so Release's hand-off and link-wait paths run.
	var l MCS
	if n := hammer(t, 12, 50, func(int) func() {
		tok := l.Acquire()
		return func() { l.Release(tok) }
	}); n != 600 {
		t.Fatalf("acquisitions = %d", n)
	}
}
