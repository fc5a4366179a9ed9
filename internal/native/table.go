package native

import (
	"sync/atomic"
	"time"
)

// Entry is an element of a hybrid Table. The reservation state word plays
// the reserve-bit role of §2.1: 0 free, -1 exclusively reserved, n>0 held
// by n readers. It is only written under the table's coarse lock (no
// atomic read-modify-write needed, exactly as in the paper); waiters poll
// it with backoff.
type Entry struct {
	state atomic.Int64
	// Value is the caller's payload; mutate it only while holding a
	// reservation.
	Value any
}

// Table is the native-hardware port of the hybrid coarse-grain/fine-grain
// scheme: one queue lock protects the whole map and is held only long
// enough to search and flip a reservation; reservations are held across
// arbitrary user work.
type Table struct {
	lock MCS
	m    map[uint64]*Entry
}

// NewTable builds an empty table.
func NewTable() *Table {
	return &Table{m: make(map[uint64]*Entry)}
}

func (t *Table) withLock(fn func()) {
	tok := t.lock.Acquire()
	fn()
	t.lock.Release(tok)
}

// Insert adds a value under key. It reports false if the key exists.
func (t *Table) Insert(key uint64, value any) bool {
	ok := false
	t.withLock(func() {
		if _, exists := t.m[key]; !exists {
			e := &Entry{}
			e.Value = value
			t.m[key] = e
			ok = true
		}
	})
	return ok
}

// Lookup returns the entry without reserving it. Use Reserve before
// touching Value.
func (t *Table) Lookup(key uint64) (*Entry, bool) {
	var e *Entry
	t.withLock(func() { e = t.m[key] })
	return e, e != nil
}

// Remove deletes the key if it is not reserved, reporting success.
//
//doclint:keep completes the §2.1 table port: removal refuses a reserved entry, which is what the reserve bit is for
func (t *Table) Remove(key uint64) bool {
	ok := false
	t.withLock(func() {
		if e := t.m[key]; e != nil && e.state.Load() == 0 {
			delete(t.m, key)
			ok = true
		}
	})
	return ok
}

// Reserve finds key and takes its reservation (exclusive or shared),
// waiting out conflicting holders with capped exponential backoff and
// re-searching after each wait (the Figure 1b protocol). ok is false if
// the key is absent.
func (t *Table) Reserve(key uint64, exclusive bool) (*Entry, bool) {
	delay := time.Microsecond
	for {
		var e *Entry
		got := false
		t.withLock(func() {
			e = t.m[key]
			if e == nil {
				return
			}
			st := e.state.Load()
			switch {
			case exclusive && st == 0:
				e.state.Store(-1)
				got = true
			case !exclusive && st >= 0:
				e.state.Store(st + 1)
				got = true
			}
		})
		if e == nil {
			return nil, false
		}
		if got {
			return e, true
		}
		// Spin on the reservation outside the coarse lock.
		for {
			time.Sleep(delay)
			st := e.state.Load()
			if exclusive && st == 0 || !exclusive && st >= 0 {
				break
			}
			delay = min(2*delay, maxBackoff)
		}
	}
}

// ReleaseReserve drops a reservation taken with Reserve.
func (t *Table) ReleaseReserve(e *Entry, exclusive bool) {
	if exclusive {
		e.state.Store(0) // we own it; no lock needed
		return
	}
	t.withLock(func() { e.state.Store(e.state.Load() - 1) })
}

// SpinThenBlock is the §5.3 direction for TORNADO: spin briefly in case
// the lock frees promptly, then block in a FIFO of sleepers instead of
// burning cycles. The zero value is not usable; call NewSpinThenBlock.
type SpinThenBlock struct {
	ch    chan struct{}
	Spins int
}

// NewSpinThenBlock builds an unlocked lock that spins `spins` times before
// blocking.
func NewSpinThenBlock(spins int) *SpinThenBlock {
	l := &SpinThenBlock{ch: make(chan struct{}, 1), Spins: spins}
	l.ch <- struct{}{}
	return l
}

// Acquire takes the lock.
func (l *SpinThenBlock) Acquire() {
	for i := 0; i < l.Spins; i++ {
		select {
		case <-l.ch:
			return
		default:
		}
		pause(i)
	}
	<-l.ch
}

// Release unlocks.
func (l *SpinThenBlock) Release() { l.ch <- struct{}{} }
