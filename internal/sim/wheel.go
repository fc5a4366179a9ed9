package sim

import "math/bits"

// A timing wheel fronts the event heap of an engine with many queued
// events: every event due within wheelSpan cycles of now goes into the
// wheel's FIFO bucket for its exact time, and only later ones go into the
// heap. Pushes arrive in sequence order (Engine.seq only grows), so each
// bucket is already sorted by (time, sequence); the engine merges the
// wheel's head with the heap's top by the same order, so dispatch order is
// exactly the heap's alone.
//
// A wheel event is due in [now, now+wheelSpan): it was pushed less than
// wheelSpan after a past now, and nothing earlier than now is queued. So
// distinct due times in the wheel fall in distinct buckets, and the bucket
// index is the due time modulo wheelSpan.
const (
	// wheelSpan is the horizon in cycles (512µs at 16 cycles/µs): it
	// covers backoff delays up to the kernel's 35µs cap and a swap queued
	// behind 256 others at one module. It is a multiple of 4096, the
	// buckets one summary word covers.
	wheelSpan = 1 << 13
	wheelMask = wheelSpan - 1
	// wheelGate is the heap size at which an engine starts its wheel.
	// Below it the heap is shallow; the per-station LP engines (under 8
	// queued events in the dense NUMAchine-256 runs) stay below it, so
	// they keep the heap path and never allocate a wheel's 64 KB of
	// buckets. A 16-processor machine serving requests holds about 20
	// events, where the heap already costs more than twice the wheel per
	// event (BenchmarkEventDispatch), so it crosses the gate.
	wheelGate = 16
)

// wheel is the bucket array. Bucket i is a singly linked FIFO of nodes;
// node 0 is never used, so 0 links mark an empty bucket or list end. A
// two-level bitmap marks the non-empty buckets.
type wheel struct {
	buckets [wheelSpan]struct{ head, tail int32 }
	used    [wheelSpan / 64]uint64   // bit per non-empty bucket
	summary [wheelSpan / 4096]uint64 // bit per non-zero used word
	nodes   []wheelNode
	free    int32 // free-node list
	n       int   // queued events
	// first is the bucket of the earliest event and firstAt its due time,
	// valid while n > 0.
	first   int
	firstAt Time
}

type wheelNode struct {
	ev   event
	next int32
}

func newWheel() *wheel {
	return &wheel{nodes: make([]wheelNode, 1, 2*wheelGate)}
}

// headEv is the wheel's earliest event. n must be positive.
func (w *wheel) headEv() *event { return &w.nodes[w.buckets[w.first].head].ev }

// push appends an event with the given fields to its bucket, storing them
// into the node directly (see Engine.push). It must be due within
// wheelSpan of now.
func (w *wheel) push(at Time, seq uint64, proc *Proc, fn func(), daemon bool) {
	ni := w.free
	if ni != 0 {
		w.free = w.nodes[ni].next
	} else {
		ni = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	nd := &w.nodes[ni]
	nd.ev.set(at, seq, proc, fn, daemon)
	nd.next = 0
	b := int(at & wheelMask)
	bk := &w.buckets[b]
	if bk.head == 0 {
		bk.head = ni
		w.used[b>>6] |= 1 << (b & 63)
		w.summary[b>>12] |= 1 << (b >> 6 & 63)
	} else {
		w.nodes[bk.tail].next = ni
	}
	bk.tail = ni
	if w.n == 0 || at < w.firstAt {
		w.first, w.firstAt = b, at
	}
	w.n++
}

// pop removes the earliest event and returns its fields. n must be
// positive.
func (w *wheel) pop() (at Time, proc *Proc, fn func(), daemon bool) {
	b := w.first
	bk := &w.buckets[b]
	ni := bk.head
	nd := &w.nodes[ni]
	at, proc, fn, daemon = nd.ev.at, nd.ev.proc, nd.ev.fn, nd.ev.daemon
	bk.head = nd.next
	nd.ev.proc, nd.ev.fn = nil, nil // drop references
	nd.next = w.free
	w.free = ni
	w.n--
	if bk.head == 0 {
		if w.used[b>>6] &^= 1 << (b & 63); w.used[b>>6] == 0 {
			w.summary[b>>12] &^= 1 << (b >> 6 & 63)
		}
		if w.n > 0 {
			w.first = w.scan(b)
			w.firstAt = at + Time((w.first-b)&wheelMask)
		}
	}
	return
}

// scan finds the first non-empty bucket at or after b, wrapping around:
// the next due time, since every queued time lies within one wheel span
// of the one just dispatched.
func (w *wheel) scan(b int) int {
	wi := b >> 6
	if m := w.used[wi] &^ (1<<(b&63) - 1); m != 0 {
		return wi<<6 | bits.TrailingZeros64(m)
	}
	j := nextSet(w.summary[:], wi+1)
	if j < 0 {
		j = nextSet(w.summary[:], 0) // wrapped: wi's low bits included
	}
	return j<<6 | bits.TrailingZeros64(w.used[j])
}

// nextSet returns the index of the first set bit at or after i in the
// bitset set, or -1 if there is none.
func nextSet(set []uint64, i int) int {
	for wi := i >> 6; wi < len(set); wi++ {
		m := set[wi]
		if wi == i>>6 {
			m &^= 1<<(i&63) - 1
		}
		if m != 0 {
			return wi<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}
