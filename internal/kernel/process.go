package kernel

import (
	"fmt"

	"hurricane/internal/cluster"
	"hurricane/internal/hybrid"
	"hurricane/internal/sim"
)

// Process-descriptor payload layout (words after hybrid.EntData).
const (
	dParent     = 0 // parent's descriptor key (0 for roots)
	dFirstChild = 1 // head of the child list
	dNextSib    = 2 // next sibling in the parent's child list
	dMsgs       = 3 // messages received
	dSent       = 4 // messages sent
	dState      = 5 // 1 = alive
)

const descPayload = 6

// ProcessManager implements the clustered process subsystem: descriptors
// live in per-cluster tables (single copy each — process state is
// write-shared, so it is never replicated), the family tree's links run
// through the descriptors across clusters (the §2.5 "data structure
// design" lesson), and destruction and message passing follow the
// configured deadlock-management protocol.
type ProcessManager struct {
	k      *Kernel
	tables []*hybrid.Table
}

func newProcessManager(k *Kernel) *ProcessManager {
	pm := &ProcessManager{
		k:      k,
		tables: make([]*hybrid.Table, k.Topo.N),
	}
	for c := 0; c < k.Topo.N; c++ {
		home := k.Topo.SlotModule(c, 3)
		t := hybrid.NewShared(k.M, k.newLock(home), home, buckets, descPayload)
		t.Guard = k.Gate
		pm.tables[c] = t
	}
	return pm
}

// PIDKey builds the descriptor key for process n homed on cluster c.
func PIDKey(c int, n uint64) uint64 { return MakeKey(c, classProc, n) }

// --- descriptor primitives: local direct or one RPC each ---

func (pm *ProcessManager) local(p *sim.Proc, key uint64) bool {
	return HomeOf(key) == pm.k.Topo.ClusterOf(p.ID())
}

// run executes fn on the descriptor's home cluster (directly if local).
func (pm *ProcessManager) run(p *sim.Proc, key uint64, fn func(h *sim.Proc) cluster.Status) cluster.Status {
	home := HomeOf(key)
	if pm.local(p, key) {
		return fn(p)
	}
	return pm.k.RPC.Call(p, home, fn)
}

// reserveRead is the handler's reserve step (cluster.Reserve) on the
// descriptor's home cluster, with the loads of the named fields in the same
// handler: vals[i] receives field offs[i]. It returns the reserved entry,
// which the caller releases with releaseWrite.
func (pm *ProcessManager) reserveRead(p *sim.Proc, key uint64, offs []sim.Addr, vals []uint64) (sim.Addr, cluster.Status) {
	t := pm.tables[HomeOf(key)]
	var e sim.Addr
	st := pm.run(p, key, func(h *sim.Proc) cluster.Status {
		return cluster.Reserve(h, t, key, hybrid.Exclusive, func(r sim.Addr) {
			e = r
			for i, off := range offs {
				vals[i] = h.Load(r + hybrid.EntData + off)
			}
		})
	})
	return e, st
}

// releaseWrite stores vals[i] into field offs[i] of the caller's reserved
// entry e and clears its status word, on the descriptor's home cluster. It
// searches for nothing: nobody else can remove a reserved entry, and a
// descriptor never moves.
func (pm *ProcessManager) releaseWrite(p *sim.Proc, key uint64, e sim.Addr, offs []sim.Addr, vals []uint64) {
	t := pm.tables[HomeOf(key)]
	pm.run(p, key, func(h *sim.Proc) cluster.Status {
		for i, off := range offs {
			h.Store(e+hybrid.EntData+off, vals[i])
		}
		t.ReleaseReserve(h, e, hybrid.Exclusive)
		return cluster.StatusOK
	})
}

// The descriptor fields the operations read or write in their reserve and
// release steps.
var (
	destroyFields = []sim.Addr{dFirstChild, dParent, dNextSib}
	sentField     = []sim.Addr{dSent}
	nextSibField  = []sim.Addr{dNextSib}
)

// withDesc reserves the descriptor, runs fn on its home cluster, and
// releases — one round trip. fn's status is returned; Retry means the
// reservation could not be taken.
func (pm *ProcessManager) withDesc(p *sim.Proc, key uint64, fn func(h *sim.Proc, e sim.Addr) cluster.Status) cluster.Status {
	t := pm.tables[HomeOf(key)]
	return pm.run(p, key, func(h *sim.Proc) cluster.Status {
		var e sim.Addr
		if st := cluster.Reserve(h, t, key, hybrid.Exclusive, func(r sim.Addr) { e = r }); st != cluster.StatusOK {
			return st
		}
		st := fn(h, e)
		h.Store(e+hybrid.EntStatus, 0)
		return st
	})
}

// removeDesc unlinks the descriptor from its table; the caller holds the
// reservation (removal clears the status word, waking any spinner into a
// re-search that discovers the removal).
func (pm *ProcessManager) removeDesc(p *sim.Proc, key uint64) {
	t := pm.tables[HomeOf(key)]
	pm.run(p, key, func(h *sim.Proc) cluster.Status {
		t.WithLock(h, func() { t.RemoveLocked(h, key) })
		return cluster.StatusOK
	})
}

// retryBackoff is the doubling threshold of the process manager's
// optimistic retries (sim.Proc.Backoff).
const retryBackoff sim.Duration = 400 * sim.CyclesPerMicrosecond

// --- public operations ---

// Create installs a descriptor for pidKey and, if parentKey is nonzero,
// links it at the head of the parent's child list. The child is inserted
// with its own reserve bit set and holds it across the parent update, so
// concurrent tree walkers never observe a half-linked child; its release
// writes the sibling link.
func (pm *ProcessManager) Create(p *sim.Proc, pidKey, parentKey uint64) error {
	pm.k.checkKey(pidKey, classProc)
	if parentKey != 0 {
		pm.k.checkKey(parentKey, classProc)
	}
	home := HomeOf(pidKey)
	t := pm.tables[home]
	var e sim.Addr
	st := pm.run(p, pidKey, func(h *sim.Proc) cluster.Status {
		e = t.NewEntry(h, pm.k.Topo.HomeModule(home), pidKey)
		h.Store(e+hybrid.EntData+dParent, parentKey)
		h.Store(e+hybrid.EntData+dState, 1)
		if parentKey != 0 {
			h.Store(e+hybrid.EntStatus, 1) // born reserved by the caller
		}
		if !t.Insert(h, e) {
			return cluster.StatusAbsent
		}
		return cluster.StatusOK
	})
	if st != cluster.StatusOK {
		return fmt.Errorf("kernel: process %#x already exists", pidKey)
	}
	if parentKey == 0 {
		return nil
	}

	// Link under the child's reservation; a busy parent releases the child
	// and the next attempt reserves it again.
	var err error
	held := true
	cluster.Retry(p, retryBackoff, &pm.k.Stats.CreateRetries, func() cluster.Status {
		if !held {
			var st cluster.Status
			if e, st = pm.reserveRead(p, pidKey, nil, nil); st != cluster.StatusOK {
				if st == cluster.StatusAbsent {
					err = fmt.Errorf("kernel: new process %#x vanished", pidKey)
				}
				return st
			}
		}
		oldHead := make([]uint64, 1)
		st := pm.withDesc(p, parentKey, func(h *sim.Proc, pe sim.Addr) cluster.Status {
			oldHead[0] = h.Load(pe + hybrid.EntData + dFirstChild)
			h.Store(pe+hybrid.EntData+dFirstChild, pidKey)
			return cluster.StatusOK
		})
		switch st {
		case cluster.StatusOK:
			pm.releaseWrite(p, pidKey, e, nextSibField, oldHead)
			return st
		case cluster.StatusAbsent:
			err = fmt.Errorf("kernel: parent %#x missing", parentKey)
		}
		pm.releaseWrite(p, pidKey, e, nil, nil)
		held = false
		return st
	})
	return err
}

// Alive reports whether the descriptor exists. Uncharged instrumentation,
// callable from outside the simulation.
//
//doclint:keep core's end-to-end tests check process destruction through it
func (pm *ProcessManager) Alive(pidKey uint64) bool {
	return pm.tables[HomeOf(pidKey)].PeekSearch(pidKey) != 0
}

// PeekField reads a descriptor field with no simulated cost
// (instrumentation). Returns 0 for missing descriptors.
func (pm *ProcessManager) PeekField(pidKey uint64, off sim.Addr) uint64 {
	e := pm.tables[HomeOf(pidKey)].PeekSearch(pidKey)
	if e == 0 {
		return 0
	}
	return pm.k.M.Mem.Peek(e + hybrid.EntData + off)
}

// FirstChild reads the family-tree head link (uncharged instrumentation).
//
//doclint:keep core's end-to-end tests check the emptied process tree through it
func (pm *ProcessManager) FirstChild(pidKey uint64) uint64 {
	return pm.PeekField(pidKey, dFirstChild)
}

// Destroy removes a leaf process from the system and from its parent's
// child list — the paper's program-destruction case: up to three
// descriptors (victim, parent, predecessor sibling), potentially in three
// clusters, must be updated consistently. The reserve step on the victim
// reads its child-list head, parent and sibling link. The optimistic
// protocol holds the victim's reserve bit across the remote steps and rolls
// everything back on any conflict; the pessimistic protocol releases the
// victim after the reserve step and re-establishes it, reading its fields
// again, before splicing.
func (pm *ProcessManager) Destroy(p *sim.Proc, victim uint64) error {
	pm.k.checkKey(victim, classProc)
	var err error
	cluster.Retry(p, retryBackoff, &pm.k.Stats.DestroyRetries, func() cluster.Status {
		f := make([]uint64, len(destroyFields)) // first child, parent, sibling link
		e, st := pm.reserveRead(p, victim, destroyFields, f)
		switch st {
		case cluster.StatusAbsent:
			err = fmt.Errorf("kernel: destroy of missing process %#x", victim)
			return st
		case cluster.StatusRetry:
			return st
		}
		if f[0] == 0 && pm.k.cfg.Protocol == Pessimistic {
			pm.releaseWrite(p, victim, e, nil, nil)
			if e, st = pm.reserveRead(p, victim, destroyFields, f); st != cluster.StatusOK {
				return cluster.StatusRetry
			}
			pm.k.Stats.Reestablishments++
		}
		if f[0] != 0 {
			pm.releaseWrite(p, victim, e, nil, nil)
			err = fmt.Errorf("kernel: destroy of non-leaf process %#x", victim)
			return cluster.StatusOK // refused: nothing to retry
		}
		if parent := f[1]; parent != 0 && pm.unlink(p, parent, victim, f[2]) == cluster.StatusRetry {
			// Conflict somewhere in the chain: release our reserve bit,
			// back off, restart from scratch (§2.3).
			pm.releaseWrite(p, victim, e, nil, nil)
			return cluster.StatusRetry
		}
		pm.removeDesc(p, victim)
		return cluster.StatusOK
	})
	return err
}

// unlink splices victim out of parent's child list (victim is reserved by
// the caller, so its own links are frozen). Returns StatusRetry on any
// reserve conflict along the chain.
func (pm *ProcessManager) unlink(p *sim.Proc, parent, victim, vnext uint64) cluster.Status {
	var head uint64
	found := false
	st := pm.withDesc(p, parent, func(h *sim.Proc, e sim.Addr) cluster.Status {
		head = h.Load(e + hybrid.EntData + dFirstChild)
		if head == victim {
			h.Store(e+hybrid.EntData+dFirstChild, vnext)
			found = true
		}
		return cluster.StatusOK
	})
	if st != cluster.StatusOK {
		return st
	}
	if found {
		return cluster.StatusOK
	}
	cur := head
	for cur != 0 {
		var next uint64
		st := pm.withDesc(p, cur, func(h *sim.Proc, e sim.Addr) cluster.Status {
			next = h.Load(e + hybrid.EntData + dNextSib)
			if next == victim {
				h.Store(e+hybrid.EntData+dNextSib, vnext)
				found = true
			}
			return cluster.StatusOK
		})
		if st == cluster.StatusRetry {
			return st
		}
		if st == cluster.StatusAbsent {
			// The chain changed under us (a sibling died): retry.
			return cluster.StatusRetry
		}
		if found {
			return cluster.StatusOK
		}
		cur = next
	}
	// Walked off the end: the chain mutated between our reads; retry.
	return cluster.StatusRetry
}

// Send delivers a message from one process to another: both descriptors
// must be held, and the pair is arbitrary — exactly the no-natural-order
// case §2.5 blames for retries. The optimistic protocol reserves the
// sender, reading its send count, then try-reserves the receiver remotely,
// rolling back on conflict; the pessimistic protocol releases the sender
// before the remote step and re-establishes it, reading the count again,
// afterwards. The sender's release writes the incremented count. A process
// cannot message itself: its own reservation would answer the receiver's
// reserve step with Retry on every attempt.
func (pm *ProcessManager) Send(p *sim.Proc, from, to uint64) error {
	pm.k.checkKey(from, classProc)
	pm.k.checkKey(to, classProc)
	if from == to {
		return fmt.Errorf("kernel: process %#x cannot send to itself", from)
	}
	pessimistic := pm.k.cfg.Protocol == Pessimistic
	sent := make([]uint64, 1)
	var err error
	cluster.Retry(p, retryBackoff, &pm.k.Stats.MsgRetries, func() cluster.Status {
		e, st := pm.reserveRead(p, from, sentField, sent)
		if st != cluster.StatusOK {
			if st == cluster.StatusAbsent {
				err = fmt.Errorf("kernel: sender %#x missing", from)
			}
			return st
		}
		if pessimistic {
			pm.releaseWrite(p, from, e, nil, nil)
		}
		st = pm.withDesc(p, to, func(h *sim.Proc, re sim.Addr) cluster.Status {
			n := h.Load(re + hybrid.EntData + dMsgs)
			h.Store(re+hybrid.EntData+dMsgs, n+1)
			return cluster.StatusOK
		})
		if st != cluster.StatusOK {
			if !pessimistic {
				pm.releaseWrite(p, from, e, nil, nil)
			}
			if st == cluster.StatusAbsent {
				err = fmt.Errorf("kernel: receiver %#x missing", to)
			}
			return st
		}
		if pessimistic {
			// Re-establish the sender to record the send.
			if cluster.Retry(p, retryBackoff, nil, func() cluster.Status {
				e, st = pm.reserveRead(p, from, sentField, sent)
				return st
			}) == cluster.StatusAbsent {
				err = fmt.Errorf("kernel: sender %#x died mid-send", from)
				return cluster.StatusAbsent
			}
			pm.k.Stats.Reestablishments++
		}
		sent[0]++
		pm.releaseWrite(p, from, e, sentField, sent)
		return cluster.StatusOK
	})
	return err
}
