package cluster

import (
	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// Replicated is a clustered, replicated hash table (Figure 2): each cluster
// has its own hybrid-locked instance; every key has a home cluster holding
// the master copy; other clusters acquire local replicas on demand through
// RPC. Replication increases aggregate lock bandwidth and bounds the
// contention on any copy to the cluster size.
//
// Replica acquisition uses the combining discipline of §2.2: the first
// processor of a cluster to miss creates a local placeholder entry with its
// reserve bit set before issuing the RPC, so other processors of that
// cluster wait on the local bit instead of issuing redundant remote
// requests — at most one fetch per cluster reaches the master, however
// bursty the demand.
//
// Cross-cluster operations follow the §2.3 optimistic deadlock avoidance
// protocol: an RPC handler never waits on a reserve bit; it fails with
// StatusRetry (Reserve) and the initiator backs off and retries (Retry).
type Replicated struct {
	topo    *Topology
	rpc     *RPC
	tables  []*hybrid.Table
	payload int

	// HomeOf computes a key's home cluster (the paper's "data specific
	// location resolution technique"): a pure function, so resolution
	// costs nothing at run time.
	HomeOf func(key uint64) int

	// NoCombine disables the per-cluster combining of replica fetches:
	// every processor that misses issues its own RPC. Ablation baseline
	// only — the paper's design always combines.
	NoCombine bool

	// Stats
	Replications uint64 // replicas created
	FetchRetries uint64 // optimistic fetch retries (master was busy)
}

// Entries carry one hidden word after the user payload: on master entries
// it is the replica bitmask.
func (r *Replicated) maskOff() sim.Addr { return hybrid.EntData + sim.Addr(r.payload) }

// NewReplicated builds per-cluster tables of nbuckets chains and payload
// user words, each protected by its own coarse lock of the given kind.
// Each cluster's instance is placed on the cluster's home module.
func NewReplicated(topo *Topology, rpc *RPC, nbuckets, payload int, kind locks.Kind) *Replicated {
	lockOf := func(c int) locks.Lock { return locks.New(topo.M, kind, topo.HomeModule(c)) }
	return NewReplicatedShared(topo, rpc, nbuckets, payload, lockOf, topo.HomeModule)
}

// NewReplicatedShared builds the per-cluster instances over caller-provided
// coarse locks (lockOf) and modules (moduleOf), so several replicated
// tables can share one lock per cluster — the hybrid pattern of a single
// coarse lock protecting several structures.
func NewReplicatedShared(topo *Topology, rpc *RPC, nbuckets, payload int,
	lockOf func(c int) locks.Lock, moduleOf func(c int) int) *Replicated {
	r := &Replicated{
		topo:    topo,
		rpc:     rpc,
		tables:  make([]*hybrid.Table, topo.N),
		payload: payload,
	}
	for c := 0; c < topo.N; c++ {
		r.tables[c] = hybrid.NewShared(topo.M, lockOf(c), moduleOf(c), nbuckets, payload+1)
	}
	r.HomeOf = func(key uint64) int { return int(key % uint64(topo.N)) }
	return r
}

// Table exposes cluster c's instance (tests and kernel code that needs
// multi-reserve holds).
func (r *Replicated) Table(c int) *hybrid.Table { return r.tables[c] }

// SetGuard installs a critical-section guard (the logical interrupt mask)
// on every cluster's instance.
func (r *Replicated) SetGuard(g interface {
	Enter(*sim.Proc)
	Exit(*sim.Proc)
}) {
	for _, t := range r.tables {
		t.Guard = g
	}
}

// Local returns the calling processor's cluster table.
func (r *Replicated) Local(p *sim.Proc) *hybrid.Table {
	return r.tables[r.topo.ClusterOf(p.ID())]
}

// Create installs a new master entry for key on its home cluster with the
// given initial payload. It reports false if the key already exists there:
// creation races only with other creates, and the first one wins.
func (r *Replicated) Create(p *sim.Proc, key uint64, init []uint64) bool {
	home := r.HomeOf(key)
	c := r.topo.ClusterOf(p.ID())
	install := func(h *sim.Proc) Status {
		t := r.tables[home]
		e := t.NewEntry(h, r.topo.HomeModule(home), key)
		for i, v := range init {
			h.Store(e+hybrid.EntData+sim.Addr(i), v)
		}
		h.Store(e+r.maskOff(), 1<<uint(home))
		if !t.Insert(h, e) {
			return StatusAbsent // already exists
		}
		return StatusOK
	}
	if home == c {
		return install(p) == StatusOK
	}
	return r.rpc.Call(p, home, install) == StatusOK
}

// Acquire finds (or replicates) the entry for key in the caller's cluster
// and returns it with the requested reservation held. ok is false only if
// the key does not exist anywhere.
func (r *Replicated) Acquire(p *sim.Proc, key uint64, mode hybrid.Mode) (sim.Addr, bool) {
	c := r.topo.ClusterOf(p.ID())
	t := r.tables[c]

	if e, ok := t.Reserve(p, key, mode); ok {
		return e, true
	}
	home := r.HomeOf(key)
	if home == c {
		return 0, false // we are the home: a miss here is authoritative
	}

	if r.NoCombine {
		return r.acquireNoCombine(p, t, key, mode, home, c)
	}

	// Prepare a placeholder before taking the lock, then race to install
	// it. Whoever installs it fetches; everyone else waits on its bit.
	cand := t.NewEntry(p, r.topo.HomeModule(c), key)
	if !installIfAbsent(p, t, key, cand, hybrid.Exclusive) {
		// Someone else is fetching (or already has): take the normal
		// path, which waits on their reserve bit.
		return t.Reserve(p, key, mode)
	}

	data, ok := r.fetchData(p, key, home, c)
	if !ok {
		t.WithLock(p, func() { t.RemoveLocked(p, key) })
		return 0, false
	}
	for i, v := range data {
		p.Store(cand+hybrid.EntData+sim.Addr(i), v)
	}
	r.Replications++
	if mode == hybrid.Exclusive {
		return cand, true // we already hold it exclusively
	}
	// Downgrade our exclusive hold to the requested shared one.
	t.WithLock(p, func() {
		p.Store(cand+hybrid.EntStatus, 2) // one reader
	})
	return cand, true
}

// acquireNoCombine is the ablation path: fetch unconditionally, then
// install the copy if nobody else beat us to it.
func (r *Replicated) acquireNoCombine(p *sim.Proc, t *hybrid.Table, key uint64, mode hybrid.Mode, home, c int) (sim.Addr, bool) {
	data, ok := r.fetchData(p, key, home, c)
	if !ok {
		return 0, false
	}
	cand := t.NewEntry(p, r.topo.HomeModule(c), key)
	for i, v := range data {
		p.Store(cand+hybrid.EntData+sim.Addr(i), v)
	}
	r.Replications++
	if installIfAbsent(p, t, key, cand, mode) {
		return cand, true
	}
	return t.Reserve(p, key, mode) // lost the race: use the winner's copy
}

// installIfAbsent links cand into t under t's coarse lock, reserved in
// mode, unless key is already there; it reports whether cand went in.
func installIfAbsent(p *sim.Proc, t *hybrid.Table, key uint64, cand sim.Addr, mode hybrid.Mode) bool {
	installed := false
	t.WithLock(p, func() {
		if t.SearchLocked(p, key) == 0 {
			t.InsertLocked(p, cand)
			t.TryReserveLocked(p, cand, mode)
			installed = true
		}
	})
	return installed
}

// fetchData copies the master's payload, retrying optimistically while the
// master is reserved. ok is false if the key does not exist at its home.
func (r *Replicated) fetchData(p *sim.Proc, key uint64, home, c int) ([]uint64, bool) {
	var data []uint64
	st := Retry(p, sim.Micros(200), &r.FetchRetries, func() Status {
		return r.rpc.Call(p, home, func(h *sim.Proc) Status {
			return Reserve(h, r.tables[home], key, hybrid.Shared, func(me sim.Addr) {
				data = make([]uint64, r.payload)
				for i := range data {
					data[i] = h.Load(me + hybrid.EntData + sim.Addr(i))
				}
				mask := h.Load(me + r.maskOff())
				h.Store(me+r.maskOff(), mask|1<<uint(c))
				stw := h.Load(me + hybrid.EntStatus) // drop the shared hold
				h.Store(me+hybrid.EntStatus, stw-2)
			})
		})
	})
	return data, st == StatusOK
}

// Release drops a reservation taken by Acquire.
func (r *Replicated) Release(p *sim.Proc, e sim.Addr, mode hybrid.Mode) {
	r.Local(p).ReleaseReserve(p, e, mode)
}

// Read copies the first nwords payload words of key's local copy without
// reserving it — the hybrid fast path for read-only lookups: one coarse
// lock hold, no reserve-bit traffic. If the local copy is missing (not yet
// replicated) or exclusively reserved (being modified or still being
// fetched), it falls back to a shared Acquire, which replicates or waits as
// needed.
func (r *Replicated) Read(p *sim.Proc, key uint64, nwords int) ([]uint64, bool) {
	t := r.Local(p)
	vals := make([]uint64, nwords)
	state := 0 // 0 = miss, 1 = ok, 2 = busy
	t.WithLock(p, func() {
		e := t.SearchLocked(p, key)
		if e == 0 {
			return
		}
		if p.Load(e+hybrid.EntStatus)&1 != 0 {
			state = 2
			return
		}
		for i := range vals {
			vals[i] = p.Load(e + hybrid.EntData + sim.Addr(i))
		}
		state = 1
	})
	if state == 1 {
		return vals, true
	}
	e, ok := r.Acquire(p, key, hybrid.Shared)
	if !ok {
		return nil, false
	}
	for i := range vals {
		vals[i] = p.Load(e + hybrid.EntData + sim.Addr(i))
	}
	r.Release(p, e, hybrid.Shared)
	return vals, true
}

// reserveMaster is the first phase of GlobalUpdate and Destroy: it
// reserves key's master exclusively at home, retrying while another
// holder has it, and reads the replica mask in the same hold. Then, if
// then is non-nil, it runs then on the master at home. ok is false if the
// key does not exist.
func (r *Replicated) reserveMaster(p *sim.Proc, key uint64, then func(h *sim.Proc, e sim.Addr)) (mask uint64, ok bool) {
	home := r.HomeOf(key)
	st := Retry(p, sim.Micros(200), nil, func() Status {
		return r.rpc.Call(p, home, func(h *sim.Proc) Status {
			var me sim.Addr
			st := Reserve(h, r.tables[home], key, hybrid.Exclusive, func(e sim.Addr) {
				me = e
				mask = h.Load(e + r.maskOff())
			})
			if st == StatusOK && then != nil {
				then(h, me)
			}
			return st
		})
	})
	return mask, st == StatusOK
}

// GlobalUpdate applies update to the master and every replica of key,
// using the pessimistic discipline of §2.5 for broadcasts: the caller
// holds no local locks or reserve bits while the update runs. The master
// stays exclusively reserved for the duration, so concurrent replica
// fetches and updates retry rather than observing a half-updated world.
// Returns false if the key does not exist.
func (r *Replicated) GlobalUpdate(p *sim.Proc, key uint64, update func(h *sim.Proc, e sim.Addr)) bool {
	mask, ok := r.reserveMaster(p, key, update)
	if !ok {
		return false
	}
	home := r.HomeOf(key)

	// Update each replica cluster, retrying per cluster while its copy is
	// reserved by local users.
	r.rpc.Broadcast(p, func(h *sim.Proc, c int) Status {
		if c == home || mask&(1<<uint(c)) == 0 {
			return StatusOK
		}
		var ce sim.Addr
		switch Reserve(h, r.tables[c], key, hybrid.Exclusive, func(e sim.Addr) { ce = e }) {
		case StatusRetry:
			return StatusRetry
		case StatusAbsent:
			return StatusOK // replica discarded meanwhile
		}
		update(h, ce)
		h.Store(ce+hybrid.EntStatus, 0)
		return StatusOK
	})

	// Release the master.
	r.rpc.Call(p, home, func(h *sim.Proc) Status {
		ht := r.tables[home]
		if me, ok := ht.Lookup(h, key); ok {
			h.Store(me+hybrid.EntStatus, 0)
		}
		return StatusOK
	})
	return true
}

// Destroy removes the master and all replicas of key. Same protocol shape
// as GlobalUpdate, except that a replica a local user holds answers
// StatusRetry without being reserved. Returns false if the key does not
// exist.
func (r *Replicated) Destroy(p *sim.Proc, key uint64) bool {
	mask, ok := r.reserveMaster(p, key, nil)
	if !ok {
		return false
	}
	home := r.HomeOf(key)
	r.rpc.Broadcast(p, func(h *sim.Proc, c int) Status {
		if c == home || mask&(1<<uint(c)) == 0 {
			return StatusOK
		}
		ct := r.tables[c]
		res := StatusOK
		ct.WithLock(h, func() {
			ce := ct.SearchLocked(h, key)
			if ce == 0 {
				return
			}
			if h.Load(ce+hybrid.EntStatus) != 0 {
				res = StatusRetry // a local user holds the replica
				return
			}
			ct.RemoveLocked(h, key)
		})
		return res
	})
	// Finally remove the master itself.
	r.rpc.Call(p, home, func(h *sim.Proc) Status {
		ht := r.tables[home]
		ht.WithLock(h, func() { ht.RemoveLocked(h, key) })
		return StatusOK
	})
	return true
}
