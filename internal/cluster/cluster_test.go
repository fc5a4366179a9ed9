package cluster

import (
	"testing"

	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func newHector(seed uint64) *sim.Machine {
	return sim.NewMachine(sim.Config{Seed: seed})
}

func TestTopologyPartition(t *testing.T) {
	m := newHector(1)
	topo := NewTopology(m, 4)
	if topo.N != 4 {
		t.Fatalf("clusters = %d", topo.N)
	}
	if topo.ClusterOf(0) != 0 || topo.ClusterOf(7) != 1 || topo.ClusterOf(15) != 3 {
		t.Fatal("ClusterOf wrong")
	}
	if got := topo.Procs(2); len(got) != 4 || got[0] != 8 || got[3] != 11 {
		t.Fatalf("Procs(2) = %v", got)
	}
	if topo.Index(9) != 1 {
		t.Fatal("Index wrong")
	}
	// i-th to i-th routing.
	if topo.Peer(6, 3) != 14 {
		t.Fatalf("Peer(6,3) = %d, want 14", topo.Peer(6, 3))
	}
	if topo.HomeModule(2) != 8 {
		t.Fatal("HomeModule wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-dividing cluster size did not panic")
		}
	}()
	NewTopology(m, 3)
}

func TestRPCExecutesOnPeer(t *testing.T) {
	m := newHector(2)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	var ranOn = -1
	for _, id := range topo.Procs(2) {
		m.Go(id, Serve)
	}
	m.Go(5, func(p *sim.Proc) { // index 1 of cluster 1
		st := rpc.Call(p, 2, func(h *sim.Proc) Status {
			ranOn = h.ID()
			return StatusOK
		})
		if st != StatusOK {
			t.Errorf("status = %v", st)
		}
	})
	m.RunAll()
	m.Shutdown()
	if ranOn != 9 { // index 1 of cluster 2
		t.Fatalf("handler ran on %d, want 9", ranOn)
	}
	if rpc.Calls != 1 {
		t.Fatalf("calls = %d", rpc.Calls)
	}
}

func TestRPCStatusRoundTrip(t *testing.T) {
	m := newHector(3)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	m.Go(8, Serve)
	var got []Status
	m.Go(0, func(p *sim.Proc) {
		for _, want := range []Status{StatusOK, StatusRetry, StatusAbsent} {
			want := want
			got = append(got, rpc.Call(p, 2, func(h *sim.Proc) Status { return want }))
		}
	})
	m.RunAll()
	m.Shutdown()
	if len(got) != 3 || got[0] != StatusOK || got[1] != StatusRetry || got[2] != StatusAbsent {
		t.Fatalf("statuses = %v", got)
	}
	if rpc.Retries != 1 {
		t.Fatalf("retries = %d", rpc.Retries)
	}
}

func TestNullRPCCalibration(t *testing.T) {
	// The paper: a null RPC costs 27us. Accept 25-30us.
	m := newHector(4)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	m.Go(12, Serve)
	var took sim.Duration
	m.Go(0, func(p *sim.Proc) {
		start := p.Now()
		rpc.Call(p, 3, func(h *sim.Proc) Status { return StatusOK })
		took = p.Now() - start
	})
	m.RunAll()
	m.Shutdown()
	us := took.Microseconds()
	if us < 25 || us > 30 {
		t.Fatalf("null RPC = %.2fus, want ~27us", us)
	}
}

func TestLocalClusterCallIsDirect(t *testing.T) {
	m := newHector(5)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	ran := false
	m.Go(5, func(p *sim.Proc) {
		st := rpc.Call(p, 1, func(h *sim.Proc) Status {
			ran = h.ID() == 5
			return StatusOK
		})
		if st != StatusOK {
			t.Error("local call failed")
		}
	})
	m.RunAll()
	if !ran {
		t.Fatal("local-cluster call did not run directly on the caller")
	}
}

func TestGateDefersWhileMasked(t *testing.T) {
	m := newHector(6)
	topo := NewTopology(m, 4)
	gate := NewGate(m)
	rpc := NewRPC(topo, gate)
	var handledAt, exitAt sim.Time
	m.Go(4, func(p *sim.Proc) {
		gate.Enter(p)
		p.Think(sim.Micros(100)) // IPI arrives in here; must be deferred
		exitAt = p.Now()
		gate.Exit(p)
		Serve(p)
	})
	m.Go(0, func(p *sim.Proc) {
		p.Think(sim.Micros(10))
		rpc.Call(p, 1, func(h *sim.Proc) Status {
			handledAt = h.Now()
			return StatusOK
		})
	})
	m.RunAll()
	m.Shutdown()
	if handledAt < exitAt {
		t.Fatalf("handler ran at %v, before Exit at %v", handledAt, exitAt)
	}
	if gate.Deferred != 1 {
		t.Fatalf("deferred = %d", gate.Deferred)
	}
}

func TestGateUnmaskedRunsImmediately(t *testing.T) {
	m := newHector(7)
	gate := NewGate(m)
	ran := false
	m.Go(0, func(p *sim.Proc) {
		gate.Dispatch(p, func(*sim.Proc) { ran = true })
	})
	m.RunAll()
	if !ran || gate.Deferred != 0 {
		t.Fatal("unmasked dispatch did not run inline")
	}
}

// replicatedFixture builds a 4-cluster replicated table with all procs
// serving, and runs body on proc `runner` after creating key 42 with
// payload {7, 8}.
func replicatedFixture(t *testing.T, seed uint64, runner int, body func(r *Replicated, p *sim.Proc)) *Replicated {
	t.Helper()
	m := newHector(seed)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 2, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 2 } // fixed home for clarity
	for i := 0; i < m.NumProcs(); i++ {
		if i == runner {
			continue
		}
		m.Go(i, Serve)
	}
	m.Go(runner, func(p *sim.Proc) {
		if !r.Create(p, 42, []uint64{7, 8}) {
			t.Error("create failed")
		}
		body(r, p)
	})
	m.RunAll()
	m.Shutdown()
	return r
}

func TestReplicatedAcquireAtHome(t *testing.T) {
	replicatedFixture(t, 8, 9 /* cluster 2, the home */, func(r *Replicated, p *sim.Proc) {
		e, ok := r.Acquire(p, 42, hybrid.Shared)
		if !ok {
			t.Fatal("acquire at home failed")
		}
		if v := p.Load(e + hybrid.EntData); v != 7 {
			t.Errorf("payload = %d", v)
		}
		r.Release(p, e, hybrid.Shared)
		if r.Replications != 0 {
			t.Error("home acquire should not replicate")
		}
	})
}

func TestReplicatedAcquireRemoteCreatesReplica(t *testing.T) {
	r := replicatedFixture(t, 9, 0 /* cluster 0 */, func(r *Replicated, p *sim.Proc) {
		e, ok := r.Acquire(p, 42, hybrid.Exclusive)
		if !ok {
			t.Fatal("remote acquire failed")
		}
		if v := p.Load(e + hybrid.EntData + 1); v != 8 {
			t.Errorf("replica payload = %d", v)
		}
		if e.Module() != 0 {
			t.Errorf("replica on module %d, want cluster-0 home module 0", e.Module())
		}
		r.Release(p, e, hybrid.Exclusive)
		// Second acquire is a local hit: no new replication.
		if r.Replications != 1 {
			t.Fatalf("replications = %d", r.Replications)
		}
		e2, ok := r.Acquire(p, 42, hybrid.Shared)
		if !ok || e2 != e {
			t.Fatal("second acquire missed the local replica")
		}
		r.Release(p, e2, hybrid.Shared)
		if r.Replications != 1 {
			t.Error("local hit replicated again")
		}
	})
	if r.Replications != 1 {
		t.Fatalf("replications = %d, want 1", r.Replications)
	}
}

func TestReplicatedMissIsAuthoritative(t *testing.T) {
	replicatedFixture(t, 10, 0, func(r *Replicated, p *sim.Proc) {
		if _, ok := r.Acquire(p, 999, hybrid.Shared); ok {
			t.Error("acquire of absent key succeeded")
		}
		// The failed fetch must not leave a placeholder behind.
		if _, ok := r.Local(p).Lookup(p, 999); ok {
			t.Error("placeholder leaked after absent fetch")
		}
	})
}

func TestCombiningOneRPCPerCluster(t *testing.T) {
	// §2.2: when a whole cluster bursts onto a remote datum, only one
	// fetch RPC leaves the cluster; the rest wait on the local reserve bit.
	m := newHector(12)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 2, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 3 }
	for _, id := range topo.Procs(3) {
		if id == 12 {
			continue
		}
		m.Go(id, Serve)
	}
	created := false
	m.Go(12, func(p *sim.Proc) { // home cluster: install the master
		if !r.Create(p, 5, []uint64{1, 2}) {
			t.Error("create failed")
		}
		created = true
		Serve(p)
	})
	acquired := 0
	for i := 0; i < 12; i++ { // clusters 0..2 burst simultaneously
		i := i
		m.Go(i, func(p *sim.Proc) {
			p.Think(sim.Micros(20)) // let the create land first
			e, ok := r.Acquire(p, 5, hybrid.Shared)
			if !ok {
				t.Errorf("proc %d failed to acquire", i)
				return
			}
			acquired++
			r.Release(p, e, hybrid.Shared)
			Serve(p)
		})
	}
	m.RunAll()
	m.Shutdown()
	if !created || acquired != 12 {
		t.Fatalf("created=%v acquired=%d", created, acquired)
	}
	// One fetch per remote cluster, however bursty the demand.
	if r.Replications != 3 {
		t.Fatalf("replications = %d, want 3 (one per remote cluster)", r.Replications)
	}
}

func TestGlobalUpdateReachesAllReplicas(t *testing.T) {
	m := newHector(13)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 2, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 1 }
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		r.Create(p, 7, []uint64{100, 0})
		// Replicate into clusters 0 and 3 (via acquires from procs... we
		// are proc 0; do cluster 0 ourselves).
		e, _ := r.Acquire(p, 7, hybrid.Shared)
		r.Release(p, e, hybrid.Shared)
		// Fetch into cluster 3 by RPCing a helper op that acquires there.
		rpc.Call(p, 3, func(h *sim.Proc) Status {
			he, ok := r.Acquire(h, 7, hybrid.Shared)
			if ok {
				r.Release(h, he, hybrid.Shared)
			}
			return StatusOK
		})
		// Now update globally.
		if !r.GlobalUpdate(p, 7, func(h *sim.Proc, e sim.Addr) {
			h.Store(e+hybrid.EntData, 555)
		}) {
			t.Error("global update failed")
		}
		// Check all copies see the new value.
		for _, c := range []int{0, 1, 3} {
			ce, ok := r.Table(c).Lookup(p, 7)
			if !ok {
				t.Errorf("cluster %d lost its copy", c)
				continue
			}
			if v := topo.M.Mem.Peek(ce + hybrid.EntData); v != 555 {
				t.Errorf("cluster %d copy = %d, want 555", c, v)
			}
		}
		if _, ok := r.Table(2).Lookup(p, 7); ok {
			t.Error("cluster 2 has a copy it never fetched")
		}
	})
	m.RunAll()
	m.Shutdown()
}

func TestGlobalUpdateOfAbsentKey(t *testing.T) {
	m := newHector(14)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		if r.GlobalUpdate(p, 123, func(h *sim.Proc, e sim.Addr) {}) {
			t.Error("update of absent key reported success")
		}
	})
	m.RunAll()
	m.Shutdown()
}

func TestDestroyRemovesEverywhere(t *testing.T) {
	m := newHector(15)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 2 }
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		r.Create(p, 9, []uint64{1})
		e, _ := r.Acquire(p, 9, hybrid.Shared) // replica in cluster 0
		r.Release(p, e, hybrid.Shared)
		if !r.Destroy(p, 9) {
			t.Error("destroy failed")
		}
		for c := 0; c < 4; c++ {
			if _, ok := r.Table(c).Lookup(p, 9); ok {
				t.Errorf("cluster %d still has the key", c)
			}
		}
		if r.Destroy(p, 9) {
			t.Error("double destroy succeeded")
		}
		if _, ok := r.Acquire(p, 9, hybrid.Shared); ok {
			t.Error("acquire after destroy succeeded")
		}
	})
	m.RunAll()
	m.Shutdown()
}

func TestFetchRetriesWhileMasterReserved(t *testing.T) {
	// Optimistic protocol: the fetch handler fails fast on a reserved
	// master and the initiator retries until it clears.
	m := newHector(16)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 2 }
	for i := 1; i < 16; i++ {
		if i == 8 {
			continue
		}
		m.Go(i, Serve)
	}
	// Proc 8 (home cluster) creates and holds the master reserved a while.
	m.Go(8, func(p *sim.Proc) {
		r.Create(p, 4, []uint64{9})
		e, _ := r.Acquire(p, 4, hybrid.Exclusive)
		p.Think(sim.Micros(300))
		r.Release(p, e, hybrid.Exclusive)
		Serve(p)
	})
	var ok bool
	m.Go(0, func(p *sim.Proc) {
		p.Think(sim.Micros(50)) // let the hold start
		_, ok = r.Acquire(p, 4, hybrid.Shared)
		Serve(p)
	})
	m.RunAll()
	m.Shutdown()
	if !ok {
		t.Fatal("acquire never succeeded")
	}
	if r.FetchRetries == 0 {
		t.Fatal("no fetch retries recorded; master hold was not observed")
	}
}
