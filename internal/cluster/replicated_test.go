package cluster

import (
	"testing"

	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func TestSlotModuleStriding(t *testing.T) {
	m := newHector(30)
	t16 := NewTopology(m, 16)
	if t16.SlotModule(0, 0) != 0 || t16.SlotModule(0, 1) != 4 || t16.SlotModule(0, 3) != 12 {
		t.Fatalf("16-wide striding wrong: %d %d %d",
			t16.SlotModule(0, 0), t16.SlotModule(0, 1), t16.SlotModule(0, 3))
	}
	t4 := NewTopology(m, 4)
	if t4.SlotModule(2, 3) != 11 {
		t.Fatalf("4-wide slot 3 of cluster 2 = %d, want 11", t4.SlotModule(2, 3))
	}
	t1 := NewTopology(m, 1)
	if t1.SlotModule(5, 3) != 5 {
		t.Fatalf("1-wide slots must stay on the only module")
	}
}

func TestReplicatedReadFastAndSlowPaths(t *testing.T) {
	m := newHector(31)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 2, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 1 }
	for i := 1; i < 16; i++ {
		if i == 2 {
			continue // proc 2 is the busy-path reader below
		}
		m.Go(i, Serve)
	}
	readerGo := false
	done := false
	m.Go(2, func(q *sim.Proc) {
		for !readerGo {
			q.Park()
		}
		if _, ok := r.Read(q, 9, 2); !ok {
			t.Error("busy read failed")
		}
		done = true
		Serve(q)
	})
	m.Go(0, func(p *sim.Proc) {
		r.Create(p, 9, []uint64{11, 22})
		// Slow path: local miss triggers replication.
		vals, ok := r.Read(p, 9, 2)
		if !ok || vals[0] != 11 || vals[1] != 22 {
			t.Errorf("slow-path read = %v, %v", vals, ok)
		}
		if r.Replications != 1 {
			t.Errorf("replications = %d", r.Replications)
		}
		// Fast path: local hit, no reservation taken, no new replication.
		before := p.Counters().Atomic
		vals, ok = r.Read(p, 9, 2)
		if !ok || vals[0] != 11 {
			t.Errorf("fast-path read failed")
		}
		if atomics := p.Counters().Atomic - before; atomics != 2 {
			t.Errorf("fast-path read used %d atomics, want 2 (one coarse pair)", atomics)
		}
		if r.Replications != 1 {
			t.Errorf("fast path replicated again")
		}
		// Busy path: an exclusive holder forces Read to wait it out.
		e, _ := r.Acquire(p, 9, hybrid.Exclusive)
		readerGo = true
		m.Procs[2].Unpark()
		p.Think(sim.Micros(150))
		if done {
			t.Error("read completed while entry exclusively reserved")
		}
		r.Release(p, e, hybrid.Exclusive)
		Serve(p)
	})
	m.Eng.Run(sim.Micros(500000))
	m.Shutdown()
}

func TestReadAbsentKey(t *testing.T) {
	m := newHector(32)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 2 }
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		if _, ok := r.Read(p, 404, 1); ok {
			t.Error("read of absent key succeeded")
		}
		Serve(p)
	})
	m.Eng.Run(sim.Micros(500000))
	m.Shutdown()
}

func TestBroadcastRetriesUntilClustersAccept(t *testing.T) {
	m := newHector(33)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	attempts := map[int]int{}
	m.Go(0, func(p *sim.Proc) {
		rpc.Broadcast(p, func(h *sim.Proc, c int) Status {
			attempts[c]++
			if c == 1 && attempts[c] < 3 {
				return StatusRetry // cluster 1 rejects twice
			}
			return StatusOK
		})
		Serve(p)
	})
	m.Eng.Run(sim.Micros(500000))
	m.Shutdown()
	if attempts[1] != 3 {
		t.Errorf("cluster 1 attempts = %d, want 3", attempts[1])
	}
	if attempts[0] != 1 || attempts[2] != 1 || attempts[3] != 1 {
		t.Errorf("cooperative clusters called %d/%d/%d times, want once", attempts[0], attempts[2], attempts[3])
	}
}

func TestCreateRemoteDuplicateRefused(t *testing.T) {
	m := newHector(34)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 3 }
	for i := 1; i < 16; i++ {
		m.Go(i, Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		if !r.Create(p, 5, []uint64{1}) {
			t.Error("first create failed")
		}
		if r.Create(p, 5, []uint64{2}) {
			t.Error("duplicate create succeeded")
		}
		Serve(p)
	})
	m.Eng.Run(sim.Micros(500000))
	m.Shutdown()
}

func TestNoCombineLosesRaceGracefully(t *testing.T) {
	// With NoCombine, two processors of one cluster fetch independently;
	// the loser must fall back to the winner's installed copy.
	m := newHector(35)
	topo := NewTopology(m, 4)
	rpc := NewRPC(topo, NewGate(m))
	r := NewReplicated(topo, rpc, 8, 1, locks.KindH2MCS)
	r.HomeOf = func(key uint64) int { return 3 }
	r.NoCombine = true
	for _, id := range topo.Procs(3) {
		if id != 12 {
			m.Go(id, Serve)
		}
	}
	m.Go(12, func(p *sim.Proc) {
		r.Create(p, 8, []uint64{77})
		Serve(p)
	})
	got := 0
	for _, id := range []int{0, 1} {
		m.Go(id, func(p *sim.Proc) {
			p.Think(sim.Micros(30))
			e, ok := r.Acquire(p, 8, hybrid.Shared)
			if !ok || p.Load(e+hybrid.EntData) != 77 {
				t.Error("no-combine acquire failed")
				return
			}
			got++
			r.Release(p, e, hybrid.Shared)
			Serve(p)
		})
	}
	m.Eng.Run(sim.Micros(500000))
	m.Shutdown()
	if got != 2 {
		t.Fatalf("acquired = %d", got)
	}
	if r.Replications != 2 {
		t.Fatalf("replications = %d, want 2 (both fetched)", r.Replications)
	}
	// The cluster still holds exactly one linked copy despite two fetches.
	if r.Table(0).PeekSearch(8) == 0 {
		t.Fatal("no copy installed in cluster 0")
	}
}

func TestGateMaskedReportsState(t *testing.T) {
	m := newHector(36)
	g := NewGate(m)
	m.Go(0, func(p *sim.Proc) {
		if g.Masked(p) {
			t.Error("fresh gate masked")
		}
		g.Enter(p)
		if !g.Masked(p) {
			t.Error("entered gate not masked")
		}
		g.Exit(p)
		if g.Masked(p) {
			t.Error("exited gate still masked")
		}
	})
	m.RunAll()
}
