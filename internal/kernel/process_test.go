package kernel

import (
	"strings"
	"testing"

	"hurricane/internal/cluster"
	"hurricane/internal/hybrid"
	"hurricane/internal/sim"
)

// runOnCluster0 runs body on processor 0 (cluster 0 of 4 clusters of 4)
// while every other processor serves RPCs, and returns the kernel.
func runOnCluster0(t *testing.T, proto Protocol, body func(p *sim.Proc, k *Kernel)) *Kernel {
	t.Helper()
	k := newKernel(11, 4, proto)
	if k.Topo.N != 4 {
		t.Fatalf("%d clusters, want 4", k.Topo.N)
	}
	for i := 1; i < 16; i++ {
		k.M.Go(i, cluster.Serve)
	}
	k.M.Go(0, func(p *sim.Proc) {
		body(p, k)
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(1000000))
	return k
}

// rpcs returns the RPC calls op makes.
func rpcs(k *Kernel, op func()) uint64 {
	c0 := k.RPC.Calls
	op()
	return k.RPC.Calls - c0
}

// status peeks at the descriptor's reserve word.
func status(t *testing.T, k *Kernel, key uint64) uint64 {
	t.Helper()
	e := k.PM.tables[HomeOf(key)].PeekSearch(key)
	if e == 0 {
		t.Fatalf("descriptor %#x missing", key)
	}
	return k.M.Mem.Peek(e + hybrid.EntStatus)
}

func forBothProtocols(t *testing.T, f func(t *testing.T, proto Protocol)) {
	for _, proto := range []Protocol{Optimistic, Pessimistic} {
		t.Run(proto.String(), func(t *testing.T) { f(t, proto) })
	}
}

// TestCreateRPCs: the child is inserted already reserved and its release
// writes the sibling link, so a child homed on another cluster costs the
// insert, the parent update (when remote) and the release.
func TestCreateRPCs(t *testing.T) {
	forBothProtocols(t, func(t *testing.T, proto Protocol) {
		for _, tc := range []struct {
			name   string
			parent uint64
			want   uint64
		}{
			{"remote parent", PIDKey(1, 1), 3},
			{"parent on the caller's cluster", PIDKey(0, 1), 2},
		} {
			var got uint64
			kids := []uint64{PIDKey(2, 2), PIDKey(2, 3)}
			k := runOnCluster0(t, proto, func(p *sim.Proc, k *Kernel) {
				if err := k.PM.Create(p, tc.parent, 0); err != nil {
					t.Error(err)
				}
				if err := k.PM.Create(p, kids[0], tc.parent); err != nil {
					t.Error(err)
				}
				got = rpcs(k, func() {
					if err := k.PM.Create(p, kids[1], tc.parent); err != nil {
						t.Error(err)
					}
				})
			})
			if got != tc.want {
				t.Errorf("%s: Create made %d RPCs, want %d", tc.name, got, tc.want)
			}
			if n := k.PM.PeekField(kids[1], dNextSib); n != kids[0] {
				t.Errorf("%s: released sibling link %#x, want %#x", tc.name, n, kids[0])
			}
			if fc := k.PM.FirstChild(tc.parent); fc != kids[1] {
				t.Errorf("%s: parent's first child %#x, want %#x", tc.name, fc, kids[1])
			}
			for _, key := range append(kids, tc.parent) {
				if st := status(t, k, key); st != 0 {
					t.Errorf("%s: %#x left with status %d", tc.name, key, st)
				}
			}
		}
	})
}

// TestCreateHidesHalfLinkedChild: a poller samples the table every
// microsecond while a second child is linked under a remote parent. The
// child is inserted already reserved, so whenever it is present with its
// reserve word clear, the parent already points at it and its own sibling
// link is written.
func TestCreateHidesHalfLinkedChild(t *testing.T) {
	parent, first, second := PIDKey(1, 1), PIDKey(2, 2), PIDKey(2, 3)
	k := newKernel(11, 4, Optimistic)
	for i := 1; i < 16; i++ {
		if i != 13 {
			k.M.Go(i, cluster.Serve)
		}
	}
	done, samples := false, 0
	k.M.Go(13, func(p *sim.Proc) {
		for !done {
			p.Think(sim.Micros(1))
			e := k.PM.tables[2].PeekSearch(second)
			if e == 0 {
				continue
			}
			samples++
			if k.M.Mem.Peek(e+hybrid.EntStatus) == 0 &&
				(k.PM.FirstChild(parent) != second || k.PM.PeekField(second, dNextSib) != first) {
				t.Errorf("at %v: child unreserved before its link is complete", p.Now())
				done = true
			}
		}
		cluster.Serve(p)
	})
	k.M.Go(0, func(p *sim.Proc) {
		k.PM.Create(p, parent, 0)
		k.PM.Create(p, first, parent)
		if err := k.PM.Create(p, second, parent); err != nil {
			t.Error(err)
		}
		p.Think(sim.Micros(5))
		done = true
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(1000000))
	if samples < 10 {
		t.Fatalf("poller saw the child %d times", samples)
	}
}

// TestSendRPCs: a send from cluster 0 of a process homed on cluster 2 to
// one on cluster 1 reads the send count in the sender's reserve step and
// writes it in the release: reserve, receiver update, release. The
// pessimistic protocol adds its release and re-establishment.
func TestSendRPCs(t *testing.T) {
	forBothProtocols(t, func(t *testing.T, proto Protocol) {
		from, to := PIDKey(2, 1), PIDKey(1, 2)
		var got uint64
		k := runOnCluster0(t, proto, func(p *sim.Proc, k *Kernel) {
			k.PM.Create(p, from, 0)
			k.PM.Create(p, to, 0)
			k.PM.Send(p, from, to)
			got = rpcs(k, func() {
				if err := k.PM.Send(p, from, to); err != nil {
					t.Error(err)
				}
			})
		})
		want := map[Protocol]uint64{Optimistic: 3, Pessimistic: 5}[proto]
		if got != want {
			t.Errorf("Send made %d RPCs, want %d", got, want)
		}
		if n := k.PM.PeekField(from, dSent); n != 2 {
			t.Errorf("sender's count %d, want 2", n)
		}
		if n := k.PM.PeekField(to, dMsgs); n != 2 {
			t.Errorf("receiver's count %d, want 2", n)
		}
		for _, key := range []uint64{from, to} {
			if st := status(t, k, key); st != 0 {
				t.Errorf("%#x left with status %d", key, st)
			}
		}
	})
}

// TestSendToSelfReturns: a process messaging itself is refused under both
// protocols with an error, before any RPC, and leaves its descriptor
// unreserved. Under the optimistic protocol the sender's own reservation
// would otherwise answer the receiver's reserve step with Retry forever.
func TestSendToSelfReturns(t *testing.T) {
	forBothProtocols(t, func(t *testing.T, proto Protocol) {
		a := PIDKey(2, 1)
		var err error
		var calls uint64
		returned := false
		k := runOnCluster0(t, proto, func(p *sim.Proc, k *Kernel) {
			k.PM.Create(p, a, 0)
			calls = rpcs(k, func() { err = k.PM.Send(p, a, a) })
			returned = true
		})
		if !returned {
			t.Fatal("Send(a, a) had not returned after one simulated second")
		}
		if err == nil || !strings.Contains(err.Error(), "itself") {
			t.Errorf("Send(a, a) = %v, want an error naming the self-send", err)
		}
		if calls != 0 {
			t.Errorf("Send(a, a) made %d RPCs, want 0", calls)
		}
		if st := status(t, k, a); st != 0 {
			t.Errorf("%#x left with status %d", a, st)
		}
	})
}

// TestDestroyRPCs: destroying from cluster 0 a process homed on cluster 2
// whose parent is homed on cluster 1 reads all three links in the reserve
// step: reserve, parent splice, remove. The pessimistic protocol adds its
// release and re-establishment.
func TestDestroyRPCs(t *testing.T) {
	forBothProtocols(t, func(t *testing.T, proto Protocol) {
		parent, victim := PIDKey(1, 1), PIDKey(2, 2)
		var got uint64
		k := runOnCluster0(t, proto, func(p *sim.Proc, k *Kernel) {
			k.PM.Create(p, parent, 0)
			k.PM.Create(p, victim, parent)
			got = rpcs(k, func() {
				if err := k.PM.Destroy(p, victim); err != nil {
					t.Error(err)
				}
			})
		})
		want := map[Protocol]uint64{Optimistic: 3, Pessimistic: 5}[proto]
		if got != want {
			t.Errorf("Destroy made %d RPCs, want %d", got, want)
		}
		if k.PM.Alive(victim) {
			t.Error("victim still alive")
		}
		if fc := k.PM.FirstChild(parent); fc != 0 {
			t.Errorf("parent's first child %#x, want 0", fc)
		}
		if st := status(t, k, parent); st != 0 {
			t.Errorf("parent left with status %d", st)
		}
	})
}

// TestCheckQuiescent: a run that released everything passes, and a
// reservation nobody released makes the check panic with its table and key.
func TestCheckQuiescent(t *testing.T) {
	leaked := PIDKey(3, 7)
	k := runOnCluster0(t, Optimistic, func(p *sim.Proc, k *Kernel) {
		root, kid := PIDKey(0, 1), PIDKey(1, 2)
		k.PM.Create(p, root, 0)
		k.PM.Create(p, kid, root)
		k.PM.Send(p, root, kid)
		k.PM.Destroy(p, kid)
		region := setupPrivate(p, k, 2, 5, 1, 1, 0)
		if _, err := k.VM.Fault(p, 1, region, 0, true); err != nil {
			t.Error(err)
		}
		k.VM.Unmap(p, 1, region, 0)
		k.PM.Create(p, leaked, 0)
		k.CheckQuiescent()
		if _, st := k.PM.reserveRead(p, leaked, nil, nil); st != cluster.StatusOK {
			t.Errorf("reserve: status %d", st)
		}
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "key 0x304000000000007 in cluster 3's process table") {
			t.Errorf("check did not name the leaked reservation: %q", msg)
		}
	}()
	k.CheckQuiescent()
}
