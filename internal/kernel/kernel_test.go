package kernel

import (
	"slices"
	"strings"
	"testing"

	"hurricane/internal/cluster"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func newKernel(seed uint64, clusterSize int, proto Protocol) *Kernel {
	m := sim.NewMachine(sim.Config{Seed: seed})
	return New(m, Config{ClusterSize: clusterSize, LockKind: locks.KindH2MCS, Protocol: proto})
}

// setupPrivate creates a region+FCBs+pages for one process homed on the
// given cluster, with npages pages, returning the region key.
func setupPrivate(p *sim.Proc, k *Kernel, home int, id uint64, npages int, refcount, flags uint64) uint64 {
	region := MakeKey(home, classRegion, id<<16)
	file := MakeKey(home, classFCB, id<<16)
	base := MakeKey(home, classPage, id<<16)
	k.VM.SetupRegion(p, region, file, base)
	for v := 0; v < npages; v++ {
		k.VM.SetupFCB(p, file+uint64(v))
		k.VM.SetupPage(p, base+uint64(v), refcount, flags, id<<16|uint64(v))
	}
	return region
}

// Controllers finds every tuned kernel lock's controller, three per
// cluster, also behind the locks.Stats wrapper a traced run puts on each
// memory-manager lock.
func TestControllersSeeThroughStats(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	k := New(m, Config{ClusterSize: 4, LockKind: locks.KindTuned})
	bare := k.Controllers()
	if len(bare) != 3*k.Topo.N {
		t.Fatalf("%d controllers in %d clusters, want 3 per cluster", len(bare), k.Topo.N)
	}
	for c := 0; c < k.Topo.N; c++ {
		k.VM.SetMMLock(c, locks.NewStats(m, k.VM.MMLock(c)))
	}
	if wrapped := k.Controllers(); !slices.Equal(wrapped, bare) {
		t.Fatalf("with Stats-wrapped memory-manager locks Controllers returns %d controllers, want the same %d",
			len(wrapped), len(bare))
	}
}

func TestKeyEncoding(t *testing.T) {
	k := MakeKey(3, classPage, 12345)
	if HomeOf(k) != 3 || ClassOf(k) != classPage || k&0xffff != 12345 {
		t.Fatalf("key round trip failed: %#x", k)
	}
}

func TestSoftFaultCalibration(t *testing.T) {
	// §1: a simple page fault costs ~160us, ~40us of it locking.
	k := newKernel(1, 16, Optimistic)
	var took sim.Duration
	var atomics uint64
	k.M.Go(0, func(p *sim.Proc) {
		region := setupPrivate(p, k, 0, 1, 4, 1, 0)
		// Warm up (touch all tables once).
		if _, err := k.VM.Fault(p, 100, region, 0, true); err != nil {
			t.Error(err)
		}
		before := p.Counters()
		start := p.Now()
		if _, err := k.VM.Fault(p, 100, region, 1, true); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
		atomics = p.Counters().Sub(before).Atomic
	})
	k.M.RunAll()
	us := took.Microseconds()
	if us < 140 || us > 180 {
		t.Errorf("soft fault = %.1fus, want ~160us", us)
	}
	// Concurrency-control overhead = total minus the fixed fault work and
	// the two PTE stores: everything else is locks, searches under locks,
	// and reserve-bit handling. The paper attributes ~40us of the 160us to
	// lock overhead.
	lockUS := us - FaultWorkCycles().Microseconds() - 1.5
	if lockUS < 18 || lockUS > 45 {
		t.Errorf("lock overhead = %.1fus of %.1fus, want ~40us", lockUS, us)
	}
	if atomics < 4 || atomics > 10 {
		t.Errorf("atomics per fault = %d, want 4-10 (the hybrid scheme's few coarse pairs)", atomics)
	}
}

func TestFaultInstallsAndUnmapClearsPTE(t *testing.T) {
	k := newKernel(2, 16, Optimistic)
	k.M.Go(0, func(p *sim.Proc) {
		region := setupPrivate(p, k, 0, 2, 2, 1, 0)
		if _, err := k.VM.Fault(p, 7, region, 0, false); err != nil {
			t.Fatal(err)
		}
		if pte := k.M.Mem.Peek(k.VM.pt(7, 0)); pte&1 != 1 {
			t.Fatalf("PTE not installed: %#x", pte)
		}
		if err := k.VM.Unmap(p, 7, region, 0); err != nil {
			t.Fatal(err)
		}
		if pte := k.M.Mem.Peek(k.VM.pt(7, 0)); pte != 0 {
			t.Fatalf("PTE not cleared: %#x", pte)
		}
		// Re-fault after unmap (the shared-fault test's cycle).
		if _, err := k.VM.Fault(p, 7, region, 0, false); err != nil {
			t.Fatal(err)
		}
		if pte := k.M.Mem.Peek(k.VM.pt(7, 0)); pte&1 != 1 {
			t.Fatal("re-fault did not reinstall PTE")
		}
	})
	k.M.RunAll()
	if k.Stats.Faults != 2 {
		t.Fatalf("faults = %d", k.Stats.Faults)
	}
}

func TestFaultOnMissingObjectsFails(t *testing.T) {
	k := newKernel(3, 16, Optimistic)
	k.M.Go(0, func(p *sim.Proc) {
		if _, err := k.VM.Fault(p, 1, MakeKey(0, classRegion, 999), 0, false); err == nil {
			t.Error("fault on absent region succeeded")
		}
		region := MakeKey(0, classRegion, 5<<16)
		k.VM.SetupRegion(p, region, MakeKey(0, classFCB, 5<<16), MakeKey(0, classPage, 5<<16))
		if _, err := k.VM.Fault(p, 1, region, 0, false); err == nil {
			t.Error("fault with absent FCB succeeded")
		}
		k.VM.SetupFCB(p, MakeKey(0, classFCB, 5<<16))
		if _, err := k.VM.Fault(p, 1, region, 0, false); err == nil {
			t.Error("fault with absent page descriptor succeeded")
		}
	})
	k.M.RunAll()
}

func TestRemoteFaultReplicatesDescriptors(t *testing.T) {
	k := newKernel(4, 4, Optimistic) // 4 clusters of 4
	var first, second sim.Duration
	for i := 4; i < 16; i++ {
		k.M.Go(i, cluster.Serve)
	}
	k.M.Go(0, func(p *sim.Proc) {
		// Region homed on cluster 1; we fault from cluster 0.
		region := setupPrivate(p, k, 1, 3, 2, 1, 0)
		start := p.Now()
		if _, err := k.VM.Fault(p, 9, region, 0, false); err != nil {
			t.Error(err)
		}
		first = p.Now() - start
		// Same vpn again: everything is now replicated locally.
		start = p.Now()
		if _, err := k.VM.Fault(p, 9, region, 0, false); err != nil {
			t.Error(err)
		}
		second = p.Now() - start
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(50000))
	if k.VM.Pages().Replications == 0 || k.VM.regions.Replications == 0 {
		t.Fatal("remote fault did not replicate descriptors")
	}
	// The replication premium: the paper reports ~88us for a cluster-wide
	// lookup + one descriptor replication. Our first fault replicates
	// region+FCB+page (three fetches), so expect roughly 2-4x a null RPC
	// over the local fault.
	premium := (first - second).Microseconds()
	if premium < 60 || premium > 380 {
		t.Errorf("replication premium = %.1fus, want 60-380us (paper: ~88us per descriptor)", premium)
	}
}

func TestCOWFaultsInstantiatePrivatePages(t *testing.T) {
	k := newKernel(5, 4, Optimistic)
	procs := []int{0, 4, 8} // three different clusters
	region := uint64(0)
	done := 0
	for i := 0; i < 16; i++ {
		busy := i == 12
		for _, pr := range procs {
			if pr == i {
				busy = true
			}
		}
		if !busy {
			k.M.Go(i, cluster.Serve)
		}
	}
	k.M.Go(12, func(p *sim.Proc) {
		region = setupPrivate(p, k, 3, 4, 1, 3, FlagCOW) // refcount 3, COW
		for _, pr := range procs {
			pr := pr
			k.M.Go(pr, func(p *sim.Proc) {
				res, err := k.VM.Fault(p, uint64(100+pr), region, 0, true)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.COWCopied {
					t.Errorf("proc %d: write fault on shared COW page did not copy", pr)
				}
				done++
				cluster.Serve(p)
			})
		}
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(1000000))
	if done != 3 {
		t.Fatalf("completed COW faults = %d", done)
	}
	if k.Stats.COWCopies != 3 {
		t.Fatalf("COW copies = %d, want 3", k.Stats.COWCopies)
	}
}

func TestCoherenceWriteNotices(t *testing.T) {
	k := newKernel(6, 4, Optimistic)
	for i := 1; i < 16; i++ {
		k.M.Go(i, cluster.Serve)
	}
	var region uint64
	k.M.Go(0, func(p *sim.Proc) {
		region = setupPrivate(p, k, 1, 5, 1, 1, FlagCoherent)
		// Two write faults from a non-home cluster: two notices.
		if _, err := k.VM.Fault(p, 50, region, 0, true); err != nil {
			t.Error(err)
		}
		if _, err := k.VM.Fault(p, 50, region, 0, true); err != nil {
			t.Error(err)
		}
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(1000000))
	if k.Stats.CoherenceRPCs != 2 {
		t.Fatalf("coherence notices = %d, want 2", k.Stats.CoherenceRPCs)
	}
	// The master's writers counter must reflect both notices.
	base := MakeKey(1, classPage, 5<<16)
	me := k.VM.Pages().Table(1).PeekSearch(base)
	if me == 0 {
		t.Fatal("master descriptor missing")
	}
	if w := k.M.Mem.Peek(me + 3 + pgWriters); w != 2 {
		t.Fatalf("master writers counter = %d, want 2", w)
	}
}

func TestProcessTreeCreateAndLinks(t *testing.T) {
	k := newKernel(7, 4, Optimistic)
	for i := 1; i < 16; i++ {
		k.M.Go(i, cluster.Serve)
	}
	k.M.Go(0, func(p *sim.Proc) {
		root := PIDKey(0, 1)
		if err := k.PM.Create(p, root, 0); err != nil {
			t.Fatal(err)
		}
		// Children spread across clusters.
		kids := []uint64{PIDKey(1, 2), PIDKey(2, 3), PIDKey(3, 4)}
		for _, c := range kids {
			if err := k.PM.Create(p, c, root); err != nil {
				t.Fatal(err)
			}
		}
		// Head insertion: last created is first child.
		fc := k.PM.FirstChild(root)
		if fc != kids[2] {
			t.Fatalf("firstChild = %#x, want %#x", fc, kids[2])
		}
		n1 := k.PM.PeekField(kids[2], dNextSib)
		n2 := k.PM.PeekField(kids[1], dNextSib)
		n3 := k.PM.PeekField(kids[0], dNextSib)
		if n1 != kids[1] || n2 != kids[0] || n3 != 0 {
			t.Fatalf("sibling chain wrong: %#x %#x %#x", n1, n2, n3)
		}
		if err := k.PM.Create(p, kids[0], root); err == nil {
			t.Error("duplicate create succeeded")
		}
		cluster.Serve(p)
	})
	k.M.Eng.Run(sim.Micros(1000000))
}

func TestDestroyMaintainsChain(t *testing.T) {
	for _, proto := range []Protocol{Optimistic, Pessimistic} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			k := newKernel(8, 4, proto)
			for i := 1; i < 16; i++ {
				k.M.Go(i, cluster.Serve)
			}
			k.M.Go(0, func(p *sim.Proc) {
				root := PIDKey(0, 1)
				k.PM.Create(p, root, 0)
				kids := []uint64{PIDKey(1, 2), PIDKey(2, 3), PIDKey(3, 4)}
				for _, c := range kids {
					k.PM.Create(p, c, root)
				}
				// Chain: root -> k3 -> k2 -> k1. Destroy the middle (k2).
				if err := k.PM.Destroy(p, kids[1]); err != nil {
					t.Fatal(err)
				}
				if k.PM.Alive(kids[1]) {
					t.Fatal("victim still alive")
				}
				if n := k.PM.PeekField(kids[2], dNextSib); n != kids[0] {
					t.Fatalf("chain not spliced: next = %#x, want %#x", n, kids[0])
				}
				// Destroy the head child (k3): parent's firstChild moves.
				if err := k.PM.Destroy(p, kids[2]); err != nil {
					t.Fatal(err)
				}
				if fc := k.PM.FirstChild(root); fc != kids[0] {
					t.Fatalf("firstChild = %#x, want %#x", fc, kids[0])
				}
				// Non-leaf destroy must fail.
				if err := k.PM.Destroy(p, root); err == nil {
					t.Error("destroy of non-leaf succeeded")
				}
				// Destroy the last child, then the root.
				if err := k.PM.Destroy(p, kids[0]); err != nil {
					t.Fatal(err)
				}
				if err := k.PM.Destroy(p, root); err != nil {
					t.Fatal(err)
				}
				if err := k.PM.Destroy(p, root); err == nil {
					t.Error("double destroy succeeded")
				}
				cluster.Serve(p)
			})
			k.M.Eng.Run(sim.Micros(5000000))
		})
	}
}

func TestConcurrentProgramDestruction(t *testing.T) {
	// §2.5: all processes of a parallel program destroyed at about the
	// same time — retries are common. Every destroy must still complete
	// and the tree must end empty.
	for _, proto := range []Protocol{Optimistic, Pessimistic} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			k := newKernel(9, 4, proto)
			root := PIDKey(0, 1)
			nkids := 12
			destroyed := 0
			start := false
			// Destroyers serve RPCs while parked until creation finishes.
			for i := 0; i < nkids; i++ {
				i := i
				k.M.Go(i, func(p *sim.Proc) {
					for !start {
						p.Park()
					}
					if err := k.PM.Destroy(p, PIDKey(i%4, uint64(10+i))); err != nil {
						t.Error(err)
					}
					destroyed++
					cluster.Serve(p)
				})
			}
			for i := nkids; i < 15; i++ {
				k.M.Go(i, cluster.Serve)
			}
			k.M.Go(15, func(p *sim.Proc) {
				k.PM.Create(p, root, 0)
				for i := 0; i < nkids; i++ {
					if err := k.PM.Create(p, PIDKey(i%4, uint64(10+i)), root); err != nil {
						t.Error(err)
					}
				}
				start = true
				for i := 0; i < nkids; i++ {
					k.M.Procs[i].Unpark()
				}
				cluster.Serve(p)
			})
			k.M.Eng.Run(sim.Micros(10000000))
			if destroyed != nkids {
				t.Fatalf("destroyed = %d / %d", destroyed, nkids)
			}
			// The tree must be consistent: root alive, no children left.
			if !k.PM.Alive(root) {
				t.Fatal("root vanished")
			}
			if fc := k.PM.FirstChild(root); fc != 0 {
				t.Fatalf("children remain: firstChild = %#x", fc)
			}
		})
	}
}

func TestMessagePassing(t *testing.T) {
	for _, proto := range []Protocol{Optimistic, Pessimistic} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			k := newKernel(10, 4, proto)
			a, b := PIDKey(0, 1), PIDKey(3, 2)
			sends := 0
			for i := 2; i < 16; i++ {
				if i == 12 {
					continue
				}
				k.M.Go(i, cluster.Serve)
			}
			k.M.Go(1, func(p *sim.Proc) {
				k.PM.Create(p, a, 0)
				k.PM.Create(p, b, 0)
				// Bidirectional concurrent sends: the arbitrary-pair,
				// no-natural-order case.
				k.M.Go(0, func(p *sim.Proc) {
					for r := 0; r < 10; r++ {
						if err := k.PM.Send(p, a, b); err != nil {
							t.Error(err)
						}
						sends++
					}
					cluster.Serve(p)
				})
				k.M.Go(12, func(p *sim.Proc) {
					for r := 0; r < 10; r++ {
						if err := k.PM.Send(p, b, a); err != nil {
							t.Error(err)
						}
						sends++
					}
					cluster.Serve(p)
				})
				cluster.Serve(p)
			})
			k.M.Eng.Run(sim.Micros(10000000))
			if sends != 20 {
				t.Fatalf("sends completed = %d / 20", sends)
			}
			if got := k.PM.PeekField(a, dMsgs); got != 10 {
				t.Errorf("a received %d, want 10", got)
			}
			if got := k.PM.PeekField(b, dMsgs); got != 10 {
				t.Errorf("b received %d, want 10", got)
			}
			if k.PM.PeekField(a, dSent) != 10 || k.PM.PeekField(b, dSent) != 10 {
				t.Errorf("sent counters wrong: a=%d b=%d", k.PM.PeekField(a, dSent), k.PM.PeekField(b, dSent))
			}
		})
	}
}

// timedLock wraps a lock to count acquisitions (the instrumentation hook
// experiments use via SetMMLock).
type timedLock struct {
	inner locks.Lock
	n     int
}

func (l *timedLock) Acquire(p *sim.Proc) { l.inner.Acquire(p); l.n++ }
func (l *timedLock) Release(p *sim.Proc) { l.inner.Release(p) }
func (l *timedLock) Name() string        { return l.inner.Name() }
func (l *timedLock) Home() int           { return l.inner.Home() }

func TestMMLockInstrumentationHook(t *testing.T) {
	k := newKernel(30, 16, Optimistic)
	tl := &timedLock{inner: k.VM.MMLock(0)}
	k.VM.SetMMLock(0, tl)
	k.M.Go(0, func(p *sim.Proc) {
		region := setupPrivate(p, k, 0, 9, 1, 1, 0)
		if _, err := k.VM.Fault(p, 1, region, 0, true); err != nil {
			t.Error(err)
		}
	})
	k.M.RunAll()
	if tl.n == 0 {
		t.Fatal("wrapped memory-manager lock never acquired")
	}
}

// CheckQuiescent walks every migratable slot's replica set: the set the
// replication actuators leave passes, and each way of breaking it panics
// naming the slot.
func TestCheckQuiescentReplicaSets(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	k := New(m, Config{ClusterSize: 4, LockKind: locks.KindH2MCS, Migratable: true})
	ref := k.MigratableSlots()[0]
	for i := 1; i < m.NumProcs(); i++ {
		m.Go(i, cluster.Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		k.ReplicateSlot(p, ref.Cluster, ref.Slot, 8)
		k.ReplicateSlot(p, ref.Cluster, ref.Slot, 4)
		cluster.Serve(p)
	})
	m.Eng.Run(sim.Micros(1000))
	reps := m.Mem.Replicas(ref.Region)
	if !slices.Equal(reps, []int{4, 8}) {
		t.Fatalf("replicas %v, want [4 8]", reps)
	}
	k.CheckQuiescent()

	home := m.Mem.Home(ref.Region)
	for _, bad := range [][]int{{8, 4}, {4, 4}, {home, 8}, {4, m.NumProcs()}} {
		copy(reps, bad) // the slice is live: corrupt the set in place
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "slot "+ref.Name()+"'s replica set") {
					t.Errorf("set %v: check did not name the slot: %q", bad, msg)
				}
			}()
			k.CheckQuiescent()
		}()
	}
}

// Every actuation re-checks its slot's replica set: a set corrupted
// mid-run panics at the slot's next replication, naming the slot and the
// actuation, without waiting for the drain's CheckQuiescent.
func TestActuationChecksReplicaSet(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	k := New(m, Config{ClusterSize: 4, LockKind: locks.KindH2MCS, Migratable: true})
	ref := k.MigratableSlots()[0]
	for i := 1; i < m.NumProcs(); i++ {
		m.Go(i, cluster.Serve)
	}
	m.Go(0, func(p *sim.Proc) {
		k.ReplicateSlot(p, ref.Cluster, ref.Slot, 8)
		k.ReplicateSlot(p, ref.Cluster, ref.Slot, 4)
		reps := m.Mem.Replicas(ref.Region)
		reps[0], reps[1] = reps[1], reps[0] // the slice is live: [8 4]
		k.ReplicateSlot(p, ref.Cluster, ref.Slot, 12)
		t.Error("a replication over a corrupt set returned")
		cluster.Serve(p)
	})
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		m.Eng.Run(sim.Micros(1000))
		return ""
	}()
	if want := "slot " + ref.Name() + "'s replica set [8 4 12]"; !strings.Contains(msg, want) ||
		!strings.HasSuffix(msg, "after a replication") {
		t.Fatalf("panic %q, want one naming %q after a replication", msg, want)
	}
}
