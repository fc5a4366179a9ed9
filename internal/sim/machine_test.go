package sim

import (
	"testing"
	"testing/quick"
)

func hector(seed uint64) *Machine {
	return NewMachine(Config{Seed: seed})
}

func TestMachineDefaults(t *testing.T) {
	m := hector(1)
	if m.NumProcs() != 16 {
		t.Fatalf("procs = %d, want 16", m.NumProcs())
	}
	if len(m.Mem.modules) != 16 {
		t.Fatalf("modules = %d, want 16", len(m.Mem.modules))
	}
	if m.Procs[5].Station() != 1 || m.Procs[12].Station() != 3 {
		t.Fatal("station mapping wrong")
	}
	if m.Config().Lat != DefaultLatency() {
		t.Fatal("latency defaults not applied")
	}
}

// accessLatency measures the uncontended latency of a single operation by
// processor 0 of a machine built from cfg against an address on the given
// module.
func accessLatency(t *testing.T, cfg Config, dstModule int, op func(p *Proc, a Addr)) Duration {
	t.Helper()
	m := NewMachine(cfg)
	a := m.Alloc(dstModule, 1)
	var took Duration
	m.Go(0, func(p *Proc) {
		start := p.Now()
		op(p, a)
		took = p.Now() - start
	})
	m.RunAll()
	return took
}

func TestUncontendedAccessLatencies(t *testing.T) {
	hec, n256 := Config{Seed: 1}, numachine256(1)
	cases := []struct {
		name   string
		cfg    Config
		module int
		want   func(Latency) Duration
	}{
		{"local", hec, 0, func(l Latency) Duration { return l.Local }},
		{"on-station", hec, 1, func(l Latency) Duration { return l.Station }},
		{"cross-ring", hec, 12, func(l Latency) Duration { return l.Ring }},
		// Station 0's local ring holds stations 0-3 (modules 0-31); module
		// 200 is on station 25, across the global ring.
		{"numachine256 same-group", n256, 31, func(l Latency) Duration { return l.Ring }},
		{"numachine256 cross-group", n256, 200, func(l Latency) Duration { return l.Ring2 }},
	}
	for _, c := range cases {
		lat := c.cfg.WithDefaults().Lat
		want := c.want(lat)
		got := accessLatency(t, c.cfg, c.module, func(p *Proc, a Addr) { p.Load(a) })
		if got != want {
			t.Errorf("%s load latency = %d, want %d", c.name, got, want)
		}
		got = accessLatency(t, c.cfg, c.module, func(p *Proc, a Addr) { p.Store(a, 1) })
		if got != want {
			t.Errorf("%s store latency = %d, want %d", c.name, got, want)
		}
		got = accessLatency(t, c.cfg, c.module, func(p *Proc, a Addr) { p.Swap(a, 1) })
		if got != want+lat.AtomicExtra {
			t.Errorf("%s swap latency = %d, want %d", c.name, got, want+lat.AtomicExtra)
		}
	}
}

func TestMemoryValueSemantics(t *testing.T) {
	m := hector(1)
	a := m.Alloc(3, 1)
	m.Go(0, func(p *Proc) {
		if v := p.Load(a); v != 0 {
			t.Errorf("fresh word = %d", v)
		}
		p.Store(a, 7)
		if v := p.Load(a); v != 7 {
			t.Errorf("after store = %d", v)
		}
		if old := p.Swap(a, 9); old != 7 {
			t.Errorf("swap returned %d, want 7", old)
		}
		if v := p.Load(a); v != 9 {
			t.Errorf("after swap = %d", v)
		}
	})
	m.RunAll()
}

func TestCASRequiresMachineSupport(t *testing.T) {
	m := hector(1)
	m.Go(0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("CAS on swap-only machine did not panic")
			}
		}()
		a := m.Alloc(0, 1)
		p.CAS(a, 0, 1)
	})
	m.RunAll()

	mc := NewMachine(Config{Seed: 1, HasCAS: true})
	a := mc.Alloc(0, 1)
	mc.Go(0, func(p *Proc) {
		if _, ok := p.CAS(a, 0, 5); !ok {
			t.Error("CAS with matching expect failed")
		}
		if _, ok := p.CAS(a, 0, 9); ok {
			t.Error("CAS with stale expect succeeded")
		}
		if v := p.Load(a); v != 5 {
			t.Errorf("value = %d, want 5", v)
		}
	})
	mc.RunAll()
}

func TestModuleContentionQueues(t *testing.T) {
	// Two processors hammering one remote module must take longer per
	// access than one alone: the module serializes them.
	singleElapsed := func(nprocs int) Time {
		m := hector(2)
		a := m.Alloc(15, 1)
		const accesses = 200
		for i := 0; i < nprocs; i++ {
			m.Go(i, func(p *Proc) {
				for k := 0; k < accesses; k++ {
					p.Swap(a, uint64(p.ID()))
				}
			})
		}
		m.RunAll()
		return m.Eng.Now()
	}
	one := singleElapsed(1)
	four := singleElapsed(4)
	if four <= one {
		t.Fatalf("4-proc hammering (%v) not slower than 1-proc (%v)", four, one)
	}
	// With 4 procs the module is the bottleneck: elapsed time approaches
	// the throughput bound of accesses * occupancy (800 swaps x 12 cycles
	// = 9600 cycles), so each processor's per-access latency rises from 27
	// to ~48 cycles.
	bound := Time(4*200) * DefaultLatency().ModuleService * Time(DefaultLatency().AtomicAccesses)
	if four+30 < bound {
		t.Fatalf("elapsed %v below module throughput bound %v", four, bound)
	}
	if four > bound+bound/10 {
		t.Fatalf("elapsed %v far above module throughput bound %v", four, bound)
	}
}

func TestContentionSlowsInnocentBystander(t *testing.T) {
	// The paper's second-order effect: spinners on module M slow an
	// unrelated processor whose data lives on M.
	bystander := func(spinners int) Duration {
		m := hector(3)
		hot := m.Alloc(15, 1)
		mine := m.Alloc(15, 2) // victim's data, same module
		for i := 1; i <= spinners; i++ {
			m.Go(i, func(p *Proc) {
				for k := 0; k < 500; k++ {
					p.Swap(hot, 1)
				}
			})
		}
		var took Duration
		m.Go(0, func(p *Proc) {
			start := p.Now()
			for k := 0; k < 50; k++ {
				p.Load(mine)
			}
			took = p.Now() - start
		})
		m.RunAll()
		return took
	}
	calm := bystander(0)
	noisy := bystander(8)
	if noisy <= calm {
		t.Fatalf("bystander unaffected by module contention: calm=%v noisy=%v", calm, noisy)
	}
}

func TestWaitLocalWakesOnStore(t *testing.T) {
	m := hector(4)
	flag := m.Alloc(1, 1)
	var sawAt Time
	m.Go(1, func(p *Proc) {
		p.WaitLocal(flag, func(v uint64) bool { return v == 42 })
		sawAt = p.Now()
	})
	m.Go(0, func(p *Proc) {
		p.Think(Micros(10))
		p.Store(flag, 42)
	})
	m.RunAll()
	if sawAt < Micros(10) {
		t.Fatalf("waiter woke before the store: %v", sawAt)
	}
	if sawAt > Micros(12) {
		t.Fatalf("waiter woke too late: %v", sawAt)
	}
}

func TestWaitLocalNoMissedWake(t *testing.T) {
	// Regression: a write landing between the waiter's load and its watch
	// registration must not be lost.
	m := hector(5)
	flag := m.Alloc(1, 1)
	done := false
	m.Go(1, func(p *Proc) {
		p.WaitLocal(flag, func(v uint64) bool { return v == 1 })
		done = true
	})
	// Store fires during the waiter's first load (load takes 10 cycles;
	// poke at cycle 5 raises the flag mid-flight).
	m.Eng.At(5, func() { m.Mem.Poke(flag, 1) })
	m.RunAll()
	if !done {
		t.Fatal("waiter missed a wake and parked forever")
	}
}

// TestIPIDeliveryAndMasking checks that an IPI is taken at the next
// instruction boundary, and that interrupts are masked while a handler
// runs: an IPI arriving mid-handler waits until that handler returns.
func TestIPIDeliveryAndMasking(t *testing.T) {
	m := hector(6)
	var firstAt, firstDone, secondAt Time
	m.Go(1, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Think(Micros(1))
		}
	})
	m.Eng.At(0, func() {
		m.SendIPI(1, func(p *Proc) {
			firstAt = p.Now()
			for i := 0; i < 50; i++ {
				p.Think(Micros(1))
			}
			firstDone = p.Now()
		})
	})
	m.Eng.At(Micros(10), func() {
		m.SendIPI(1, func(p *Proc) { secondAt = p.Now() })
	})
	m.RunAll()
	if firstAt == 0 || firstAt > m.cfg.Lat.IPI+Micros(1) {
		t.Fatalf("IPI delivered at %v, want within 1us of %v", firstAt, m.cfg.Lat.IPI)
	}
	if secondAt < firstDone {
		t.Fatalf("IPI delivered at %v inside a handler that ran until %v", secondAt, firstDone)
	}
	if secondAt > firstDone+Micros(1) {
		t.Fatalf("masked IPI delivered too late: %v, handler returned at %v", secondAt, firstDone)
	}
}

func TestIPIWakesIdleProc(t *testing.T) {
	m := hector(7)
	handled := false
	m.Go(2, func(p *Proc) {
		p.WaitIRQ()
	})
	m.Eng.At(100, func() {
		m.SendIPI(2, func(p *Proc) { handled = true })
	})
	m.RunAll()
	if !handled {
		t.Fatal("idle processor never took the IPI")
	}
}

func TestIPIHandlerRunsInline(t *testing.T) {
	m := hector(8)
	a := m.Alloc(2, 1)
	m.Go(2, func(p *Proc) { p.WaitIRQ() })
	m.Eng.At(0, func() {
		m.SendIPI(2, func(p *Proc) {
			if !p.inISR {
				t.Error("handler not marked in-ISR")
			}
			p.Store(a, 11) // handlers can touch memory with normal costs
		})
	})
	m.RunAll()
	if m.Mem.Peek(a) != 11 {
		t.Fatal("handler memory op lost")
	}
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	m := hector(9)
	m.Go(0, func(p *Proc) { p.WaitIRQ() }) // parks forever
	m.Go(1, func(p *Proc) { p.Think(10) })
	m.RunAll()
	m.Shutdown() // must not hang
	if !m.Procs[0].finished {
		t.Fatal("parked proc not reaped")
	}
}

func TestInstructionCounters(t *testing.T) {
	m := hector(10)
	a := m.Alloc(0, 1)
	var c InstrCounters
	m.Go(0, func(p *Proc) {
		before := p.Counters()
		p.Load(a)
		p.Store(a, 1)
		p.Swap(a, 2)
		p.Reg(3)
		p.Branch(2)
		c = p.Counters().Sub(before)
	})
	m.RunAll()
	want := InstrCounters{Atomic: 1, Mem: 2, Reg: 3, Branch: 2}
	if c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		m := hector(99)
		a := m.Alloc(0, 1)
		var log []uint64
		for i := 0; i < 8; i++ {
			m.Go(i, func(p *Proc) {
				for k := 0; k < 20; k++ {
					old := p.Swap(a, uint64(p.ID()*100+k))
					log = append(log, old)
					p.Think(p.RNG().Duration(50))
				}
			})
		}
		m.RunAll()
		log = append(log, uint64(m.Eng.Now()))
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAllocSeparatesModules(t *testing.T) {
	m := hector(11)
	a := m.Alloc(3, 4)
	b := m.Alloc(7, 4)
	if a.Module() != 3 || b.Module() != 7 {
		t.Fatalf("modules: %d, %d", a.Module(), b.Module())
	}
	m.Mem.Poke(a, 1)
	m.Mem.Poke(b, 2)
	if m.Mem.Peek(a) != 1 || m.Mem.Peek(b) != 2 {
		t.Fatal("cross-module aliasing")
	}
}

func TestUnallocatedAccessPanics(t *testing.T) {
	m := hector(12)
	m.Go(0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("nil-address load did not panic")
			}
		}()
		p.Load(0)
	})
	m.RunAll()
}

func TestSwapAtomicityProperty(t *testing.T) {
	// Property: with n procs each swapping its unique token into a word k
	// times, every token ever observed (including the final word) appears
	// exactly as many times as it was swapped in: nothing is lost or
	// duplicated — the chain of swap results forms a permutation.
	f := func(seed uint64, nprocsRaw, roundsRaw uint8) bool {
		nprocs := int(nprocsRaw%15) + 1
		rounds := int(roundsRaw%20) + 1
		m := hector(seed)
		a := m.Alloc(int(seed%16), 1)
		counts := make(map[uint64]int)
		for i := 0; i < nprocs; i++ {
			m.Go(i, func(p *Proc) {
				for k := 0; k < rounds; k++ {
					tok := uint64(p.ID()+1)<<32 | uint64(k)
					old := p.Swap(a, tok)
					counts[old]++
					p.Think(p.RNG().Duration(30))
				}
			})
		}
		m.RunAll()
		counts[m.Mem.Peek(a)]++
		// Expect: zero observed once per... initial value 0 observed exactly
		// once; every token observed exactly once.
		if counts[0] != 1 {
			return false
		}
		total := 0
		for tok, c := range counts {
			if tok != 0 && c != 1 {
				return false
			}
			total += c
		}
		return total == nprocs*rounds+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
