package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// parMixRun drives a mixed local/remote workload on cfg (which must have
// Workers set) and returns a digest of every observable output: final word
// values, per-processor accumulators and completion times, and each
// engine's event counts. Two runs that digest equally executed the same
// simulation.
func parMixRun(t *testing.T, cfg Config, rounds int) string {
	t.Helper()
	m := NewMachine(cfg)
	n := m.NumProcs()
	nSt := m.Config().Stations

	// One contended word per station plus a private word per processor.
	shared := make([]Addr, nSt)
	for s := range shared {
		shared[s] = m.Alloc(s*m.Config().ProcsPerStation, 1)
	}
	private := make([]Addr, n)
	for i := range private {
		private[i] = m.Alloc(i, 1)
	}

	acc := make([]uint64, n)
	done := make([]Time, n)
	for i := 0; i < n; i++ {
		m.Go(i, func(p *Proc) {
			r := p.RNG()
			for k := 0; k < rounds; k++ {
				w := shared[r.Intn(len(shared))]
				old := p.Swap(w, uint64(p.ID())<<16|uint64(k))
				p.Store(private[p.ID()], old)
				v := p.Load(w)
				if p.mach.cfg.HasCAS {
					p.CAS(w, v, v+1)
				}
				acc[p.ID()] += v + p.Load(private[p.ID()])
				p.Think(r.Duration(200))
			}
			done[p.ID()] = p.Now()
		})
	}
	m.RunAll()
	m.Shutdown()

	sum := fmt.Sprintf("acc=%v done=%v", acc, done)
	for _, a := range shared {
		sum += fmt.Sprintf(" w%x=%d", uint64(a), m.Mem.Peek(a))
	}
	if m.par != nil {
		for s, lp := range m.par.lps {
			sum += fmt.Sprintf(" lp%d=%d/%d@%d", s, lp.eng.processed, lp.eng.elided, lp.eng.Now())
		}
	}
	return sum
}

// parTestConfigs are small machines covering flat and hierarchical rings,
// with and without CAS.
func parTestConfigs(seed uint64) map[string]Config {
	hier := DefaultLatency()
	hier.IPI = 60
	return map[string]Config{
		"flat4x4": {Stations: 4, ProcsPerStation: 4, Seed: seed},
		"hier8x2": {Stations: 8, ProcsPerStation: 2, StationsPerRing: 4,
			Seed: seed, HasCAS: true, Lat: hier},
	}
}

// TestParallelWorkerEquivalence is the core conservative-engine property:
// the number of workers must not change the simulation, only the wall
// clock. Workers==1 is the serial reference execution of the partitioned
// model.
func TestParallelWorkerEquivalence(t *testing.T) {
	workers := []int{1, 2, runtime.NumCPU()}
	for _, seed := range []uint64{1, 7, 42} {
		for name, cfg := range parTestConfigs(seed) {
			var want string
			for _, w := range workers {
				cfg.Workers = w
				got := parMixRun(t, cfg, 40)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s seed %d: workers=%d diverged from workers=1\n got %s\nwant %s",
						name, seed, w, got, want)
				}
			}
		}
	}
}

// TestParallelDeterminism reruns the same configuration and requires the
// identical digest — the parallel engine must be as reproducible as the
// serial one.
func TestParallelDeterminism(t *testing.T) {
	for name, cfg := range parTestConfigs(3) {
		cfg.Workers = runtime.NumCPU()
		a := parMixRun(t, cfg, 30)
		b := parMixRun(t, cfg, 30)
		if a != b {
			t.Errorf("%s: two identical parallel runs diverged:\n%s\n%s", name, a, b)
		}
	}
}

// TestParallelRemoteWake covers the watch/wake message path: a processor
// sleeping on a local word must be woken by a remote store, at the same
// time regardless of worker count.
func TestParallelRemoteWake(t *testing.T) {
	var wokeAt [3]Time
	for i, w := range []int{1, 2, 4} {
		m := NewMachine(Config{Stations: 4, ProcsPerStation: 2, Workers: w})
		flag := m.Alloc(0, 1)
		m.Go(0, func(p *Proc) {
			p.WaitLocal(flag, func(v uint64) bool { return v == 9 })
			wokeAt[i] = p.Now()
		})
		m.Go(5, func(p *Proc) {
			p.Think(500)
			p.Store(flag, 9)
		})
		m.RunAll()
		m.Shutdown()
		if wokeAt[i] == 0 {
			t.Fatalf("workers=%d: watcher never woke", w)
		}
		if wokeAt[i] != wokeAt[0] {
			t.Errorf("workers=%d: woke at %d, workers=1 woke at %d", w, wokeAt[i], wokeAt[0])
		}
	}
}

// TestParallelRemoteSpin covers the cross-station WaitLocal fallback (a
// remote word cannot be watched, so the processor polls with charged
// loads) and its interaction with in-flight stores.
func TestParallelRemoteSpin(t *testing.T) {
	var sawAt [2]Time
	for i, w := range []int{1, 3} {
		m := NewMachine(Config{Stations: 3, ProcsPerStation: 1, Workers: w})
		flag := m.Alloc(2, 1)
		m.Go(0, func(p *Proc) {
			v := p.WaitLocal(flag, func(v uint64) bool { return v != 0 })
			if v != 77 {
				t.Errorf("workers=%d: spin returned %d, want 77", w, v)
			}
			sawAt[i] = p.Now()
		})
		m.Go(1, func(p *Proc) {
			p.Think(777)
			p.Store(flag, 77)
		})
		m.RunAll()
		m.Shutdown()
	}
	if sawAt[0] != sawAt[1] {
		t.Errorf("remote spin observed store at %d (workers=1) vs %d (workers=3)", sawAt[0], sawAt[1])
	}
}

// TestParallelIPI covers the inter-LP IPI message: delivery must respect
// the IPI latency and an IRQ must not steal the wake-up of a processor
// parked mid-remote-access.
func TestParallelIPI(t *testing.T) {
	var handledAt [2]Time
	var loads [2]uint64
	for i, w := range []int{1, 2} {
		m := NewMachine(Config{Stations: 2, ProcsPerStation: 2, Workers: w})
		word := m.Alloc(0, 1) // station 0: remote to the target proc
		m.Mem.Poke(word, 5)
		m.Go(0, func(p *Proc) {
			p.SendIPI(2, func(h *Proc) { handledAt[i] = h.Now() })
			p.Think(1)
		})
		// The IPI (delivered at t=30) lands while the target is parked
		// mid-remote-access (t=10..33); it must queue, not steal the
		// response's wake-up, and deliver at the access boundary.
		m.Go(2, func(p *Proc) {
			p.Think(10)
			loads[i] = p.Load(word)
		})
		m.RunAll()
		m.Shutdown()
		want := Time(10 + m.Lat().Ring)
		if handledAt[i] != want {
			t.Errorf("workers=%d: IPI handled at %d, want at remote-access boundary %d", w, handledAt[i], want)
		}
		if loads[i] != 5 {
			t.Errorf("workers=%d: remote load returned %d, want 5", w, loads[i])
		}
	}
	if handledAt[0] != handledAt[1] {
		t.Errorf("IPI delivery not worker-independent: %v", handledAt)
	}
}

// TestParallelUncontendedLatency pins the uncontended remote access cost to
// the serial machine's: base + extra, with no hidden message overhead.
func TestParallelUncontendedLatency(t *testing.T) {
	n256 := numachine256(1)
	n256.Workers = 2
	cases := []struct {
		name   string
		cfg    Config
		module int // remote to processor 0
		ring2  bool
	}{
		{"flat", Config{Stations: 2, ProcsPerStation: 2, Workers: 2}, 2, false},
		// Module 200 is on station 25, across NUMAchine-256's global ring.
		{"numachine256 cross-group", n256, 200, true},
	}
	for _, c := range cases {
		m := NewMachine(c.cfg)
		word := m.Alloc(c.module, 1)
		var loadTook, swapTook Duration
		m.Go(0, func(p *Proc) {
			t0 := p.Now()
			p.Load(word)
			loadTook = Duration(p.Now() - t0)
			t0 = p.Now()
			p.Swap(word, 1)
			swapTook = Duration(p.Now() - t0)
		})
		m.RunAll()
		m.Shutdown()
		lat := m.Lat()
		want := lat.Ring
		if c.ring2 {
			want = lat.Ring2
		}
		if loadTook != want {
			t.Errorf("%s: uncontended remote load took %d, want %d", c.name, loadTook, want)
		}
		if swapTook != want+lat.AtomicExtra {
			t.Errorf("%s: uncontended remote swap took %d, want %d", c.name, swapTook, want+lat.AtomicExtra)
		}
	}
}

// TestParallelRunWindows checks bounded Run in parallel mode: it stops on
// a window boundary, and repeated bounded runs reach the same end state as
// one RunAll.
func TestParallelRunWindows(t *testing.T) {
	run := func(step Time) string {
		cfg := Config{Stations: 4, ProcsPerStation: 4, Seed: 11, Workers: 2}
		return func() string {
			m := NewMachine(cfg)
			nSt := m.Config().Stations
			shared := make([]Addr, nSt)
			for s := range shared {
				shared[s] = m.Alloc(s*4, 1)
			}
			done := make([]Time, m.NumProcs())
			for i := 0; i < m.NumProcs(); i++ {
				m.Go(i, func(p *Proc) {
					for k := 0; k < 25; k++ {
						p.Swap(shared[p.RNG().Intn(nSt)], uint64(k))
						p.Think(p.RNG().Duration(100))
					}
					done[p.ID()] = p.Now()
				})
			}
			if step == 0 {
				m.RunAll()
			} else {
				for end := Time(step); m.par.totalLive() > 0; end += step {
					m.par.run(end)
				}
			}
			m.Shutdown()
			return fmt.Sprintf("%v", done)
		}()
	}
	all := run(0)
	if stepped := run(97); stepped != all {
		t.Errorf("stepped Run diverged from RunAll:\n%s\n%s", stepped, all)
	}
}
