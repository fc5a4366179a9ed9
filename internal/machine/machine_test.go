package machine

import (
	"testing"

	"hurricane/internal/sim"
)

func TestHector16Preset(t *testing.T) {
	m := sim.NewMachine(Hector16(1))
	if m.NumProcs() != 16 {
		t.Fatalf("procs = %d", m.NumProcs())
	}
	if m.Config().HasCAS {
		t.Fatal("HECTOR must not have CAS")
	}
	if m.Lat() != sim.DefaultLatency() {
		t.Fatal("HECTOR timing not default")
	}
}

// A scaled HECTOR keeps the preset's timing and changes only the topology.
func TestHectorScaled(t *testing.T) {
	c := Hector16(3)
	c.Stations, c.ProcsPerStation = 2, 8
	m := sim.NewMachine(c)
	if m.NumProcs() != 16 {
		t.Fatalf("procs = %d", m.NumProcs())
	}
	if m.Procs[9].Station() != 1 {
		t.Fatal("station mapping wrong for 2x8")
	}
}

func TestHectorWithCAS(t *testing.T) {
	c := Hector16(1)
	c.HasCAS = true
	m := sim.NewMachine(c)
	a := m.Alloc(0, 1)
	m.Go(0, func(p *sim.Proc) {
		if _, ok := p.CAS(a, 0, 7); !ok {
			t.Error("CAS failed on CAS-capable HECTOR")
		}
	})
	m.RunAll()
}

func TestNUMAchine64Preset(t *testing.T) {
	cfg := NUMAchine64(2)
	m := sim.NewMachine(cfg)
	if m.NumProcs() != 64 {
		t.Fatalf("procs = %d", m.NumProcs())
	}
	if !cfg.HasCAS {
		t.Fatal("NUMAchine must have CAS")
	}
	if cfg.Lat.Ring <= sim.DefaultLatency().Ring {
		t.Fatal("NUMAchine remote accesses must cost more cycles (faster CPUs)")
	}
	// Sanity: the larger machine runs.
	done := 0
	for i := 0; i < 64; i += 8 {
		m.Go(i, func(p *sim.Proc) {
			a := m.Alloc(p.ID(), 1)
			p.Store(a, 1)
			done++
		})
	}
	m.RunAll()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
}
