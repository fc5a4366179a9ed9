// Package core is the public face of the locking architecture the paper
// describes: it assembles the simulated HECTOR-class machine, the
// hierarchically clustered kernel, and the lock algorithms into one
// configurable system. The paper's thesis is that the combination —
// hybrid coarse/fine locking, per-cluster replication bounding contention,
// and distributed locks with near-spin-lock uncontended latency — is what
// delivers low latency *and* scalability; this package is where the
// combination is put together.
//
// Typical use:
//
//	sys := core.NewSystem(core.Config{
//		Machine:     machine.Hector16(1),
//		ClusterSize: 4,
//		LockKind:    locks.KindH2MCS,
//	})
//	sys.Spawn(0, func(p *sim.Proc) { ... fault, send, destroy ... })
//	sys.ServeOthers(0)
//	sys.Run()
package core

import (
	"hurricane/internal/cluster"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// Config selects the system's structure. Zero values mean: HECTOR-16
// machine, one cluster spanning the machine, H2-MCS coarse locks,
// optimistic deadlock management.
type Config struct {
	// Machine is the simulated hardware configuration.
	Machine sim.Config
	// ClusterSize is the number of processors per cluster (0 = one
	// cluster spanning the machine).
	ClusterSize int
	// LockKind selects the coarse-grained lock algorithm.
	LockKind locks.Kind
	// Protocol selects optimistic or pessimistic deadlock management.
	Protocol kernel.Protocol
	// SlotModule overrides kernel data placement (see kernel.Config).
	SlotModule func(c, slot, def int) int
	// Migratable allocates kernel-data slots in migratable regions so an
	// online placement daemon can re-home them mid-run (see kernel.Config).
	Migratable bool
	// TuneParams parameterizes every feedback-tuned kernel lock when
	// LockKind is KindTuned (see kernel.Config) — notably Params.Plane for
	// autonomics-plane scheduling.
	TuneParams *tune.Params
	// Tracer, when non-nil, is installed on the machine before the kernel
	// allocates anything, so a trace covers the system's whole lifetime.
	Tracer sim.Tracer
}

// System is an assembled machine + kernel.
type System struct {
	M *sim.Machine
	K *kernel.Kernel

	busy map[int]bool
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System {
	if cfg.LockKind == 0 && cfg.Machine.Seed == 0 {
		cfg.Machine.Seed = 1
	}
	m := sim.NewMachine(cfg.Machine)
	if cfg.Tracer != nil {
		m.SetTracer(cfg.Tracer)
	}
	k := kernel.New(m, kernel.Config{
		ClusterSize: cfg.ClusterSize,
		LockKind:    cfg.LockKind,
		Protocol:    cfg.Protocol,
		SlotModule:  cfg.SlotModule,
		Migratable:  cfg.Migratable,
		TuneParams:  cfg.TuneParams,
	})
	return &System{M: m, K: k, busy: make(map[int]bool)}
}

// Spawn runs program on processor id; after the program returns the
// processor falls into the kernel idle loop so it keeps serving RPCs.
func (s *System) Spawn(id int, program func(*sim.Proc)) {
	s.busy[id] = true
	s.M.Go(id, func(p *sim.Proc) {
		program(p)
		cluster.Serve(p)
	})
}

// ServeOthers starts the kernel idle loop on every processor that has not
// been Spawned.
func (s *System) ServeOthers() {
	for i := 0; i < s.M.NumProcs(); i++ {
		if !s.busy[i] {
			s.busy[i] = true
			s.M.Go(i, cluster.Serve)
		}
	}
}

// Run drives the simulation until all processors are idle (parked in the
// idle loop) or the optional cap is reached, then reaps the coroutines.
// It returns the final simulated time.
func (s *System) Run(cap sim.Time) sim.Time {
	if cap == 0 {
		cap = ^sim.Time(0)
	}
	s.M.Eng.Run(cap)
	if s.M.Eng.Pending() == 0 {
		s.M.Shutdown()
	}
	return s.M.Eng.Now()
}
