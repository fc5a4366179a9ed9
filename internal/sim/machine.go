package sim

import "fmt"

// Config describes a simulated machine.
type Config struct {
	// Stations is the number of station buses on the ring.
	Stations int
	// ProcsPerStation is the number of processor-memory modules per station.
	ProcsPerStation int
	// Seed drives all randomness (backoff jitter, workload think time).
	Seed uint64
	// HasCAS enables the compare-and-swap primitive (absent on HECTOR).
	HasCAS bool
	// Lat holds the timing parameters; zero value means DefaultLatency.
	Lat Latency
	// StationsPerRing groups stations onto local rings joined by one global
	// ring (the NUMAchine multi-level hierarchy). 0 keeps the flat single
	// ring; it must divide Stations.
	StationsPerRing int
	// Workers > 0 selects the conservative parallel engine: one logical
	// process per station, cross-station traffic as timestamped inter-LP
	// messages, and up to Workers goroutines executing LPs inside barrier-
	// synchronized lookahead windows (see parallel.go). Workers == 1 runs
	// the same partitioned model single-threaded and is the serial reference
	// that `make jobs-equiv` compares higher worker counts against. The
	// parallel model restricts the API surface: no tracing, no migratable
	// regions, no Machine.SendIPI (use Proc.SendIPI), and cross-station
	// coordination must go through simulated memory, not Park/Unpark.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Stations == 0 {
		c.Stations = 4
	}
	if c.ProcsPerStation == 0 {
		c.ProcsPerStation = 4
	}
	if c.Lat == (Latency{}) {
		c.Lat = DefaultLatency()
	}
	return c
}

// Machine ties together the engine, the NUMA memory system and the
// processors.
type Machine struct {
	Eng   *Engine
	Mem   *Memory
	Procs []*Proc
	cfg   Config
	// par is non-nil when Config.Workers selected the parallel engine; Eng
	// is then the coordinator (daemons and barrier-time bookkeeping) and
	// each station's events live in its logical process's engine.
	par *parSim
}

// NewMachine builds a machine from cfg (zero fields take HECTOR defaults:
// 4 stations × 4 processors).
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	eng := NewEngine()
	m := &Machine{
		Eng: eng,
		Mem: newMemory(eng, cfg.Stations, cfg.ProcsPerStation, cfg.StationsPerRing, cfg.Lat),
		cfg: cfg,
	}
	n := cfg.Stations * cfg.ProcsPerStation
	m.Procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		m.Procs[i] = newProc(i, m)
	}
	if cfg.Workers > 0 {
		m.par = newParSim(m, cfg.Workers)
	}
	return m
}

// Config returns the (defaulted) configuration the machine was built with.
func (m *Machine) Config() Config { return m.cfg }

// NumProcs reports the number of processors.
func (m *Machine) NumProcs() int { return len(m.Procs) }

// Lat returns the machine's timing parameters.
func (m *Machine) Lat() Latency { return m.cfg.Lat }

// Go arranges for processor id to run program starting at time t. The start
// event is scheduled on the processor's own engine, so in parallel mode the
// program runs inside its station's logical process.
func (m *Machine) GoAt(id int, t Time, program func(*Proc)) {
	p := m.Procs[id]
	p.eng.At(t, func() { p.start(program) })
}

// Go arranges for processor id to run program starting now.
func (m *Machine) Go(id int, program func(*Proc)) {
	m.GoAt(id, m.Procs[id].eng.Now(), program)
}

// SendIPI delivers an inter-processor interrupt to processor `to` after the
// machine's IPI delivery latency. The handler runs inline on the target.
// Callable from proc or engine context. In parallel mode the sender's
// station matters (the IPI may cross logical processes), so callers must
// use Proc.SendIPI instead.
func (m *Machine) SendIPI(to int, h IRQHandler) {
	if m.par != nil {
		panic("sim: Machine.SendIPI in parallel mode; use Proc.SendIPI")
	}
	p := m.Procs[to]
	m.Eng.After(m.cfg.Lat.IPI, func() { p.postIRQ(h) })
}

// RunAll drives the simulation until no events remain (all processors
// finished or parked forever).
func (m *Machine) RunAll() {
	if m.par != nil {
		m.par.run(^Time(0))
		return
	}
	m.Eng.RunAll()
}

// Shutdown unwinds processors that are still parked so their goroutines
// exit. Call only after the engine has drained (RunAll returned); killing a
// processor with a pending wake event would wedge the handshake.
func (m *Machine) Shutdown() {
	if m.par != nil {
		m.par.shutdown()
		return
	}
	if m.Eng.Pending() != 0 {
		panic(fmt.Sprintf("sim: Shutdown with %d events still pending", m.Eng.Pending()))
	}
	for _, p := range m.Procs {
		if p.started && !p.finished {
			p.kill()
		}
	}
}

// Alloc reserves n zeroed words on the memory module of processor id.
func (m *Machine) Alloc(id, n int) Addr { return m.Mem.Alloc(id, n) }
