package sim

import "fmt"

// Addr is a simulated physical address of one 64-bit word. The module that
// owns the word is encoded in the high bits, so placement is explicit —
// exactly what a NUMA kernel has to reason about. Address 0 is never
// allocated and serves as the nil pointer for in-memory data structures.
type Addr uint64

const moduleShift = 32

// Module reports the memory module (processor-memory module index) that
// owns the address.
func (a Addr) Module() int { return int(a >> moduleShift) }

func (a Addr) offset() uint64 { return uint64(a) & (1<<moduleShift - 1) }

// Latency holds the timing parameters of the simulated machine. The
// defaults model the HECTOR prototype in the paper: 10-cycle local,
// 19-cycle on-station, and 23-cycle cross-ring accesses, with atomic swap
// implemented as two module accesses (read then write) of which the
// processor only waits for the first ("the MC88100 can proceed as soon as
// the fetch portion of the fetch-and-store has completed").
type Latency struct {
	// Local, Station, Ring are uncontended round-trip times for a single
	// memory access at each topological distance.
	Local, Station, Ring Duration
	// Ring2 is the uncontended round trip of an access that crosses the
	// global ring of a multi-level ring hierarchy (Config.StationsPerRing).
	// Zero defaults to 2x Ring when a hierarchy is configured; flat machines
	// ignore it.
	Ring2 Duration
	// ModuleService is how long one access occupies the target module.
	ModuleService Duration
	// BusService is how long an off-module access occupies a station bus.
	BusService Duration
	// RingService is how long a cross-station access occupies the ring.
	RingService Duration
	// AtomicAccesses is the number of module accesses an atomic
	// read-modify-write performs (2 on HECTOR).
	AtomicAccesses int
	// AtomicExtra is the additional processor-visible latency of an atomic
	// beyond a plain access (the exposed part of the store phase).
	AtomicExtra Duration
	// Reg and Branch are the costs of register-to-register and branch
	// instructions.
	Reg, Branch Duration
	// IPI is the delivery delay of an inter-processor interrupt.
	IPI Duration
}

// DefaultLatency returns the HECTOR-calibrated parameters.
func DefaultLatency() Latency {
	return Latency{
		Local:          10,
		Station:        19,
		Ring:           23,
		ModuleService:  14,
		BusService:     10,
		RingService:    4,
		AtomicAccesses: 2,
		AtomicExtra:    4,
		Reg:            1,
		Branch:         1,
		IPI:            30,
	}
}

// Memory is the simulated NUMA memory system: one module per processor,
// one bus per station, and a ring connecting stations. Every access queues
// at the resources along its path, so contention at any of them delays the
// access and everyone behind it.
//
// With Config.StationsPerRing set, stations are grouped onto local rings
// joined by one global ring (the NUMAchine hierarchy): a cross-station
// access inside a group traverses its local ring at the Ring latency, while
// a cross-group access traverses local ring, global ring, and the remote
// local ring at the Ring2 latency. Flat machines keep the original
// single-ring path bit for bit.
type Memory struct {
	eng             *Engine
	lat             Latency
	procsPerStation int
	// stationsPerRing groups stations onto local rings (0 = flat).
	stationsPerRing int

	modules []Resource
	buses   []Resource
	// ring is the single ring of a flat machine, and the global ring of a
	// multi-level hierarchy.
	ring Resource
	// localRings is one ring per station group (nil on flat machines).
	localRings []Resource
	// ringPorts exist only in parallel (LP) mode: one per-station port onto
	// the ring fabric, owned by that station's logical process, approximating
	// the shared ring(s) with station-local injection queues (a slotted ring
	// admits one outstanding transfer per station port).
	ringPorts []Resource
	// par is non-nil when the machine runs the conservative parallel engine;
	// cross-station accesses then travel as inter-LP messages.
	par *parSim

	// data holds one word slice per address-space index: the physical
	// modules first, then any migratable regions (see NewRegion). homes maps
	// each index to the physical module currently backing it — an identity
	// prefix for the physical modules themselves, and the migration target
	// for regions. Re-pointing a region's home entry IS the migration; the
	// words never move, only the traffic does.
	data  [][]uint64
	homes []int
	// replicas, indexed by region id, lists the extra physical modules
	// holding a copy of the region (sorted; the primary stays
	// homes[region]). It grows on the first ReplicateRegion of an id, so
	// every access finds its region's set by index, and unreplicated runs
	// never allocate it. A replicated region serves loads from the
	// requester's nearest copy and charges every write an update per
	// replica — the classic read-mostly replication trade (see
	// cluster/replicated.go for the lock-level analogue).
	replicas [][]int
	// near, indexed like replicas, is each replicated region's nearest-copy
	// table: near[region][src] is the copy (primary or replica) that
	// nearestCopy picks for a load from physical module src, so a
	// replicated load does one index. ReplicateRegion rebuilds it and
	// CollapseRegion drops it; MigrateRegion refuses a replicated region, so
	// a move never stales one. It is nil while the region has one copy.
	near [][]int
	// ReplicaUpdates counts write-propagation transfers charged to keep
	// replicas coherent (one per extra copy per write).
	ReplicaUpdates uint64
	// watchers is sharded by the watched word's station (regions, which can
	// migrate between stations, share one extra shard): in parallel mode a
	// shard is touched only by its owning logical process, and in serial
	// mode the sharding is invisible (lookups are by exact address).
	watchers []map[Addr]watchList
}

// watchList is an intrusive FIFO of processors sleeping on a write-watch,
// linked through Proc.watchNext so registering a watcher never allocates.
type watchList struct {
	head, tail *Proc
}

// newMemory builds the memory system of a machine with configuration cfg,
// defaults applied (Config.WithDefaults): one module per processor, one
// bus per station, and the flat ring or, with StationsPerRing set, the
// local rings under one global ring.
func newMemory(eng *Engine, cfg Config) *Memory {
	nStations, spr := cfg.Stations, cfg.StationsPerRing
	n := nStations * cfg.ProcsPerStation
	if spr > 0 && nStations%spr != 0 {
		panic(fmt.Sprintf("sim: %d stations do not divide into rings of %d", nStations, spr))
	}
	m := &Memory{
		eng:             eng,
		lat:             cfg.Lat,
		procsPerStation: cfg.ProcsPerStation,
		stationsPerRing: spr,
		modules:         make([]Resource, n),
		buses:           make([]Resource, nStations),
		data:            make([][]uint64, n),
		watchers:        make([]map[Addr]watchList, nStations+1),
	}
	if spr > 0 {
		m.localRings = make([]Resource, nStations/spr)
		for i := range m.localRings {
			m.localRings[i].Name = fmt.Sprintf("ring%d", i)
		}
	}
	m.homes = make([]int, n)
	for i := range m.modules {
		m.modules[i].Name = fmt.Sprintf("module%d", i)
		// Offset 0 of module 0 would be Addr(0) == nil; burn offset 0 of
		// every module so allocations never alias the nil address.
		m.data[i] = append(m.data[i], 0)
		m.homes[i] = i
	}
	for i := range m.buses {
		m.buses[i].Name = fmt.Sprintf("bus%d", i)
	}
	for i := range m.watchers {
		m.watchers[i] = make(map[Addr]watchList)
	}
	m.ring.Name = "ring"
	return m
}

// groupOf reports the local-ring group of a station (0 on flat machines).
func (m *Memory) groupOf(station int) int {
	if m.stationsPerRing == 0 {
		return 0
	}
	return station / m.stationsPerRing
}

// watchShard picks the watcher shard for an address: the station of the
// word's (raw) module, which never changes, or the spare last shard for
// migratable regions, whose physical home can move mid-watch.
func (m *Memory) watchShard(a Addr) map[Addr]watchList {
	mod := a.Module()
	if mod >= len(m.modules) {
		return m.watchers[len(m.buses)]
	}
	return m.watchers[m.stationOf(mod)]
}

// NewRegion creates a migratable memory region homed on the given physical
// module and returns its region id — a virtual module number ≥ NumModules
// that Alloc and every access accept exactly like a physical module.
// Addresses in a region are stable for the region's lifetime; MigrateRegion
// re-points which physical module serves them.
func (m *Memory) NewRegion(phys int) int {
	if m.par != nil {
		panic("sim: migratable regions are not supported in parallel mode")
	}
	if phys < 0 || phys >= len(m.modules) {
		panic(fmt.Sprintf("sim: NewRegion on module %d of %d", phys, len(m.modules)))
	}
	id := len(m.data)
	// Burn offset 0 like the physical modules, so Addr 0 stays the nil
	// pointer and word() needs no region special case.
	m.data = append(m.data, []uint64{0})
	m.homes = append(m.homes, phys)
	return id
}

// Home resolves an address-space index (physical module or region id) to
// the physical module currently backing it. Indices outside the address
// space — notably the -1 "no home" convention — pass through unchanged.
func (m *Memory) Home(i int) int {
	if i < 0 || i >= len(m.homes) {
		return i
	}
	return m.homes[i]
}

// RegionWords reports the number of allocated words in a region (or
// module), i.e. the copy traffic a migration of it would generate.
func (m *Memory) RegionWords(id int) int {
	if id < 0 || id >= len(m.data) {
		panic(fmt.Sprintf("sim: RegionWords of invalid id %d", id))
	}
	return len(m.data[id]) - 1 // offset 0 is burned, not data
}

// MigrateRegion moves a region's physical home to module `to`, charging the
// copy as a pipelined DMA burst: every allocated word occupies the source
// module, the buses and ring along the path, and the destination module for
// one service time each, and the migrating processor stalls until the last
// word lands. The burst queues at the same resources as ordinary accesses,
// so a migration both suffers and causes interconnect contention, but it
// emits no per-word trace events (the copy is mechanism, not workload — it
// must not pollute the access matrices that placement decisions feed on).
// It reports the words copied and the stall charged to p. Migrating to the
// current home is free. Physical modules cannot migrate.
func (m *Memory) MigrateRegion(p *Proc, region, to int) (words int, cost Duration) {
	if m.par != nil {
		panic("sim: MigrateRegion is not supported in parallel mode")
	}
	if region < len(m.modules) || region >= len(m.data) {
		panic(fmt.Sprintf("sim: MigrateRegion of non-region %d", region))
	}
	if to < 0 || to >= len(m.modules) {
		panic(fmt.Sprintf("sim: MigrateRegion to invalid module %d", to))
	}
	if m.Replicated(region) {
		panic(fmt.Sprintf("sim: MigrateRegion of replicated region %d (collapse first)", region))
	}
	from := m.homes[region]
	words = len(m.data[region]) - 1
	if from == to || words == 0 {
		m.homes[region] = to
		return words, 0
	}
	cost = m.burst(from, to, words)
	m.homes[region] = to
	p.Think(cost)
	return words, cost
}

// burst charges a pipelined words-long DMA copy from module `from` to
// module `to`: every word occupies the source module, then each resource
// of the route from `from` to `to` (path), for one service time each. It
// returns the total latency (last word landed), queueing included. Shared
// by MigrateRegion and ReplicateRegion.
func (m *Memory) burst(from, to, words int) Duration {
	now := m.eng.Now()
	w := Duration(words)
	t := m.modules[from].Acquire(now, m.lat.ModuleService*w)
	t, base := m.path(from, to, t, w)
	return t + m.lat.ModuleService*w + base - now
}

// ReplicateRegion installs a copy of a region on module `to`, charging the
// copy burst from the region's primary home to the new replica module
// exactly like a migration charges its move. Afterwards loads of the
// region are served by the requester's nearest copy (primary included)
// and every write additionally charges one update transfer per replica —
// replication buys read locality at a per-write price, the paper's
// read-mostly data trade. Replicating onto the primary home or an
// existing replica is a free no-op. The primary cannot migrate while
// replicas exist (MigrateRegion panics); CollapseRegion drops them.
func (m *Memory) ReplicateRegion(p *Proc, region, to int) (words int, cost Duration) {
	if m.par != nil {
		panic("sim: ReplicateRegion is not supported in parallel mode")
	}
	if region < len(m.modules) || region >= len(m.data) {
		panic(fmt.Sprintf("sim: ReplicateRegion of non-region %d", region))
	}
	if to < 0 || to >= len(m.modules) {
		panic(fmt.Sprintf("sim: ReplicateRegion to invalid module %d", to))
	}
	if to == m.homes[region] {
		return 0, 0
	}
	for _, r := range m.Replicas(region) {
		if r == to {
			return 0, 0
		}
	}
	words = len(m.data[region]) - 1
	if words > 0 {
		cost = m.burst(m.homes[region], to, words)
	}
	if region >= len(m.replicas) {
		m.replicas = append(m.replicas, make([][]int, region+1-len(m.replicas))...)
		m.near = append(m.near, make([][]int, region+1-len(m.near))...)
	}
	reps := append(m.replicas[region], to)
	// Keep the set sorted so nearest-copy tie-breaking is deterministic
	// regardless of installation order.
	for i := len(reps) - 1; i > 0 && reps[i] < reps[i-1]; i-- {
		reps[i], reps[i-1] = reps[i-1], reps[i]
	}
	m.replicas[region] = reps
	near := make([]int, len(m.modules))
	for src := range near {
		near[src] = m.nearestCopy(src, m.homes[region], reps)
	}
	m.near[region] = near
	if cost > 0 {
		p.Think(cost)
	}
	return words, cost
}

// CollapseRegion drops all replicas of a region, returning how many were
// dropped. The invalidation broadcast itself is free (a handful of
// control-message words, noise next to the copies it undoes); the saving
// is that subsequent writes stop paying per-replica updates.
func (m *Memory) CollapseRegion(region int) int {
	if region < 0 || region >= len(m.data) {
		panic(fmt.Sprintf("sim: CollapseRegion of invalid id %d", region))
	}
	n := len(m.Replicas(region))
	if n > 0 {
		m.replicas[region] = nil
		m.near[region] = nil
	}
	return n
}

// NearestCopies returns a replicated region's nearest-copy table, indexed
// by physical source module: the copy (primary or replica) a load from
// that module reads. It is nil when the region has one copy or region is
// no region id. The slice is live; do not mutate.
func (m *Memory) NearestCopies(region int) []int {
	if region < 0 || region >= len(m.near) {
		return nil
	}
	return m.near[region]
}

// Replicas returns the region's extra copy modules (sorted, primary
// excluded), nil when unreplicated or when region is no region id. The
// slice is live; do not mutate.
func (m *Memory) Replicas(region int) []int {
	if region < 0 || region >= len(m.replicas) {
		return nil
	}
	return m.replicas[region]
}

// Replicated reports whether the region currently has replicas.
func (m *Memory) Replicated(region int) bool { return len(m.Replicas(region)) > 0 }

func (m *Memory) stationOf(module int) int { return module / m.procsPerStation }

// StationOf reports the station of an address-space index (physical module
// or region id, which resolves to its current physical home).
func (m *Memory) StationOf(i int) int { return m.stationOf(m.Home(i)) }

// Alloc reserves n words of zeroed memory on the given module and returns
// the address of the first word. Allocation itself is free (it models
// static kernel data placement, not a runtime allocator).
func (m *Memory) Alloc(module, n int) Addr {
	if module < 0 || module >= len(m.data) {
		panic(fmt.Sprintf("sim: Alloc on module %d of %d", module, len(m.data)))
	}
	off := len(m.data[module])
	if !offsetFits(uint64(off), uint64(n)) {
		panic("sim: module address space exhausted")
	}
	m.data[module] = append(m.data[module], make([]uint64, n)...)
	return Addr(uint64(module)<<moduleShift | uint64(off))
}

// offsetFits reports whether n words starting at offset off stay within a
// module's 1<<moduleShift-word address space. An allocation that exactly
// fills the space (off+n == 1<<moduleShift) is legal: the last word's
// offset is 1<<moduleShift-1, still representable.
func offsetFits(off, n uint64) bool {
	return off+n <= 1<<moduleShift
}

func (m *Memory) word(a Addr) *uint64 {
	mod := a.Module()
	off := a.offset()
	if mod >= len(m.data) || off >= uint64(len(m.data[mod])) || off == 0 {
		panic(fmt.Sprintf("sim: access to unallocated address %#x", uint64(a)))
	}
	return &m.data[mod][off]
}

// Peek reads a word with no simulated cost. For tests and instrumentation
// only — simulated code must use Proc.Load.
func (m *Memory) Peek(a Addr) uint64 { return *m.word(a) }

// Poke writes a word with no simulated cost, waking watchers. For tests and
// instrumentation only.
func (m *Memory) Poke(a Addr, v uint64) {
	*m.word(a) = v
	m.wakeWatchers(a, m.eng.Now())
}

// Module exposes a module's resource counters (utilization statistics).
// Region ids resolve to the module currently backing them.
func (m *Memory) Module(i int) *Resource { return &m.modules[m.Home(i)] }

// ResetStats opens a fresh accounting window on every resource at the
// current simulated time, clearing the utilization counters. Utilization
// read afterwards covers only activity since this call. In parallel mode
// call it only while the workers are quiesced (before Run or at a barrier).
func (m *Memory) ResetStats() {
	now := m.eng.Now()
	m.Resources(func(r *Resource) { r.ResetStats(now) })
}

// Resources calls fn for every memory-system resource (modules, then buses,
// then local rings and ring ports if present, then the ring), for
// utilization reports.
func (m *Memory) Resources(fn func(*Resource)) {
	for i := range m.modules {
		fn(&m.modules[i])
	}
	for i := range m.buses {
		fn(&m.buses[i])
	}
	for i := range m.localRings {
		fn(&m.localRings[i])
	}
	for i := range m.ringPorts {
		fn(&m.ringPorts[i])
	}
	fn(&m.ring)
}

// access performs one memory reference for processor p. kind selects the
// operation; the word's value is updated immediately (call order per module
// equals service order, so per-word value sequences are consistent) and the
// completion time at which the processor may proceed is returned.
type accessKind int

const (
	accLoad accessKind = iota
	accStore
	accSwap
	accCAS
)

// accessNames label trace events by operation.
var accessNames = [...]string{accLoad: "load", accStore: "store", accSwap: "swap", accCAS: "cas"}

func (m *Memory) access(p *Proc, a Addr, kind accessKind, operand, expect uint64) (old uint64, done Time, ok bool) {
	src := p.module
	idx := a.Module()
	dst := m.homes[idx] // resolve region → current physical home
	var reps []int
	if idx < len(m.replicas) {
		reps = m.replicas[idx]
	}
	if len(reps) > 0 && kind == accLoad {
		// A replicated region serves reads from the requester's nearest
		// copy; the primary competes on equal terms.
		dst = m.near[idx][src]
	}

	// An atomic read-modify-write is two memory transactions on HECTOR:
	// it occupies the module, buses and ring for both halves, though the
	// processor only waits out the fetch half (plus AtomicExtra).
	nAcc := Duration(1)
	var extra Duration
	if kind == accSwap || kind == accCAS {
		nAcc = Duration(m.lat.AtomicAccesses)
		extra = m.lat.AtomicExtra
	}
	if m.par != nil && m.stationOf(src) != m.stationOf(dst) {
		// Parallel mode: the access leaves this station's logical process
		// and travels as a timestamped inter-LP message (see parallel.go).
		return m.par.remoteAccess(p, a, kind, operand, expect, nAcc, extra)
	}
	now := p.eng.Now()

	t, base := m.path(src, dst, now, nAcc)

	queueDelay := t - now
	done = now + queueDelay + base + extra

	w := m.word(a)
	old = *w
	ok = kind != accCAS || old == expect
	if len(reps) > 0 && ok && kind != accLoad {
		// Write propagation: every extra copy is brought up to date by one
		// plain transfer from the writer, and the writer waits for the last
		// acknowledgement (sequentially-consistent update broadcast — the
		// strictest, and simplest, coherence model).
		for _, r := range reps {
			ut, ubase := m.path(src, r, now, 1)
			if ud := ut + ubase; ud > done {
				done = ud
			}
			m.ReplicaUpdates++
		}
	}

	if p.eng.tracer != nil {
		p.eng.tracer.Event(TraceEvent{
			Kind: EvAccess, Name: accessNames[kind], Proc: p.id,
			Start: now, End: done,
			Src: src, Dst: dst, Dist: m.Distance(src, dst), Arg: uint64(a),
		})
	}

	m.write(a, w, kind, ok, operand, done)
	return old, done, ok
}

// path routes one nAcc-wide access from module src to module dst through
// the interconnect, starting at t, and returns the time the destination
// module starts serving it and the distance class's base latency; callers
// add base (and any atomic extra) to the queueing delay themselves. The
// route has two halves: the source half (outbound: the source bus, then
// the ring hops), which only a cross-station access takes, and the home
// half, the home station's bus for any off-module access, then the module.
// The classic engine runs both at issue. On the LP engine a cross-station
// access's source half runs at issue (parSim.remoteAccess), and path runs
// its home half alone, at the request's arrival (parSim.homeAccess).
func (m *Memory) path(src, dst int, t Time, nAcc Duration) (Time, Duration) {
	var base Duration
	switch {
	case src == dst:
		base = m.lat.Local
	case m.stationOf(src) == m.stationOf(dst):
		base = m.lat.Station
		t = m.buses[m.stationOf(dst)].Acquire(t, m.lat.BusService*nAcc)
	default:
		ss, ds := m.stationOf(src), m.stationOf(dst)
		if m.par == nil {
			t, base = m.outbound(ss, ds, t, nAcc)
		}
		t = m.buses[ds].Acquire(t, m.lat.BusService*nAcc)
	}
	t = m.modules[dst].Acquire(t, m.lat.ModuleService*nAcc)
	return t, base
}

// outbound is the source half of a cross-station access from station ss to
// station ds, starting at t: it reserves the source station's bus, then
// the ring hops, and returns the time the request leaves the ring and the
// base latency, Ring or, between local-ring groups, Ring2. It is the only
// code that knows the ring discipline: the classic engine reserves the
// shared rings (the flat ring, or the source local ring, the global ring
// and the destination local ring of a hierarchy), and the LP engine the
// source station's injection port.
func (m *Memory) outbound(ss, ds int, t Time, nAcc Duration) (Time, Duration) {
	t = m.buses[ss].Acquire(t, m.lat.BusService*nAcc)
	hop := m.lat.RingService * nAcc
	gs, gd := m.groupOf(ss), m.groupOf(ds)
	switch {
	case m.par != nil:
		t = m.ringPorts[ss].Acquire(t, hop)
	case m.localRings == nil:
		t = m.ring.Acquire(t, hop)
	case gs == gd:
		t = m.localRings[gs].Acquire(t, hop)
	default:
		t = m.localRings[gs].Acquire(t, hop)
		t = m.ring.Acquire(t, hop)
		t = m.localRings[gd].Acquire(t, hop)
	}
	if gs != gd {
		return t, m.lat.Ring2
	}
	return t, m.lat.Ring
}

// write applies an access to the word w at address a: a store, a swap, or
// a CAS that found its expected value (ok) writes v, and the word's
// watchers wake at time at. A load or a failed CAS leaves the word alone.
// Every simulated access of either engine updates its word here.
func (m *Memory) write(a Addr, w *uint64, kind accessKind, ok bool, v uint64, at Time) {
	if kind == accLoad || !ok {
		return
	}
	*w = v
	m.wakeWatchers(a, at)
}

// nearestCopy picks the copy of a replicated region closest to src by
// distance class, ties broken toward the lowest module number (primary
// included), so the choice is deterministic. ReplicateRegion tabulates it
// for every source module.
func (m *Memory) nearestCopy(src, primary int, reps []int) int {
	best, bestD := primary, m.Distance(src, primary)
	for _, r := range reps {
		if d := m.Distance(src, r); d < bestD || (d == bestD && r < best) {
			best, bestD = r, d
		}
	}
	return best
}

// watch registers p to be woken when the word at a is next written. p must
// not already be watching (WaitLocal's unwatch-after-park discipline
// guarantees this — a double insert would corrupt the intrusive list).
func (m *Memory) watch(a Addr, p *Proc) {
	p.watching = true
	p.watchNext = nil
	shard := m.watchShard(a)
	l := shard[a]
	if l.tail == nil {
		l.head, l.tail = p, p
	} else {
		l.tail.watchNext = p
		l.tail = p
	}
	shard[a] = l
}

// unwatch removes p from the watcher list of a. A write-wake already
// cleared the whole list, so this only walks when p was unparked some other
// way (an IRQ) while its watch was still registered.
func (m *Memory) unwatch(a Addr, p *Proc) {
	if !p.watching {
		return
	}
	p.watching = false
	shard := m.watchShard(a)
	l := shard[a]
	var prev *Proc
	for q := l.head; q != nil; prev, q = q, q.watchNext {
		if q != p {
			continue
		}
		if prev == nil {
			l.head = q.watchNext
		} else {
			prev.watchNext = q.watchNext
		}
		if l.tail == q {
			l.tail = prev
		}
		q.watchNext = nil
		break
	}
	if l.head == nil {
		delete(shard, a)
	} else {
		shard[a] = l
	}
}

func (m *Memory) wakeWatchers(a Addr, at Time) {
	shard := m.watchShard(a)
	if len(shard) == 0 {
		return // nobody watches a word of this shard: no lookup
	}
	l, ok := shard[a]
	if !ok {
		return
	}
	delete(shard, a)
	for p := l.head; p != nil; {
		next := p.watchNext
		p.watchNext = nil
		p.watching = false
		p.unparkAt(at)
		p = next
	}
}
