// Package kernel implements the HURRICANE-like micro-kernel substrate the
// paper's evaluation exercises: a clustered virtual-memory subsystem (region
// table, file-cache-block table, page descriptors, page tables) whose
// soft-page-fault path is calibrated to the paper's 160us (of which ~40us
// is locking), copy-on-write faults, page-level coherence updates, and a
// clustered process subsystem (descriptors, family tree, destruction,
// message passing) driven by the §2.3 optimistic — or, for comparison,
// pessimistic — cross-cluster deadlock-management protocol.
package kernel

import (
	"fmt"

	"hurricane/internal/cluster"
	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// Protocol selects the cross-cluster deadlock-management discipline (§2.3).
type Protocol int

const (
	// Optimistic sets reserve bits before releasing local locks and
	// retries the remote operation if it meets a reserve bit. State is
	// re-established only when a retry was needed.
	Optimistic Protocol = iota
	// Pessimistic releases all locks and reserve bits before any remote
	// operation and re-establishes (re-searches, revalidates) local state
	// afterwards, every time.
	Pessimistic
)

func (pr Protocol) String() string {
	if pr == Pessimistic {
		return "pessimistic"
	}
	return "optimistic"
}

// buckets sizes every kernel hash table.
const buckets = 64

// Config selects the kernel's structure.
type Config struct {
	// ClusterSize is the number of processors per cluster.
	ClusterSize int
	// LockKind is the algorithm used for every coarse-grained lock.
	LockKind locks.Kind
	// Protocol is the cross-cluster deadlock-management discipline.
	Protocol Protocol
	// SlotModule, when non-nil, overrides where cluster c's kernel data
	// slot lives: it receives the cluster, the slot and the topology's
	// default module and returns the module to use. Trace-guided placement
	// replays feed analyzer-proposed moves through this hook.
	SlotModule func(c, slot, def int) int
	// Migratable allocates every cluster's kernel-data slots in migratable
	// memory regions (sim.Memory.NewRegion), so an online placement daemon
	// can re-home them mid-run through Kernel.MigrateSlot. Off (the
	// default), slots are plain static allocations and the memory system
	// behaves exactly as before — runs are bit-identical to older builds.
	Migratable bool
	// TuneParams, when non-nil and LockKind is KindTuned, parameterizes
	// every kernel lock's feedback controller — in particular
	// Params.Plane, which registers the samplers on a shared autonomics
	// plane instead of private daemon events. Nil keeps the per-lock
	// defaults (locks.NewTuned's zero Params).
	TuneParams *tune.Params
}

// Stats aggregates kernel-wide event counters.
type Stats struct {
	Faults            uint64 // page faults handled
	COWCopies         uint64 // private pages instantiated by COW faults
	CoherenceRPCs     uint64 // write-notices sent to page-descriptor masters
	CreateRetries     uint64 // child-link restarts (busy parent or child)
	DestroyRetries    uint64 // destruction restarts (reserve conflicts)
	MsgRetries        uint64 // message-send restarts
	Reestablishments  uint64 // pessimistic re-validations of released state
	Migrations        uint64 // online kernel-data slot migrations executed
	MigratedWords     uint64 // words of kernel data copied by those migrations
	MigrationCycles   uint64 // cycles stalled in migration copy bursts
	Replications      uint64 // online kernel-data slot replications executed
	ReplicatedWords   uint64 // words copied installing those replicas
	ReplicationCycles uint64 // cycles stalled in replication copy bursts
	Collapses         uint64 // replica sets collapsed back to one copy
	Requests          uint64 // server requests completed (EndRequest)
	RequestCycles     uint64 // total request sojourn time in cycles
}

// Kernel ties the subsystems together.
type Kernel struct {
	M    *sim.Machine
	Topo *cluster.Topology
	RPC  *cluster.RPC
	Gate *cluster.Gate
	VM   *VM
	PM   *ProcessManager

	cfg   Config
	Stats Stats
	// extras are migratable slots registered by the workload (tenant data,
	// say) beyond the VM's built-in kernel-data slots; see RegisterSlot.
	extras []SlotRef
}

// New builds a kernel over machine m.
func New(m *sim.Machine, cfg Config) *Kernel {
	if cfg.ClusterSize == 0 {
		cfg.ClusterSize = m.NumProcs()
	}
	k := &Kernel{M: m, cfg: cfg}
	k.Topo = cluster.NewTopology(m, cfg.ClusterSize)
	k.Gate = cluster.NewGate(m)
	k.RPC = cluster.NewRPC(k.Topo, k.Gate)
	k.VM = newVM(k)
	k.PM = newProcessManager(k)
	return k
}

// Config returns the kernel's configuration.
//
//doclint:keep core's tests check through it that NewSystem plumbs its config into the kernel
func (k *Kernel) Config() Config { return k.cfg }

// newLock builds one coarse-grained kernel lock homed on the given module
// (or region id), honoring Config.TuneParams for feedback-tuned locks so
// every kernel controller shares one parameter set — and, through
// Params.Plane, one autonomics-plane cadence.
func (k *Kernel) newLock(home int) locks.Lock {
	if k.cfg.LockKind == locks.KindTuned && k.cfg.TuneParams != nil {
		return locks.NewTuned(k.M, home, *k.cfg.TuneParams)
	}
	return locks.New(k.M, k.cfg.LockKind, home)
}

// RegisterSlot places an existing migratable memory region under the
// kernel's slot management: the returned SlotRef joins MigratableSlots, so
// the autonomics plane's policies may migrate or replicate the region like
// any kernel-data slot. The slot is guarded by cluster c's memory-manager
// lock during moves. The caption labels it in move logs.
func (k *Kernel) RegisterSlot(c int, label string, region int) SlotRef {
	if c < 0 || c >= k.Topo.N {
		panic(fmt.Sprintf("kernel: RegisterSlot on cluster %d of %d", c, k.Topo.N))
	}
	slot := slotsPerCluster
	for _, e := range k.extras {
		if e.Cluster == c {
			slot++
		}
	}
	ref := SlotRef{Cluster: c, Slot: slot, Region: region, Label: label}
	k.extras = append(k.extras, ref)
	return ref
}

// EndRequest completes a server request that arrived at `arrival`, before
// its queueing delay: it bumps the kernel-wide request counters and emits a
// SpanRequest trace span covering the whole sojourn, tagged with the tenant
// rank. It costs no simulated time: it models per-request accounting the
// kernel would keep in the request descriptor it already touches.
func (k *Kernel) EndRequest(p *sim.Proc, tenant uint64, arrival sim.Time) {
	k.Stats.Requests++
	k.Stats.RequestCycles += uint64(p.Now() - arrival)
	k.M.EmitSpan(sim.SpanRequest, "server.request", p.ID(), arrival, p.Now(), -1, tenant)
}

// Controllers returns the tune.Controller of every feedback-tuned lock the
// kernel owns (memory-manager, address-space and process-table locks), in
// deterministic cluster order, looking through a locks.Stats telemetry
// wrapper. Empty unless Config.LockKind is KindTuned — the handle the
// controller-interaction tests use to check that kernel-wide tuning does
// not oscillate.
func (k *Kernel) Controllers() []*tune.Controller {
	var cs []*tune.Controller
	add := func(l locks.Lock) {
		if s, ok := l.(*locks.Stats); ok {
			l = s.Unwrap()
		}
		if tl, ok := l.(*locks.Tuned); ok {
			cs = append(cs, tl.Controller())
		}
	}
	for c := 0; c < k.Topo.N; c++ {
		add(k.VM.MMLock(c))
		add(k.VM.aspaces[c].Lock())
		add(k.PM.tables[c].Lock())
	}
	return cs
}

// checkReplicaSet panics, naming the slot and when the check ran, unless
// the slot's replica set is a strictly increasing list of physical modules
// without the primary's current one: the set the memory system's
// nearest-copy reads, its per-copy write updates and the server's
// dispatcher rely on. It costs no simulated time.
func (k *Kernel) checkReplicaSet(ref SlotRef, when string) {
	home, reps := k.M.Mem.Home(ref.Region), k.M.Mem.Replicas(ref.Region)
	for i, r := range reps {
		if r < 0 || r >= k.M.NumProcs() || r == home || (i > 0 && r <= reps[i-1]) {
			panic(fmt.Sprintf("kernel: slot %s's replica set %v (primary on module %d) is not strictly increasing physical modules without the primary %s",
				ref.Name(), reps, home, when))
		}
	}
}

// CheckQuiescent panics if any entry of the kernel's tables (process
// descriptors, regions, FCBs, pages, address spaces) still has its reserve
// word set: once a run has finished, every reservation must have been
// released. It also runs every migratable slot's replica-set check (the
// one MigrateSlot, ReplicateSlot and CollapseSlot run after each
// actuation). It reads with uncharged peeks, so it costs no simulated
// time.
func (k *Kernel) CheckQuiescent() {
	for _, ref := range k.MigratableSlots() {
		k.checkReplicaSet(ref, "at quiescence")
	}
	for c := 0; c < k.Topo.N; c++ {
		for _, nt := range []struct {
			name string
			t    *hybrid.Table
		}{
			{"process", k.PM.tables[c]},
			{"region", k.VM.regions.Table(c)},
			{"FCB", k.VM.fcbs.Table(c)},
			{"page", k.VM.pages.Table(c)},
			{"address-space", k.VM.aspaces[c]},
		} {
			nt.t.PeekWalk(func(e sim.Addr) {
				if st := k.M.Mem.Peek(e + hybrid.EntStatus); st != 0 {
					panic(fmt.Sprintf("kernel: key %#x in cluster %d's %s table still reserved (status %d) at quiescence",
						k.M.Mem.Peek(e+hybrid.EntKey), c, nt.name, st))
				}
			})
		}
	}
}

// Key encoding: kernel objects are named by 64-bit keys whose high byte is
// the home cluster (the paper's "data specific location resolution": the
// home is computable from the name, so resolution is free), the next byte a
// class tag, and the rest an index.
const (
	classRegion = 1
	classFCB    = 2
	classPage   = 3
	classProc   = 4
	classAS     = 5 // address-space / HAT entries (per cluster, never replicated)
)

// MakeKey builds a key homed on the given cluster.
func MakeKey(home, class int, n uint64) uint64 {
	return uint64(home)<<56 | uint64(class)<<48 | (n & (1<<48 - 1))
}

// HomeOf recovers the home cluster of a key.
func HomeOf(key uint64) int { return int(key >> 56) }

// ClassOf recovers the class tag of a key.
func ClassOf(key uint64) int { return int(key >> 48 & 0xff) }

func (k *Kernel) checkKey(key uint64, class int) {
	if ClassOf(key) != class || HomeOf(key) >= k.Topo.N {
		panic(fmt.Sprintf("kernel: bad key %#x (class %d, clusters %d)", key, class, k.Topo.N))
	}
}
