package kernel

import (
	"fmt"

	"hurricane/internal/cluster"
	"hurricane/internal/hybrid"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// Page-descriptor payload layout (words after hybrid.EntData).
const (
	pgRefcount = 0 // mappings / COW sharers
	pgFlags    = 1
	pgFrame    = 2 // physical frame number
	pgWriters  = 3 // master only: write notices received (page-level coherence)
)

// Page flags.
const (
	// FlagCOW marks a copy-on-write page: a write fault with refcount > 1
	// must instantiate a private copy.
	FlagCOW = 1 << iota
	// FlagCoherent marks a page under page-level coherence: every write
	// fault from a non-home cluster sends a write notice to the master.
	FlagCoherent
)

// Region payload layout.
const (
	rgFile = 0 // FCB key base for the backing file
	rgBase = 1 // page-descriptor key base
)

// Fault path cost model (cycles), calibrated so an uncontended soft fault
// costs ~160us with ~40us of locking (§1).
const (
	costTrapEntry  = 420
	costRegionWork = 280
	costFCBWork    = 260
	costPageWork   = 780
	costTrapExit   = 360
	costUnmapWork  = 180
)

// ptWords is the page-table size per (process, processor).
const ptWords = 64

// FaultWorkCycles is the fixed non-locking computation charged on the soft
// fault path (exported for calibration reporting: total fault time minus
// this is concurrency-control overhead).
func FaultWorkCycles() sim.Duration {
	return costTrapEntry + costRegionWork + costFCBWork + costPageWork + costTrapExit
}

// VM is the clustered virtual-memory subsystem: three replicated tables
// (regions, file cache blocks, page descriptors) and per-process,
// per-processor page tables. Per cluster, the three tables share one
// coarse-grained memory-manager lock — the paper's hybrid pattern — so the
// fault fast path searches all three and sets its reserve bits in a single
// lock hold.
type VM struct {
	k       *Kernel
	mmLocks []locks.Lock
	regions *cluster.Replicated
	fcbs    *cluster.Replicated
	pages   *cluster.Replicated

	// aspaces holds per-cluster address-space and HAT entries, two per
	// process: the address-space entry is read-shared across a fault, the
	// HAT entry serializes page-table updates. Entries are created lazily
	// on a cluster's first fault for a process.
	aspaces []*hybrid.Table

	// scratch is per-cluster kernel data the fault path's computation
	// reads as it works (validation structures, free lists, statistics).
	// Because it lives on the cluster's memory modules, remote-spinning
	// lock waiters slow this work down — the second-order effect.
	scratch [][]sim.Addr

	// slotRegions[c][slot], present only under Config.Migratable, is the
	// sim memory region each kernel-data slot was allocated in. slotModule
	// then hands the region id (a virtual module number) to every
	// allocation, so re-pointing the region's home migrates the slot's
	// lock words, table buckets and scratch data together.
	slotRegions [][]int

	ptes        map[uint64]map[int]sim.Addr
	nextPrivate uint64
}

func newVM(k *Kernel) *VM {
	v := &VM{
		k:    k,
		ptes: make(map[uint64]map[int]sim.Addr),
	}
	if k.cfg.Migratable {
		// Regions are created before any slot allocation so every
		// kernel-data word of slot s lands inside region slotRegions[c][s].
		// Each region's initial home is the slot's resolved static placement
		// (topology default, or the SlotModule replay override), so a
		// daemonless migratable run starts from the same layout a static
		// run uses.
		v.slotRegions = make([][]int, k.Topo.N)
		for c := 0; c < k.Topo.N; c++ {
			v.slotRegions[c] = make([]int, slotsPerCluster)
			for s := 0; s < slotsPerCluster; s++ {
				def := k.Topo.SlotModule(c, s)
				if f := k.cfg.SlotModule; f != nil {
					def = f(c, s, def)
				}
				v.slotRegions[c][s] = k.M.Mem.NewRegion(def)
			}
		}
	}
	v.mmLocks = make([]locks.Lock, k.Topo.N)
	mmModule := func(c int) int { return v.slotModule(c, 0) }
	for c := 0; c < k.Topo.N; c++ {
		v.mmLocks[c] = k.newLock(mmModule(c))
	}
	lockOf := func(c int) locks.Lock { return v.mmLocks[c] }
	v.regions = cluster.NewReplicatedShared(k.Topo, k.RPC, buckets, 2, lockOf, mmModule)
	v.fcbs = cluster.NewReplicatedShared(k.Topo, k.RPC, buckets, 1, lockOf, mmModule)
	v.pages = cluster.NewReplicatedShared(k.Topo, k.RPC, buckets, 4, lockOf, mmModule)
	v.aspaces = make([]*hybrid.Table, k.Topo.N)
	v.scratch = make([][]sim.Addr, k.Topo.N)
	for c := 0; c < k.Topo.N; c++ {
		module := v.slotModule(c, 3)
		v.aspaces[c] = hybrid.NewShared(k.M, k.newLock(module), module, buckets, 1)
		v.aspaces[c].Guard = k.Gate
		for s := 0; s < 4; s++ {
			m := v.slotModule(c, s)
			v.scratch[c] = append(v.scratch[c], k.M.Alloc(m, 4))
		}
	}
	v.regions.HomeOf = HomeOf
	v.fcbs.HomeOf = HomeOf
	v.pages.HomeOf = HomeOf
	// The logical interrupt mask brackets every coarse-lock hold (§3.2),
	// so RPC handlers can never deadlock against an interrupted holder.
	v.regions.SetGuard(k.Gate)
	v.fcbs.SetGuard(k.Gate)
	v.pages.SetGuard(k.Gate)
	return v
}

// slotsPerCluster is the number of distinct kernel-data slots a cluster
// stripes across its modules: the memory-manager lock + tables (0), two
// scratch-only slots (1, 2), and the address-space table (3).
const slotsPerCluster = 4

// slotModule resolves where cluster c's kernel-data slot lives. Under
// Config.Migratable it is the slot's region id — a virtual module whose
// physical home the online daemon may re-point; otherwise it is a static
// physical module, applying the Config.SlotModule placement override
// (trace-guided replays) over the topology's default.
func (v *VM) slotModule(c, slot int) int {
	if v.slotRegions != nil {
		return v.slotRegions[c][slot]
	}
	def := v.k.Topo.SlotModule(c, slot)
	if f := v.k.cfg.SlotModule; f != nil {
		return f(c, slot, def)
	}
	return def
}

// Pages exposes the page-descriptor table (experiments read its counters).
func (v *VM) Pages() *cluster.Replicated { return v.pages }

// SetupRegion installs a region descriptor: fileKey is the FCB key base of
// the backing file, baseKey the page-descriptor key base. Setup is charged
// to p like any kernel operation.
func (v *VM) SetupRegion(p *sim.Proc, regionKey, fileKey, baseKey uint64) {
	v.k.checkKey(regionKey, classRegion)
	v.k.checkKey(fileKey, classFCB)
	v.k.checkKey(baseKey, classPage)
	if !v.regions.Create(p, regionKey, []uint64{fileKey, baseKey}) {
		panic(fmt.Sprintf("kernel: region %#x already exists", regionKey))
	}
}

// SetupFCB installs a file-cache-block descriptor.
func (v *VM) SetupFCB(p *sim.Proc, fcbKey uint64) {
	v.k.checkKey(fcbKey, classFCB)
	v.fcbs.Create(p, fcbKey, []uint64{0})
}

// SetupPage installs a page descriptor with the given sharer count, flags
// and frame number.
func (v *VM) SetupPage(p *sim.Proc, pageKey uint64, refcount, flags, frame uint64) {
	v.k.checkKey(pageKey, classPage)
	v.pages.Create(p, pageKey, []uint64{refcount, flags, frame, 0})
}

// pt returns (lazily creating) the page-table base for process pid on
// processor proc. The table lives in the processor's local memory.
func (v *VM) pt(pid uint64, proc int) sim.Addr {
	m, ok := v.ptes[pid]
	if !ok {
		m = make(map[int]sim.Addr)
		v.ptes[pid] = m
	}
	a, ok := m[proc]
	if !ok {
		a = v.k.M.Alloc(proc, ptWords)
		m[proc] = a
	}
	return a
}

// work charges cycles of kernel computation whose memory references hit
// the cluster's kernel modules: roughly one access per 100 cycles, the
// rest processor-local. Lock waiters remote-spinning on those modules
// therefore stretch this work.
func (v *VM) work(p *sim.Proc, cycles sim.Duration) {
	c := v.k.Topo.ClusterOf(p.ID())
	sc := v.scratch[c]
	id := p.ID()
	p.Sweep(int(cycles/100), func(j int) sim.Addr {
		i := id + j
		return sc[i%len(sc)] + sim.Addr(i%4)
	}, false, 0, 80)
	p.Think(cycles % 100)
}

// ensureAS lazily creates the caller's cluster's address-space and HAT
// entries for pid and returns their keys.
func (v *VM) ensureAS(p *sim.Proc, pid uint64) (asK, hatK uint64) {
	c := v.k.Topo.ClusterOf(p.ID())
	t := v.aspaces[c]
	asK = MakeKey(c, classAS, pid<<8)
	hatK = asK | 1
	// Existence check is free: after the first fault the processor holds
	// the address-space pointer (the equivalent of a per-processor cached
	// reference).
	if t.PeekSearch(asK) == 0 {
		module := v.slotModule(c, 3)
		e := t.NewEntry(p, module, asK)
		t.Insert(p, e) // a racing insert loses harmlessly
		e2 := t.NewEntry(p, module, hatK)
		t.Insert(p, e2)
	}
	return asK, hatK
}

// FaultResult describes a completed page fault.
type FaultResult struct {
	// COWCopied reports that a private page was instantiated.
	COWCopied bool
	// Retries counts protocol retries taken during the fault.
	Retries int
}

// Fault handles a soft page fault (the page is in core; the PTE is absent)
// by process pid on the calling processor: region lookup, file-cache-block
// lookup, page-descriptor acquisition (replicating it to this cluster if
// needed), coherence/COW work, PTE installation. This is the paper's
// 160us path.
func (v *VM) Fault(p *sim.Proc, pid uint64, regionKey, vpn uint64, write bool) (FaultResult, error) {
	v.k.checkKey(regionKey, classRegion)
	var res FaultResult
	traced := v.k.M.Tracing()
	if traced {
		// The whole-fault span covers trap entry through trap exit, on every
		// return path; the dst is the cluster's memory-manager home module,
		// the data the fault path contends for.
		f0 := p.Now()
		defer func() {
			home := v.mmLocks[v.k.Topo.ClusterOf(p.ID())].Home()
			v.k.M.EmitSpan(sim.SpanFault, "fault", p.ID(), f0, p.Now(), home, regionKey)
		}()
	}
	p.Think(costTrapEntry)

	// The faulting process's address-space state is processor-local after
	// the first fault (one uncharged ensure, then a plain local read).
	c := v.k.Topo.ClusterOf(p.ID())
	ast := v.aspaces[c]
	asK, hatK := v.ensureAS(p, pid)
	_ = asK

	mode := hybrid.Shared
	if write {
		mode = hybrid.Exclusive
	}

	// Fast path (the hybrid pattern, Figure 1b): one hold of the cluster's
	// memory-manager lock searches the region, file-cache and page tables
	// and sets the page's reserve bit — no atomic instructions beyond the
	// lock pair. Misses and reserve conflicts fall out to the slow paths
	// (replication, reserve-bit spin), then retry.
	const (
		fastOK         = iota
		fastRegionMiss // absent locally: replicate (or fail)
		fastRegionBusy // exclusively reserved (mid-fetch/update): wait
		fastFCBMiss
		fastFCBBusy
		fastPageMiss
		fastPageBusy
	)
	var fileKey, baseKey, pageKey uint64
	var pe sim.Addr
	mm := v.mmLocks[c]
	for {
		state := fastOK
		var tAcq, tReg, tFCB, tPage sim.Time
		v.k.Gate.Enter(p)
		mm.Acquire(p)
		tAcq = p.Now()
		re := v.regions.Table(c).SearchLocked(p, regionKey)
		tReg = p.Now()
		switch {
		case re == 0:
			state = fastRegionMiss
		case p.Load(re+hybrid.EntStatus)&1 != 0:
			state = fastRegionBusy // placeholder or writer: payload not valid
		default:
			fileKey = p.Load(re + hybrid.EntData + rgFile)
			baseKey = p.Load(re + hybrid.EntData + rgBase)
			fe := v.fcbs.Table(c).SearchLocked(p, fileKey+vpn)
			tFCB = p.Now()
			switch {
			case fe == 0:
				state = fastFCBMiss
			case p.Load(fe+hybrid.EntStatus)&1 != 0:
				state = fastFCBBusy
			default:
				pageKey = baseKey + vpn
				var ok bool
				if pe, ok = v.pages.Table(c).TryReserveKeyLocked(p, pageKey, mode); pe == 0 {
					state = fastPageMiss
				} else if !ok {
					state = fastPageBusy
				}
				tPage = p.Now()
			}
		}
		mm.Release(p)
		v.k.Gate.Exit(p)
		if traced {
			// The fast path's single lock hold decomposes into the three
			// table sections; spans are emitted after the release so the
			// emission cannot perturb the hold itself (it costs no simulated
			// time either way).
			home := mm.Home()
			v.k.M.EmitSpan(sim.SpanRegionSection, "region lookup", p.ID(), tAcq, tReg, home, regionKey)
			if tFCB != 0 {
				v.k.M.EmitSpan(sim.SpanFCBSection, "fcb lookup", p.ID(), tReg, tFCB, home, fileKey+vpn)
			}
			if tPage != 0 {
				v.k.M.EmitSpan(sim.SpanPageSection, "page lookup", p.ID(), tFCB, tPage, home, pageKey)
			}
		}

		if state == fastOK {
			break
		}
		var ok bool
		switch state {
		case fastRegionMiss, fastRegionBusy:
			// Replicate the region or wait out the reservation (Read does
			// both, or fails authoritatively).
			if _, ok = v.regions.Read(p, regionKey, 2); !ok {
				p.Think(costTrapExit)
				return res, fmt.Errorf("kernel: fault on unmapped region %#x", regionKey)
			}
		case fastFCBMiss, fastFCBBusy:
			if _, ok = v.fcbs.Read(p, fileKey+vpn, 1); !ok {
				p.Think(costTrapExit)
				return res, fmt.Errorf("kernel: no FCB for region %#x vpn %d", regionKey, vpn)
			}
		case fastPageMiss, fastPageBusy:
			// Acquire replicates on miss and spins on the reserve bit on
			// conflict; either way it returns with the bit held.
			pe, ok = v.pages.Acquire(p, pageKey, mode)
			if !ok {
				p.Think(costTrapExit)
				return res, fmt.Errorf("kernel: no page descriptor %#x", pageKey)
			}
		}
		if state == fastPageMiss || state == fastPageBusy {
			break // pe held via the slow path
		}
	}
	v.work(p, costRegionWork)
	v.work(p, costFCBWork)
	v.work(p, costPageWork)

	frame := p.Load(pe + hybrid.EntData + pgFrame)
	if write {
		refcount := p.Load(pe + hybrid.EntData + pgRefcount)
		flags := p.Load(pe + hybrid.EntData + pgFlags)
		switch {
		case flags&FlagCOW != 0 && refcount > 1:
			pe, frame = v.cowCopy(p, pid, pe, pageKey, &res)
		case flags&FlagCoherent != 0 && HomeOf(pageKey) != v.k.Topo.ClusterOf(p.ID()):
			pe = v.writeNotice(p, pe, pageKey, &res)
		}
	}

	// Install the PTE (two stores: entry and a TLB/attribute word) under
	// the HAT entry's reserve bit, which serializes page-table updates for
	// this process within the cluster.
	he, _ := ast.Reserve(p, hatK, hybrid.Exclusive)
	pt := v.pt(pid, p.ID())
	p.Store(pt+sim.Addr(vpn%ptWords), frame<<8|1)
	p.Store(pt+sim.Addr((vpn+1)%ptWords), 0) // attribute shadow word
	if he != 0 {
		ast.ReleaseReserve(p, he, hybrid.Exclusive)
	}

	v.pages.Release(p, pe, mode)
	p.Think(costTrapExit)
	v.k.Stats.Faults++
	return res, nil
}

// writeNotice sends the page-level-coherence write notice to the page's
// master. The notice is a single-word counter bump, so the home cluster's
// coarse memory-manager lock alone serializes it — the hybrid pattern:
// no reserve bit is taken, no retry can be needed, and the caller keeps
// its local reservation throughout. (Multi-word cross-cluster updates —
// COW decrements, destruction — do need the reserve-bit protocol; see
// cowCopy and the process manager.)
func (v *VM) writeNotice(p *sim.Proc, pe sim.Addr, pageKey uint64, res *FaultResult) sim.Addr {
	home := HomeOf(pageKey)
	v.k.RPC.Call(p, home, func(h *sim.Proc) cluster.Status {
		ht := v.pages.Table(home)
		st := cluster.StatusAbsent
		ht.WithLock(h, func() {
			if me := ht.SearchLocked(h, pageKey); me != 0 {
				w := h.Load(me + hybrid.EntData + pgWriters)
				h.Store(me+hybrid.EntData+pgWriters, w+1)
				st = cluster.StatusOK
			}
		})
		return st
	})
	v.k.Stats.CoherenceRPCs++
	return pe
}

// cowCopy instantiates a private copy of a shared COW page: create a new
// descriptor in this cluster, decrement the shared page's master refcount
// (a cross-cluster operation under the deadlock protocol), and hand back
// the new descriptor held exclusively and its frame.
func (v *VM) cowCopy(p *sim.Proc, pid uint64, pe sim.Addr, pageKey uint64, res *FaultResult) (sim.Addr, uint64) {
	c := v.k.Topo.ClusterOf(p.ID())
	home := HomeOf(pageKey)

	// Decrement the master's sharer count. Local-home masters are handled
	// under our existing exclusive hold; remote masters need the protocol.
	if home == c {
		rc := p.Load(pe + hybrid.EntData + pgRefcount)
		p.Store(pe+hybrid.EntData+pgRefcount, rc-1)
	} else {
		decrement := func(h *sim.Proc) cluster.Status {
			return cluster.Reserve(h, v.pages.Table(home), pageKey, hybrid.Exclusive, func(me sim.Addr) {
				rc := h.Load(me + hybrid.EntData + pgRefcount)
				h.Store(me+hybrid.EntData+pgRefcount, rc-1)
				h.Store(me+hybrid.EntStatus, 0)
			})
		}
		// A refused decrement releases the source; the next attempt, after
		// Retry's back-off, acquires it again.
		var retries uint64
		held := true
		cluster.Retry(p, sim.Micros(200), &retries, func() cluster.Status {
			var ok bool
			if !held {
				if pe, ok = v.pages.Acquire(p, pageKey, hybrid.Exclusive); !ok {
					panic("kernel: COW source vanished during optimistic retry")
				}
			}
			if v.k.cfg.Protocol == Pessimistic {
				v.pages.Release(p, pe, hybrid.Exclusive)
			}
			st := v.k.RPC.Call(p, home, decrement)
			if v.k.cfg.Protocol == Pessimistic {
				pe, ok = v.pages.Acquire(p, pageKey, hybrid.Exclusive)
				v.k.Stats.Reestablishments++
				if !ok {
					panic("kernel: COW source vanished during pessimistic decrement")
				}
			}
			if st == cluster.StatusRetry {
				v.pages.Release(p, pe, hybrid.Exclusive)
				held = false
			}
			return st
		})
		res.Retries += int(retries)
		// Keep the local replica's view consistent.
		rc := p.Load(pe + hybrid.EntData + pgRefcount)
		if rc > 0 {
			p.Store(pe+hybrid.EntData+pgRefcount, rc-1)
		}
	}
	v.pages.Release(p, pe, hybrid.Exclusive)

	// Instantiate the private page in our own cluster.
	v.nextPrivate++
	newKey := MakeKey(c, classPage, 1<<40|v.nextPrivate<<8|pid&0xff)
	newFrame := 1<<20 | v.nextPrivate
	v.pages.Create(p, newKey, []uint64{1, 0, newFrame, 0})
	ne, ok := v.pages.Acquire(p, newKey, hybrid.Exclusive)
	if !ok {
		panic("kernel: freshly created COW page missing")
	}
	v.work(p, costPageWork) // the copy itself
	v.k.Stats.COWCopies++
	res.COWCopied = true
	return ne, newFrame
}

// Unmap removes the PTE for (pid, vpn) on the calling processor and drops
// the mapping from the page descriptor.
func (v *VM) Unmap(p *sim.Proc, pid uint64, regionKey, vpn uint64) error {
	v.k.checkKey(regionKey, classRegion)
	if v.k.M.Tracing() {
		u0 := p.Now()
		defer func() {
			home := v.mmLocks[v.k.Topo.ClusterOf(p.ID())].Home()
			v.k.M.EmitSpan(sim.SpanUnmap, "unmap", p.ID(), u0, p.Now(), home, regionKey)
		}()
	}
	p.Think(costTrapEntry / 2)
	c := v.k.Topo.ClusterOf(p.ID())
	mm := v.mmLocks[c]
	found := false
	var pe sim.Addr
	busy := false
	v.k.Gate.Enter(p)
	mm.Acquire(p)
	re := v.regions.Table(c).SearchLocked(p, regionKey)
	if re != 0 {
		if p.Load(re+hybrid.EntStatus)&1 != 0 {
			busy = true // mid-fetch/update: payload not valid yet
		} else {
			found = true
			baseKey := p.Load(re + hybrid.EntData + rgBase)
			// A busy descriptor is left to its holder: the PTE clear suffices.
			if e, ok := v.pages.Table(c).TryReserveKeyLocked(p, baseKey+vpn, hybrid.Exclusive); ok {
				pe = e
			}
		}
	}
	mm.Release(p)
	v.k.Gate.Exit(p)
	if busy {
		// Wait out the reservation via the slow path, then settle for the
		// PTE clear (the descriptor update is owned by whoever holds it).
		rvals, ok := v.regions.Read(p, regionKey, 2)
		if ok {
			found = true
			if pe2, ok2 := v.pages.Acquire(p, rvals[rgBase]+vpn, hybrid.Exclusive); ok2 {
				pe = pe2
			}
		}
	}
	if !found {
		return fmt.Errorf("kernel: unmap of unmapped region %#x", regionKey)
	}
	if pe != 0 {
		v.work(p, costUnmapWork)
		v.pages.Release(p, pe, hybrid.Exclusive)
	}
	pt := v.pt(pid, p.ID())
	p.Store(pt+sim.Addr(vpn%ptWords), 0)
	p.Think(costTrapExit / 2)
	return nil
}

// MMLock exposes cluster c's memory-manager lock (instrumentation).
func (v *VM) MMLock(c int) locks.Lock { return v.mmLocks[c] }

// SetMMLock replaces cluster c's memory-manager lock (instrumentation:
// experiments wrap it to time holds). Call before any table use.
func (v *VM) SetMMLock(c int, l locks.Lock) {
	v.mmLocks[c] = l
	v.regions.Table(c).SetLock(l)
	v.fcbs.Table(c).SetLock(l)
	v.pages.Table(c).SetLock(l)
}
