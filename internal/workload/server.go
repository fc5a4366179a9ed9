package workload

import (
	"fmt"

	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/tune"
)

// pagesPerTenant sizes each tenant's working set.
const pagesPerTenant = 4

// ServerConfig parameterizes the open-loop multi-tenant server scenario:
// requests arrive on an ArrivalSpec schedule (Poisson, MMPP bursts, ramp,
// flash crowd), each request is served by a pool of worker processors that
// soft-fault a Zipf-chosen tenant's pages through the kernel VM — so hot
// tenants concentrate faults on a few clusters' coarse locks — and every
// ChurnEvery-th request additionally forks, messages and destroys a child
// process, driving the §2.3 deadlock-management protocols.
//
// Unlike the closed-loop stress tests, the workload does not slow down
// when the kernel does: arrivals keep coming, queueing delay compounds
// into the sojourn time, and the latency distribution's tail — not its
// mean — is where lock designs separate.
type ServerConfig struct {
	// Machine is the hardware configuration, including the seed.
	Machine sim.Config
	// ClusterSize is the kernel's processors-per-cluster.
	ClusterSize int
	// LockKind selects the kernel's coarse-lock algorithm (KindTuned puts
	// a feedback controller on every kernel lock).
	LockKind locks.Kind
	// Migratable allocates kernel data in migratable regions (for an
	// attached placement daemon).
	Migratable bool
	// Tracer, when non-nil, observes the whole run.
	Tracer sim.Tracer

	// Tenants is the number of tenants; ZipfS the access skew exponent.
	Tenants int
	ZipfS   float64
	// Arrivals is the open-loop schedule (MeanGap, Horizon, bursts, ramp,
	// flash crowd).
	Arrivals ArrivalSpec
	// Warmup excludes requests arriving before it from every statistic:
	// table setup, AS/HAT creation and controller settling all happen on
	// early (unmeasured) requests.
	Warmup sim.Duration
	// QueueLimit bounds the admission queue; arrivals past it are dropped
	// (counted, not served) — the admission control that keeps an
	// overloaded open-loop run's drain finite. Default 4x the machine's
	// processors, every one of which serves requests.
	QueueLimit int
	// Deadline, when nonzero, is the latency SLO: a request still queued
	// when a worker picks it up more than Deadline after its arrival is
	// abandoned (counted per tenant, not served). Zero disables the policy
	// entirely — the run is byte-identical to one without the field.
	Deadline sim.Duration
	// ChurnEvery makes every Nth admitted request fork/message/destroy a
	// child process homed on the tenant's cluster (0 disables).
	ChurnEvery int
	// TenantDataWords, when nonzero, gives every tenant a per-tenant data
	// region of that many words, homed on the tenant's cluster and
	// registered as a migratable kernel slot (kernel.RegisterSlot) — the
	// handle the autonomics plane acts on. Each request then touches
	// TenantTouch words of its tenant's region, reading or writing per
	// TenantWriteFrac; its arrival wakes the idle worker nearest a copy of
	// that region, and while the region is replicated a worker whose own
	// module holds a copy may take the request ahead of its queue's head
	// (see ServerRun). Zero keeps the historical workload (and its RNG
	// stream) byte for byte.
	TenantDataWords int
	// TenantTouch is how many tenant-data words each request touches
	// (default 32, only with TenantDataWords set).
	TenantTouch int
	// TenantWriteFrac gives each tenant rank's probability that a request
	// writes its touched words instead of reading them (nil = all reads).
	// Read-mostly tenants are replication's case; write-hot ones are
	// migration's.
	TenantWriteFrac func(rank int) float64
	// TenantAffinity, when non-nil, pins each tenant rank's requests to
	// one cluster's workers (-1 = any worker) — the sharded-worker
	// discipline real servers run. An affinized tenant whose data is homed
	// off its cluster is exactly the misplacement an online placement
	// daemon exists to fix. Nil keeps the single shared dispatch queue
	// (and the historical event stream) byte for byte.
	TenantAffinity func(rank int) int
	// TuneParams parameterizes feedback-tuned kernel locks when LockKind
	// is KindTuned (see core.Config).
	TuneParams *tune.Params
	// Attach, when non-nil, runs after the system exists (tenant data
	// regions included) but before any processor starts — the hook that
	// installs a placement daemon or autonomics plane.
	Attach func(sys *core.System)
}

// TenantStats is one tenant's measured-window summary; ServerResult lists
// them by Zipf rank, which is also the tenant's ID.
type TenantStats struct {
	// Weight is the tenant's Zipf probability mass.
	Weight float64
	// Admitted and Dropped count the tenant's measured-window arrivals.
	Admitted, Dropped uint64
	// Abandoned counts admitted measured-window requests whose queueing
	// delay exceeded the Deadline SLO at dequeue (only with Deadline set).
	Abandoned uint64
	// Lat is the tenant's measured sojourn distribution (microseconds).
	Lat *stats.Dist
}

// ServerResult is one server run's report. All request counts cover the
// measured window (arrivals at or after Warmup) only.
type ServerResult struct {
	// Offered = Admitted + Dropped; Completed counts admitted requests
	// that finished. Without a Deadline every admitted request completes
	// (the drain runs to empty, so Completed == Admitted, kept separate as
	// a sanity check); with one, Admitted == Completed + Abandoned.
	Offered, Admitted, Dropped, Completed uint64
	// Abandoned counts admitted measured-window requests dropped at
	// dequeue for exceeding the Deadline SLO (zero when Deadline is 0).
	Abandoned uint64
	// Lat is the overall sojourn distribution in microseconds
	// (arrival to completion, queueing included).
	Lat *stats.Dist
	// Tenants is the per-tenant breakdown, indexed by rank.
	Tenants []TenantStats
	// GoodputRPS is completed requests per simulated second of measured
	// time (Warmup to the end of the drain).
	GoodputRPS float64
	// Elapsed is the final simulated time (arrival horizon + drain).
	Elapsed sim.Time
	// Dispatch counts measured-window wake-ups by the woken worker's
	// distance class (indexed by sim.DistClass) from its own module to the
	// nearest copy of the arriving request's tenant data. Only tenants with
	// a data region (TenantDataWords) count, so it is all zeros without one.
	Dispatch [sim.NumDistClasses]uint64
	// TakenAhead counts measured-window requests a worker took ahead of
	// their queue's head because its own module holds a copy of their
	// replicated tenant data (see dequeue). It is zero in a run with no
	// replicas.
	TakenAhead uint64
	// KStats snapshots the kernel counters after the run.
	KStats kernel.Stats
	// Sys is the system the run executed on (controllers, daemon, traces).
	Sys *core.System
}

// Fingerprint renders everything the run publishes as one string, so two
// runs can be compared byte for byte (the determinism property).
func (r *ServerResult) Fingerprint() string {
	s := fmt.Sprintf("offered=%d admitted=%d dropped=%d abandoned=%d completed=%d elapsed=%d goodput=%.6f\n",
		r.Offered, r.Admitted, r.Dropped, r.Abandoned, r.Completed, r.Elapsed, r.GoodputRPS)
	s += fmt.Sprintf("lat %s\n", r.Lat.Tail())
	s += fmt.Sprintf("dispatch %v ahead=%d\n", r.Dispatch, r.TakenAhead)
	s += fmt.Sprintf("kstats %+v\n", r.KStats)
	for rank, t := range r.Tenants {
		s += fmt.Sprintf("tenant %d w=%.4f adm=%d drop=%d aband=%d %s\n",
			rank, t.Weight, t.Admitted, t.Dropped, t.Abandoned, t.Lat.Tail())
	}
	return s
}

// serverRequest is one precomputed request: the schedule is materialized
// before the machine starts, so the event stream is a pure function of the
// seed and the same offered load replays against any lock or machine.
type serverRequest struct {
	at    sim.Time
	rank  int
	vpn   uint64
	churn bool
	write bool // touch tenant data with stores (only with TenantDataWords)
}

// nearestIdle is the dispatcher's wake rule. idle lists the parked
// workers' processor numbers, oldest-parked first; a worker is eligible when
// c < 0 or clusterOf maps it to cluster c. Among the eligible it picks the
// worker whose own module is nearest (by dist) any module in copies, the
// tenant data's primary and replicas, ties going to the newest-parked. With
// no copies every worker ties, so the pick is the newest-parked eligible
// worker. It returns the pick's index into idle and its distance class
// (DistLocal without copies), or -1 when no worker is eligible.
func nearestIdle(idle []int, c int, clusterOf func(proc int) int, copies []int, dist func(src, dst int) sim.DistClass) (int, sim.DistClass) {
	best, bestD := -1, sim.DistClass(sim.NumDistClasses)
	for j := len(idle) - 1; j >= 0; j-- {
		w := idle[j]
		if c >= 0 && clusterOf(w) != c {
			continue
		}
		d := sim.DistLocal
		for i, mod := range copies {
			if dm := dist(w, mod); i == 0 || dm < d {
				d = dm
			}
		}
		if d < bestD {
			best, bestD = j, d
			if d == sim.DistLocal {
				break
			}
		}
	}
	return best, bestD
}

// dequeue is the dispatcher's queue rule for worker w. q is a queue's
// unserved part, oldest first, and passed counts how many times in a row
// its head has been passed over. A request qualifies when its tenant data
// is replicated and has a copy on w's own module: near(req) is that data's
// nearest-copy table (sim.Memory.NearestCopies, nil for single-copy data or
// none), which maps w to itself exactly when w's module holds a copy. The
// pick is the oldest qualifying request, or the head when none qualifies or
// the head has already been passed over limit times. dequeue moves the
// pick to q[0] and each request it skipped back one slot, in order, and
// reports whether the pick was taken ahead of the head.
func dequeue(q []int, w, passed, limit int, near func(req int) []int) (ahead bool) {
	if passed >= limit {
		return false
	}
	for j, req := range q {
		if t := near(req); t != nil && t[w] == w {
			copy(q[1:j+1], q[:j])
			q[0] = req
			return j > 0
		}
	}
	return false
}

// ServerRun executes the scenario and reports the tail-latency summary.
//
// Dispatch is a zero-cost scheduler model: an arrival wakes one parked
// worker able to serve its queue, the one whose module is nearest a copy of
// the request's tenant data (the placement the kernel's ReplicateSlot and
// MigrateSlot made), ties going to the newest-parked. This is the paper's
// clustering at request granularity: replication brings read-mostly data
// to some processors, and the dispatcher sends the request to one of them.
// A tenant without a data region ties everywhere, which is the historical
// newest-parked pop.
//
// A worker looking for work takes, from its cluster queue and then the
// shared one, the oldest request whose replicated tenant data has a copy
// on its own module, and the head when none has (dequeue): a freed
// worker reads a local copy instead of crossing the bus for the head's.
// The skipped requests keep their order, and a head passed over once per
// processor in a row is taken next, so no request waits forever. Data with
// one copy never jumps the queue: only slots the replicator owns reorder
// it, and a run without replicas takes the head every time.
func ServerRun(cfg ServerConfig) *ServerResult {
	if cfg.Tenants == 0 {
		cfg.Tenants = 16
	}
	if cfg.TenantDataWords > 0 && cfg.TenantTouch == 0 {
		cfg.TenantTouch = 32
	}
	sys := core.NewSystem(core.Config{
		Machine:     cfg.Machine,
		ClusterSize: cfg.ClusterSize,
		LockKind:    cfg.LockKind,
		Migratable:  cfg.Migratable,
		TuneParams:  cfg.TuneParams,
		Tracer:      cfg.Tracer,
	})
	k := sys.K
	m := sys.M
	workers := m.NumProcs()
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 4 * workers
	}

	// Per-tenant data regions: migratable slots the autonomics plane can
	// act on, homed like the tenant's kernel objects so the initial layout
	// matches the static placement. Created before Attach runs, so an
	// attached daemon's slot list includes them.
	var (
		tenantBase []sim.Addr
		tenantData []int // region id per rank
	)
	if cfg.TenantDataWords > 0 {
		tenantBase = make([]sim.Addr, cfg.Tenants)
		tenantData = make([]int, cfg.Tenants)
		for rank := 0; rank < cfg.Tenants; rank++ {
			c := rank % k.Topo.N
			region := m.Mem.NewRegion(k.Topo.SlotModule(c, rank%4))
			tenantBase[rank] = m.Mem.Alloc(region, cfg.TenantDataWords)
			tenantData[rank] = region
			k.RegisterSlot(c, fmt.Sprintf("tenant%d", rank), region)
		}
	}
	if cfg.Attach != nil {
		cfg.Attach(sys)
	}

	// Materialize the offered load: arrival times from the spec, tenant
	// rank and page from an independent per-request stream.
	sched := cfg.Arrivals.Generate(cfg.Machine.Seed ^ 0xa5a5a5a5)
	zipf := NewZipf(cfg.Tenants, cfg.ZipfS)
	rr := sim.NewRNG(cfg.Machine.Seed ^ 0x5ee0c0de)
	reqs := make([]serverRequest, len(sched.Times))
	for i, at := range sched.Times {
		reqs[i] = serverRequest{
			at:    at,
			rank:  zipf.Sample(rr),
			vpn:   uint64(rr.Intn(pagesPerTenant)),
			churn: cfg.ChurnEvery > 0 && i%cfg.ChurnEvery == cfg.ChurnEvery-1,
		}
		if cfg.TenantDataWords > 0 {
			// The write draw happens only when tenant data exists, so the
			// historical configurations' RNG stream is untouched.
			wf := 0.0
			if cfg.TenantWriteFrac != nil {
				wf = cfg.TenantWriteFrac(reqs[i].rank)
			}
			reqs[i].write = rr.Float64() < wf
		}
	}

	res := &ServerResult{Lat: &stats.Dist{}, Sys: sys}
	res.Tenants = make([]TenantStats, cfg.Tenants)
	for rank := range res.Tenants {
		res.Tenants[rank] = TenantStats{Weight: zipf.Weight(rank), Lat: &stats.Dist{}}
	}

	// Tenant rank -> kernel objects, homed on the tenant's cluster so hot
	// tenants concentrate faults (and their lock traffic) on a few
	// clusters' memory-manager locks.
	tenantCluster := func(rank int) int { return rank % k.Topo.N }
	tenantRegion := func(rank int) uint64 {
		return kernel.MakeKey(tenantCluster(rank), 1, uint64(rank+1)<<20)
	}
	workerPID := func(id int) uint64 {
		return kernel.PIDKey(k.Topo.ClusterOf(id), uint64(1000+id))
	}

	// Dispatch queues: a zero-cost kernel scheduler model. Arrivals enqueue
	// (or drop past QueueLimit); idle workers park and are woken one per
	// arrival, nearest the tenant's data first (nearestIdle), and a worker
	// takes a request whose replicated data it holds first (dequeue).
	// Affinized tenants (TenantAffinity) queue per cluster and only that
	// cluster's workers serve them; everyone else shares one queue any
	// worker drains. With no affinity the cluster queues stay empty and the
	// dispatch is the historical single queue exactly.
	affOf := func(rank int) int {
		if cfg.TenantAffinity == nil {
			return -1
		}
		return cfg.TenantAffinity(rank)
	}
	var (
		queue      []int // indices into reqs, unaffinized
		qhead      int
		qPassed    int // times in a row queue[qhead] has been passed over
		clusterQ   = make([][]int, k.Topo.N)
		cHead      = make([]int, k.Topo.N)
		cPassed    = make([]int, k.Topo.N)
		idle       []int // parked workers' processor numbers, oldest first
		copies     []int // wake's buffer: the arriving tenant's copy modules
		done       bool
		setupReady bool
	)
	measured := func(i int) bool { return reqs[i].at >= sim.Time(cfg.Warmup) }
	queued := func() int {
		n := len(queue) - qhead
		for c := range clusterQ {
			n += len(clusterQ[c]) - cHead[c]
		}
		return n
	}
	// wake releases one parked worker able to serve cluster c's queue
	// (c < 0: any worker) on request i's arrival: the one nearest a copy of
	// the request's tenant data, ties (and every tenant without data) going
	// to the newest-parked, the historical LIFO pop. It reads the data's
	// current placement at no simulated cost, and counts a measured wake
	// by the woken worker's distance class.
	clusterOf, dist := k.Topo.ClusterOf, m.Mem.Distance
	wake := func(c, i int) {
		copies = copies[:0]
		if tenantData != nil {
			region := tenantData[reqs[i].rank]
			copies = append(append(copies, m.Mem.Home(region)), m.Mem.Replicas(region)...)
		}
		j, d := nearestIdle(idle, c, clusterOf, copies, dist)
		if j < 0 {
			return
		}
		if tenantData != nil && measured(i) {
			res.Dispatch[d]++
		}
		w := idle[j]
		idle = append(idle[:j], idle[j+1:]...)
		m.Procs[w].Unpark()
	}
	// near reads request i's tenant data's nearest-copy table, at no
	// simulated cost (nil without data or replicas).
	near := func(i int) []int {
		if tenantData == nil {
			return nil
		}
		return m.Mem.NearestCopies(tenantData[reqs[i].rank])
	}
	// take serves worker w from the unserved part of q, q[*head:], by the
	// dequeue rule and returns the request it took; passed is the queue's
	// count of head bypasses, and a measured request taken ahead of the
	// head counts in TakenAhead.
	take := func(q []int, head, passed *int, w int) int {
		u := q[*head:]
		*head++
		if dequeue(u, w, *passed, workers, near) {
			*passed++
			if measured(u[0]) {
				res.TakenAhead++
			}
		} else {
			*passed = 0
		}
		return u[0]
	}
	arrive := func(i int) {
		rank := reqs[i].rank
		if queued() >= cfg.QueueLimit {
			if measured(i) {
				res.Offered++
				res.Dropped++
				res.Tenants[rank].Dropped++
			}
			return
		}
		if measured(i) {
			res.Offered++
			res.Admitted++
			res.Tenants[rank].Admitted++
		}
		if c := affOf(rank); c >= 0 {
			clusterQ[c] = append(clusterQ[c], i)
			wake(c, i)
		} else {
			queue = append(queue, i)
			wake(-1, i)
		}
	}
	// Chain the arrival events so the pending-event heap stays small; the
	// last arrival closes the shop and wakes everyone for the drain.
	var schedule func(i int)
	schedule = func(i int) {
		m.Eng.At(reqs[i].at, func() {
			arrive(i)
			if i+1 < len(reqs) {
				schedule(i + 1)
			} else {
				done = true
				for _, w := range idle {
					m.Procs[w].Unpark()
				}
				idle = idle[:0]
			}
		})
	}
	if len(reqs) > 0 {
		schedule(0)
	} else {
		done = true
	}

	handle := func(p *sim.Proc, i int) {
		req := reqs[i]
		if cfg.Deadline > 0 && p.Now()-req.at > sim.Time(cfg.Deadline) {
			// SLO abandonment: the request waited past its deadline in the
			// queue; the client has given up, so serving it would spend
			// kernel work on a dead response. Count it and move on.
			if measured(i) {
				res.Abandoned++
				res.Tenants[req.rank].Abandoned++
			}
			return
		}
		k.BeginRequest(p)
		pid := workerPID(p.ID())
		region := tenantRegion(req.rank)
		if _, err := k.VM.Fault(p, pid, region, req.vpn, true); err != nil {
			panic(err)
		}
		if cfg.TenantDataWords > 0 {
			// Serve the request against the tenant's data region: a stride
			// through TenantTouch words starting at a page-dependent offset.
			// Reads follow the region's nearest copy when it is replicated;
			// writes charge an update per replica — the traffic the
			// replication policy prices.
			base, start := tenantBase[req.rank], int(req.vpn)*cfg.TenantTouch
			p.Sweep(cfg.TenantTouch, func(j int) sim.Addr {
				return base + sim.Addr((start+j)%cfg.TenantDataWords)
			}, req.write, uint64(i), 0)
		}
		k.VM.Unmap(p, pid, region, req.vpn)
		if req.churn {
			// Fork/exec churn: a short-lived child homed on the tenant's
			// cluster, linked under the worker's process — create, message,
			// destroy exercise the cross-cluster deadlock protocol on
			// descriptor sets with no natural lock order.
			child := kernel.PIDKey(tenantCluster(req.rank), uint64(1<<24+i))
			if err := k.PM.Create(p, child, pid); err != nil {
				panic(err)
			}
			if err := k.PM.Send(p, pid, child); err != nil {
				panic(err)
			}
			if err := k.PM.Destroy(p, child); err != nil {
				panic(err)
			}
		}
		k.EndRequest(p, uint64(req.rank), req.at)
		if measured(i) {
			lat := (p.Now() - req.at).Microseconds()
			res.Lat.Add(lat)
			res.Tenants[req.rank].Lat.Add(lat)
			res.Completed++
		}
	}

	bar := NewBarrier(workers)
	for w := 0; w < workers; w++ {
		w := w
		sys.Spawn(w, func(p *sim.Proc) {
			if w == 0 {
				// Tenant tables: regions, FCBs and coherent pages, homed by
				// rank. Runs once, before any worker serves.
				for rank := 0; rank < cfg.Tenants; rank++ {
					c := tenantCluster(rank)
					region := tenantRegion(rank)
					file := kernel.MakeKey(c, 2, uint64(rank+1)<<20)
					base := kernel.MakeKey(c, 3, uint64(rank+1)<<20)
					k.VM.SetupRegion(p, region, file, base)
					for v := 0; v < pagesPerTenant; v++ {
						k.VM.SetupFCB(p, file+uint64(v))
						k.VM.SetupPage(p, base+uint64(v), uint64(workers),
							kernel.FlagCoherent, uint64(rank+1)<<20|uint64(v))
					}
				}
				setupReady = true
			}
			// Every worker registers its own process descriptor (the churn
			// children's parent), then opens for business together.
			if err := k.PM.Create(p, workerPID(p.ID()), 0); err != nil {
				panic(err)
			}
			bar.Wait(p)
			if !setupReady {
				panic("server: worker released before tenant setup")
			}
			myc := k.Topo.ClusterOf(p.ID())
			for {
				// The worker's own cluster queue first — affinized requests
				// have fewer eligible servers, so they get priority — then
				// the shared queue.
				if cHead[myc] < len(clusterQ[myc]) {
					handle(p, take(clusterQ[myc], &cHead[myc], &cPassed[myc], p.ID()))
					continue
				}
				if qhead < len(queue) {
					handle(p, take(queue, &qhead, &qPassed, p.ID()))
					continue
				}
				if done {
					return
				}
				idle = append(idle, p.ID())
				for {
					p.Park()
					// Spurious wake (an RPC IPI): still idle if listed.
					stillIdle := false
					for _, q := range idle {
						if q == p.ID() {
							stillIdle = true
						}
					}
					if !stillIdle {
						break
					}
				}
			}
		})
	}
	sys.ServeOthers()
	res.Elapsed = sys.Run(0)
	k.CheckQuiescent()
	res.KStats = k.Stats

	if span := res.Elapsed - sim.Time(cfg.Warmup); span > 0 && res.Completed > 0 {
		res.GoodputRPS = float64(res.Completed) / (span.Microseconds() / 1e6)
	}
	return res
}
