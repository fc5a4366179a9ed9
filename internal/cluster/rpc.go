package cluster

import "hurricane/internal/sim"

// Gate is the Stodolsky-style logical interrupt mask of §3.2:
// inter-processor interrupts are a separately maskable class. A per-
// processor flag is set before acquiring any lock an interrupt handler
// might need; handlers that find the flag set enqueue their work on a
// per-processor queue instead of running, and the work is drained when the
// flag clears. The flag and queue are strictly processor-local, so on real
// hardware they cache perfectly; here the flag is a local memory word with
// local-access cost.
type Gate struct {
	flags []sim.Addr
	work  [][]func(*sim.Proc)
	// Deferred counts handler invocations that had to be queued.
	Deferred uint64
}

// NewGate builds the per-processor mask state for machine m.
func NewGate(m *sim.Machine) *Gate {
	g := &Gate{
		flags: make([]sim.Addr, m.NumProcs()),
		work:  make([][]func(*sim.Proc), m.NumProcs()),
	}
	for i := range g.flags {
		g.flags[i] = m.Alloc(i, 1)
	}
	return g
}

// Enter sets the calling processor's logical mask. It is the lock at the
// top of the lock hierarchy: take it before any lock an IPI handler could
// want.
func (g *Gate) Enter(p *sim.Proc) {
	p.Store(g.flags[p.ID()], 1)
}

// Exit drains any work handlers queued while the mask was set — still
// masked, so work that takes locks cannot itself be interrupted by a fresh
// handler wanting the same lock — and then clears the mask.
func (g *Gate) Exit(p *sim.Proc) {
	id := p.ID()
	for len(g.work[id]) > 0 {
		w := g.work[id][0]
		g.work[id] = g.work[id][1:]
		w(p)
	}
	p.Store(g.flags[p.ID()], 0)
}

// Masked reports whether the calling processor's logical mask is set
// (charged as a local load — the handler's first check).
func (g *Gate) Masked(p *sim.Proc) bool {
	v := p.Load(g.flags[p.ID()])
	p.Branch(1)
	return v != 0
}

// Dispatch runs work now if the processor is unmasked, otherwise queues it
// for Exit. Call from an IPI handler.
func (g *Gate) Dispatch(p *sim.Proc, work func(*sim.Proc)) {
	if g.Masked(p) {
		g.Deferred++
		g.work[p.ID()] = append(g.work[p.ID()], work)
		return
	}
	work(p)
}

// RPC carries cross-cluster requests over inter-processor interrupts,
// routed i-th processor to i-th processor (§2.2). The null-RPC cost is
// calibrated to the paper's 27us.
type RPC struct {
	topo *Topology
	gate *Gate

	// Calls counts RPCs issued; Retries counts StatusRetry results.
	Calls, Retries uint64
}

// NewRPC builds the RPC transport for a topology, dispatching handlers
// through gate.
func NewRPC(t *Topology, gate *Gate) *RPC {
	return &RPC{topo: t, gate: gate}
}

// The trap/marshal code on each side of an RPC, in cycles.
const (
	callerOverhead  sim.Duration = 140
	handlerOverhead sim.Duration = 220
)

// Call runs fn on the peer processor of targetCluster and blocks until it
// replies, returning fn's status. fn executes in interrupt context on the
// target (or deferred to the target's Gate.Exit if the target is masked);
// it must not wait on reserve bits — that is the deadlock the §2.3 protocol
// exists to avoid — but it may take coarse locks, which are only ever held
// briefly.
func (r *RPC) Call(p *sim.Proc, targetCluster int, fn func(h *sim.Proc) Status) Status {
	r.Calls++
	m := r.topo.M
	target := r.topo.Peer(p.ID(), targetCluster)
	traced := m.Tracing()
	if target == p.ID() {
		// Local-cluster call degenerates to a direct invocation.
		if !traced {
			return fn(p)
		}
		c0 := p.Now()
		st := fn(p)
		m.EmitSpan(sim.SpanRPC, "rpc call", p.ID(), c0, p.Now(), p.ID(), uint64(targetCluster))
		return st
	}
	c0 := p.Now()
	caller := p.ID()
	reply := m.Alloc(p.ID(), 1) // completion word in caller-local memory
	p.Think(callerOverhead)
	m.SendIPI(target, func(h *sim.Proc) {
		run := func(h *sim.Proc) {
			h0 := h.Now()
			h.Think(handlerOverhead)
			st := fn(h)
			h.Store(reply, uint64(st)<<1|1)
			if traced {
				// Handler-side span: the interrupt-context service time,
				// pointed back at the caller whose reply word it stores.
				m.EmitSpan(sim.SpanIPI, "rpc serve", h.ID(), h0, h.Now(), caller, uint64(targetCluster))
			}
		}
		r.gate.Dispatch(h, run)
	})
	v := p.WaitLocal(reply, func(v uint64) bool { return v != 0 })
	st := Status(v >> 1)
	if st == StatusRetry {
		r.Retries++
	}
	if traced {
		m.EmitSpan(sim.SpanRPC, "rpc call", caller, c0, p.Now(), target, uint64(targetCluster))
	}
	return st
}

// Broadcast calls fn on every cluster in turn. Stopping early is not
// possible: updates that must reach all replicas (§2.5 pessimistic global
// updates) retry per cluster, under a 500 µs doubling threshold, until
// each succeeds.
func (r *RPC) Broadcast(p *sim.Proc, fn func(h *sim.Proc, c int) Status) {
	for c := 0; c < r.topo.N; c++ {
		Retry(p, sim.Micros(500), nil, func() Status {
			return r.Call(p, c, func(h *sim.Proc) Status { return fn(h, c) })
		})
	}
}
