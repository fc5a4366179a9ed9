package locks

import "hurricane/internal/sim"

// CLH is a Craig/Landin-Hagersten-style queue lock, included as the §5
// "cache-based queueing lock" comparison point. Each waiter spins on its
// predecessor's node rather than its own. On a cache-coherent machine that
// spin is a cache hit until the hand-off; on HECTOR-like hardware with no
// coherence it is repeated remote polling, which is exactly why the paper's
// kernel uses MCS-style local-spin locks instead. Running CLH on the
// simulator demonstrates that trade-off.
//
// CLH needs only fetch-and-store, but nodes migrate between processors (a
// releaser's node is recycled by its successor), so the "spin locally"
// property is topology-dependent rather than guaranteed.
type CLH struct {
	lock sim.Addr // tail: address of the last waiter's node
	// cur[i] is the node processor i will enqueue next; pred[i] is the
	// node it is currently spinning on / recycling.
	cur  []sim.Addr
	pred []sim.Addr
}

// clhPoll is the delay between remote polls of the predecessor's flag.
const clhPoll sim.Duration = 10

// Node layout: a single word, 1 = holder still busy, 0 = released.

// NewCLH builds a CLH lock homed on module home. A dummy released node
// seeds the queue.
func NewCLH(m *sim.Machine, home int) *CLH {
	l := &CLH{
		lock: m.Alloc(home, 1),
		cur:  make([]sim.Addr, m.NumProcs()),
		pred: make([]sim.Addr, m.NumProcs()),
	}
	dummy := m.Alloc(home, 1) // value 0: released
	m.Mem.Poke(l.lock, uint64(dummy))
	for i := range l.cur {
		l.cur[i] = m.Alloc(i, 1)
	}
	return l
}

// Name implements Lock.
func (l *CLH) Name() string { return "CLH" }

// Home implements Lock.
func (l *CLH) Home() int { return l.lock.Module() }

// Acquire implements Lock.
func (l *CLH) Acquire(p *sim.Proc) {
	id := p.ID()
	mine := l.cur[id]
	p.Store(mine, 1) // busy
	p.Reg(1)
	pred := sim.Addr(p.Swap(l.lock, uint64(mine)))
	p.Branch(1)
	l.pred[id] = pred
	// Spin on the predecessor's node: remote polling on a non-coherent
	// machine, each poll a charged memory access.
	for p.Load(pred) != 0 {
		p.Branch(1)
		p.Think(clhPoll)
	}
	p.Branch(1)
}

// Release implements Lock. The predecessor's node is recycled as our next
// enqueue node (it may live on a remote module — the CLH migration cost).
func (l *CLH) Release(p *sim.Proc) {
	id := p.ID()
	p.Store(l.cur[id], 0) // grant
	l.cur[id] = l.pred[id]
	p.Branch(1)
}
