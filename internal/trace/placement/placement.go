// Package placement turns an aggregated trace into placement advice — and,
// with the Daemon, into in-run action. Given who accessed what (accessor
// module × home module, weighted by distance class), the analyzer proposes
// the home module for each piece of kernel data — and each lock — that
// minimizes ring crossings, the paper's dominant cost.
//
// The advice is consumed two ways. Offline, proposals are advisory:
// exp.Placement replays a workload with them applied (kernel SlotModule
// overrides) and measures the actual reduction. Online, the Daemon watches
// the live trace.Aggregate during the run and executes the same analyzer's
// proposals mid-run through the kernel's slot-migration path, paying the
// copy cost the replay avoids but needing no second run — exp.PlacementOnline
// measures when that trade wins.
//
// The Daemon shares its controller pattern with internal/tune's lock
// tuner: a fixed sampling cadence that charges no simulated time (the
// autonomics plane's, which Attach wires), EWMA smoothing of the windowed
// signal, and
// act-only-past-a-threshold hysteresis. Where the tuner's saturation band
// guards a free actuation (publishing a backoff constant), the daemon's
// indifference band, confirmation streak, payback horizon, and per-slot
// budgets guard an expensive one (a data copy through the simulated
// memory system). See the tune package comment for the shared shape.
package placement

import (
	"fmt"
	"sort"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
)

// keepEpsilon is the indifference band: a move must beat the current home
// by more than this fraction of cost to be proposed, and candidates within
// the band of the optimum are interchangeable (the least-loaded one wins,
// so proposals do not pile every hot object onto one module).
const keepEpsilon = 0.02

// Proposal is the analyzer's verdict for one object.
type Proposal struct {
	// Object names what would move ("module 8 data", `lock "H2-MCS"`).
	Object string
	// Home and Proposed are the current and recommended home modules;
	// equal when the analyzer recommends keeping the placement.
	Home, Proposed int
	// Weight is the object's access (or span) count — what the costs are
	// weighted by.
	Weight uint64
	// CurCost and NewCost are the weighted access costs (cycles) at the
	// current and proposed home.
	CurCost, NewCost float64
	// CurByDist and NewByDist split Weight by distance class at the
	// current and proposed home.
	CurByDist, NewByDist [sim.NumDistClasses]uint64
}

// Moved reports whether the proposal is an actual move.
func (p Proposal) Moved() bool { return p.Proposed != p.Home }

// Report is the full analysis.
type Report struct {
	Topo  autonomic.Topo
	Costs autonomic.Costs
	// Data holds one proposal per home module with traffic, hottest first.
	Data []Proposal
	// Locks holds one proposal per traced lock (from wait spans).
	Locks []Proposal
}

// Analyze derives placement proposals from an aggregated trace, which
// must count the accesses of topo's modules.
func Analyze(agg *trace.Aggregate, topo autonomic.Topo, costs autonomic.Costs) *Report {
	n := modules(agg, topo)
	r := &Report{Topo: topo, Costs: costs}
	w := autonomic.NewWeights(topo, costs)
	vector, cost := make([]float64, n), make([]float64, n)

	// load tracks projected incoming accesses per module as moves are
	// assigned, so near-tied candidates spread instead of piling up.
	load := make([]float64, n)
	for d := 0; d < n; d++ {
		load[d] = float64(agg.AccessTotal(d))
	}
	// analyze ranks one object's access counts by source module and
	// accounts the verdict by distance class at both homes.
	analyze := func(object string, home int, counts []uint64) Proposal {
		for src, c := range counts {
			vector[src] = float64(c)
		}
		to, cur, next := propose(home, vector, w, load, cost, keepEpsilon)
		p := Proposal{Object: object, Home: home, Proposed: to, CurCost: cur, NewCost: next}
		for src, c := range counts {
			p.Weight += c
			p.CurByDist[topo.Dist(src, home)] += c
			p.NewByDist[topo.Dist(src, to)] += c
		}
		return p
	}

	type item struct {
		home  int
		total uint64
	}
	var items []item
	for d := 0; d < n; d++ {
		if t := agg.AccessTotal(d); t > 0 {
			items = append(items, item{home: d, total: t})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].total != items[j].total {
			return items[i].total > items[j].total
		}
		return items[i].home < items[j].home
	})
	for _, it := range items {
		p := analyze(fmt.Sprintf("module %d data", it.home), it.home, agg.Access[it.home])
		if p.Moved() {
			load[p.Proposed] += float64(it.total)
			load[p.Home] -= float64(it.total)
		}
		r.Data = append(r.Data, p)
	}

	// Locks, from wait spans (one per acquisition; the lock word's own
	// accesses are already in the data matrix — this names the object).
	for _, o := range agg.SortedObjects() {
		if o.Span != sim.SpanLockWait || o.Home < 0 || o.Home >= n {
			continue
		}
		name := strings.TrimPrefix(o.Name, "wait ")
		r.Locks = append(r.Locks, analyze(fmt.Sprintf("lock %q", name), o.Home, o.BySrc))
	}
	return r
}

// modules is the module count of topo, which agg must count accesses
// over exactly: the analyzer and the daemon rank homes among these
// modules, from vectors indexed by them.
func modules(agg *trace.Aggregate, topo autonomic.Topo) int {
	n := topo.Modules()
	if agg.Modules() != n {
		panic(fmt.Sprintf("placement: aggregate over %d modules, topology has %d", agg.Modules(), n))
	}
	return n
}

// propose ranks the homes for one access vector, indexed by source module
// over the modules w weighs: it picks the cost-minimizing home with an
// eps-wide indifference band and least-projected-load tie-breaking, and
// returns the choice and the vector's cost at home and at the choice, in
// weighted access cycles. The offline analyzer uses keepEpsilon; the online
// Daemon passes its (wider) Improve band, since an in-run move charges real
// copy traffic. load holds each module's projected load, and cost is
// scratch space for one cost per module; each candidate is priced once,
// summing its sources in module order.
func propose(home int, vector []float64, w autonomic.Weights, load, cost []float64, eps float64) (to int, cur, next float64) {
	clear(cost)
	for src, cnt := range vector {
		if cnt == 0 {
			continue
		}
		for cand, wt := range w.Row(src) {
			cost[cand] += cnt * wt
		}
	}

	cur = cost[home]
	best, bestCost := home, cur
	for cand, c := range cost {
		if c < bestCost {
			best, bestCost = cand, c
		}
	}
	// Keep the current home when it is within the indifference band of the
	// optimum; otherwise pick the least-loaded candidate within the band.
	to = home
	if cur > bestCost*(1+eps) {
		to = best
		for cand, c := range cost {
			if cand == to {
				continue
			}
			if c <= bestCost*(1+eps) && load[cand] < load[to] {
				to = cand
			}
		}
	}
	return to, cur, cost[to]
}

// Moves returns the proposed data moves as a current-home → new-home map.
func (r *Report) Moves() map[int]int {
	mv := map[int]int{}
	for _, p := range r.Data {
		if p.Moved() {
			mv[p.Home] = p.Proposed
		}
	}
	return mv
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	topo := fmt.Sprintf("%d stations x %d", r.Topo.Stations, r.Topo.ProcsPerStation)
	costs := fmt.Sprintf("%g/%g/%g", r.Costs.Local, r.Costs.Station, r.Costs.Ring)
	if r.Topo.StationsPerRing > 0 { // a ring hierarchy prices its global ring too
		topo += fmt.Sprintf(", %d per local ring", r.Topo.StationsPerRing)
		costs += fmt.Sprintf("/%g", r.Costs.Ring2)
	}
	fmt.Fprintf(&b, "placement analysis: %d modules (%s), costs %s cycles\n", r.Topo.Modules(), topo, costs)
	section := func(title string, props []Proposal) {
		if len(props) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, p := range props {
			verdict := "keep"
			if p.Moved() {
				saved := 0.0
				if p.CurCost > 0 {
					saved = 100 * (p.CurCost - p.NewCost) / p.CurCost
				}
				verdict = fmt.Sprintf("-> module %d (cost -%.0f%%, ring %d -> %d)",
					p.Proposed, saved, ringAccesses(p.CurByDist), ringAccesses(p.NewByDist))
			}
			fmt.Fprintf(&b, "  %-16s home %-3d %8d weight  %5.0f%% ring  %s\n",
				p.Object, p.Home, p.Weight, ringPct(p.CurByDist), verdict)
		}
	}
	section("data placement", r.Data)
	section("lock placement", r.Locks)
	return b.String()
}

// ringAccesses counts the accesses that cross a ring: a local ring's or,
// on a ring hierarchy, the global ring's.
func ringAccesses(d [sim.NumDistClasses]uint64) uint64 {
	return d[sim.DistRing] + d[sim.DistGlobal]
}

func ringPct(d [sim.NumDistClasses]uint64) float64 {
	var tot uint64
	for _, n := range d {
		tot += n
	}
	if tot == 0 {
		return 0
	}
	return 100 * float64(ringAccesses(d)) / float64(tot)
}
