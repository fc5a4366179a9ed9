package trace

import (
	"fmt"
	"sort"
	"strings"

	"hurricane/internal/sim"
)

// Aggregate is the in-memory analysis sink: it folds the event stream into
// per-module access matrices (accessor module × home module, with distance
// class totals) and per-object span statistics (per lock, per span kind).
// It is what the placement analyzer consumes — no event is retained, so it
// scales to arbitrarily long runs.
type Aggregate struct {
	modules int
	// Access[dst][src] counts memory accesses to module dst issued by
	// processor/module src.
	Access [][]uint64
	// AccessByDist totals accesses by distance class.
	AccessByDist [sim.NumDistClasses]uint64
	// RegionReads[region][src] and RegionWrites[region][src] count accesses
	// addressed to a migratable region (virtual module id ≥ modules,
	// recovered from the event's raw address) by accessor module src:
	// loads on one side, stores and atomics (swap, cas) on the other. Two
	// regions sharing one physical home stay distinguishable here, which is
	// what lets the online placement daemon move them independently; the
	// matrices above fold the same traffic into the physical home for
	// distance accounting. The replication policy feeds on the split — a
	// region's write fraction, and what its reads saved against what its
	// writes' updates cost, is what decides replicate vs migrate vs
	// collapse — and the daemon on the sum.
	RegionReads  RegionVecs
	RegionWrites RegionVecs
	// EventCount totals events by kind (EvAccess..EvInstant).
	EventCount [sim.NumEventKinds]uint64
	// Objects accumulates span statistics keyed by (span kind, name, home).
	Objects map[ObjKey]*ObjStats
}

// RegionVecs holds one per-accessor-module vector per region id, indexed
// by the id itself: an access finds its region's counters without
// hashing. Entries stay nil until the region's first access, and every id
// below the aggregate's module count (a physical module) stays nil.
type RegionVecs [][]uint64

// Of returns region id's vector, nil while it has none.
func (v RegionVecs) Of(id int) []uint64 {
	if id < 0 || id >= len(v) {
		return nil
	}
	return v[id]
}

// ObjKey identifies one spanned object: a lock's wait or hold stream, a
// cluster's fault path, an RPC target.
type ObjKey struct {
	Span sim.SpanKind
	Name string
	Home int // the span's Dst module, -1 when none
}

// ObjStats accumulates one object's spans.
type ObjStats struct {
	ObjKey
	Count  uint64
	Cycles uint64 // summed span durations
	// BySrc counts spans by the emitting processor's module.
	BySrc []uint64
	// ByDist counts spans by src→home distance class.
	ByDist [sim.NumDistClasses]uint64
}

// NewAggregate builds an aggregator for a machine with the given number of
// processor-memory modules.
func NewAggregate(modules int) *Aggregate {
	a := &Aggregate{
		modules: modules,
		Access:  make([][]uint64, modules),
		Objects: make(map[ObjKey]*ObjStats),
	}
	for i := range a.Access {
		a.Access[i] = make([]uint64, modules)
	}
	return a
}

// Modules reports the module count the aggregator was built for.
func (a *Aggregate) Modules() int { return a.modules }

// Event implements sim.Tracer.
func (a *Aggregate) Event(ev sim.TraceEvent) {
	if ev.Kind >= 0 && int(ev.Kind) < sim.NumEventKinds {
		a.EventCount[ev.Kind]++
	}
	switch ev.Kind {
	case sim.EvAccess:
		if ev.Src >= 0 && ev.Src < a.modules && ev.Dst >= 0 && ev.Dst < a.modules {
			a.Access[ev.Dst][ev.Src]++
			a.AccessByDist[ev.Dist]++
			if id := sim.Addr(ev.Arg).Module(); id >= a.modules {
				if id >= len(a.RegionReads) || a.RegionReads[id] == nil {
					a.addRegion(id)
				}
				if ev.Name == "load" {
					a.RegionReads[id][ev.Src]++
				} else {
					a.RegionWrites[id][ev.Src]++
				}
			}
		}
	case sim.EvSpan:
		key := ObjKey{Span: ev.Span, Name: ev.Name, Home: ev.Dst}
		o := a.Objects[key]
		if o == nil {
			o = &ObjStats{ObjKey: key, BySrc: make([]uint64, a.modules)}
			a.Objects[key] = o
		}
		o.Count++
		o.Cycles += uint64(ev.End - ev.Start)
		if ev.Src >= 0 && ev.Src < a.modules {
			o.BySrc[ev.Src]++
			if ev.Dst >= 0 {
				o.ByDist[ev.Dist]++
			}
		}
	}
}

// addRegion creates region id's two vectors, growing the indexes to cover
// it.
func (a *Aggregate) addRegion(id int) {
	if grow := id + 1 - len(a.RegionReads); grow > 0 {
		a.RegionReads = append(a.RegionReads, make(RegionVecs, grow)...)
		a.RegionWrites = append(a.RegionWrites, make(RegionVecs, grow)...)
	}
	a.RegionReads[id] = make([]uint64, a.modules)
	a.RegionWrites[id] = make([]uint64, a.modules)
}

// AccessTotal reports the total accesses homed on module dst.
func (a *Aggregate) AccessTotal(dst int) uint64 {
	var t uint64
	for _, n := range a.Access[dst] {
		t += n
	}
	return t
}

// SortedObjects returns the span objects ordered by descending span count
// (ties by name then home, so reports are deterministic).
func (a *Aggregate) SortedObjects() []*ObjStats {
	objs := make([]*ObjStats, 0, len(a.Objects))
	for _, o := range a.Objects {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Count != objs[j].Count {
			return objs[i].Count > objs[j].Count
		}
		if objs[i].Name != objs[j].Name {
			return objs[i].Name < objs[j].Name
		}
		return objs[i].Home < objs[j].Home
	})
	return objs
}

// Summary renders the aggregate as an indented text block: event totals,
// access counts by distance class, the hottest home modules, and the
// busiest span objects.
func (a *Aggregate) Summary() string {
	var b strings.Builder
	var total uint64
	for _, n := range a.AccessByDist {
		total += n
	}
	fmt.Fprintf(&b, "events: %d accesses, %d spans, %d irqs\n",
		a.EventCount[sim.EvAccess], a.EventCount[sim.EvSpan], a.EventCount[sim.EvIRQ])
	if total > 0 {
		fmt.Fprintf(&b, "accesses by distance: %d local (%.0f%%), %d station (%.0f%%), %d ring (%.0f%%)\n",
			a.AccessByDist[sim.DistLocal], 100*float64(a.AccessByDist[sim.DistLocal])/float64(total),
			a.AccessByDist[sim.DistStation], 100*float64(a.AccessByDist[sim.DistStation])/float64(total),
			a.AccessByDist[sim.DistRing], 100*float64(a.AccessByDist[sim.DistRing])/float64(total))
		if g := a.AccessByDist[sim.DistGlobal]; g > 0 {
			fmt.Fprintf(&b, "accesses crossing the global ring: %d (%.0f%%)\n", g, 100*float64(g)/float64(total))
		}
	}
	type hot struct {
		module int
		n      uint64
	}
	var hots []hot
	for d := 0; d < a.modules; d++ {
		if n := a.AccessTotal(d); n > 0 {
			hots = append(hots, hot{d, n})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].n != hots[j].n {
			return hots[i].n > hots[j].n
		}
		return hots[i].module < hots[j].module
	})
	for i, h := range hots {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&b, "  module %-3d %8d accesses (%.0f%%)\n", h.module, h.n, 100*float64(h.n)/float64(total))
	}
	for i, o := range a.SortedObjects() {
		if i >= 10 {
			break
		}
		mean := 0.0
		if o.Count > 0 {
			mean = sim.Time(o.Cycles / o.Count).Microseconds()
		}
		home := "-"
		if o.Home >= 0 {
			home = fmt.Sprintf("%d", o.Home)
		}
		fmt.Fprintf(&b, "  span %-10s %-16q home %-3s x%-7d mean %.1fus\n",
			o.Span, o.Name, home, o.Count, mean)
	}
	return b.String()
}
