package placement

import (
	"slices"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/trace"
	"hurricane/internal/workload"
)

// TestAttachWiring holds Attach to the plane's division of labor: the
// replicator registers before the daemon, the daemon yields to the
// replicator's claims only when both run, both price the kernel machine's
// own topology and latencies, and the plane ticks them.
func TestAttachWiring(t *testing.T) {
	for _, c := range []struct{ replicate, migrate bool }{{true, true}, {true, false}, {false, true}} {
		m := machine.NUMAchine64(1)
		agg := trace.NewAggregate(m.Stations * m.ProcsPerStation)
		sys := core.NewSystem(core.Config{
			Machine: m, ClusterSize: 8, LockKind: locks.KindH2MCS, Tracer: agg, Migratable: true,
		})
		var rp *autonomic.ReplicatorParams
		var dp *DaemonParams
		if c.replicate {
			rp = &autonomic.ReplicatorParams{}
		}
		if c.migrate {
			dp = &DaemonParams{}
		}
		plane := autonomic.NewPlane(0)
		rep, d := Attach(plane, sys.K, agg, rp, dp)

		var want []autonomic.Policy
		if c.replicate {
			want = append(want, rep)
		}
		if c.migrate {
			want = append(want, d)
		}
		if (rep != nil) != c.replicate || (d != nil) != c.migrate || !slices.Equal(plane.Policies(), want) {
			t.Fatalf("%+v: replicator %v, daemon %v, plane order %v", c, rep != nil, d != nil, plane.Policies())
		}
		if d != nil {
			if (d.p.Yield != nil) != c.replicate {
				t.Errorf("%+v: daemon Yield set=%v, want %v", c, d.p.Yield != nil, c.replicate)
			}
			topo := autonomic.Topo{Stations: 8, ProcsPerStation: 8}
			if d.topo != topo || d.costs != autonomic.CostsFromLatency(m.Lat) {
				t.Errorf("%+v: daemon prices %+v %+v, not the machine's", c, d.topo, d.costs)
			}
		}
		workload.IndependentFaults(sys, 8, 2, 2)
		if plane.Ticks() == 0 {
			t.Errorf("%+v: the plane never ticked: Attach did not start it", c)
		}
	}
}
