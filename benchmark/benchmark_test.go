package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry holds BENCHMARK.json to the tables the
// program reports from: same workloads, names, units, directions, bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, program %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q (unit %q)", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
		seen[name] = true
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		check(d.name, d.unit, d.better)
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, e, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || (d.name != "setup_s" && d.bound > endToEnd[1].bound) {
			t.Errorf("%s: bound %g out of range (setup_s must have the largest)", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		p := m.PerLayer[i]
		check(d.name, d.unit, d.better)
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, p, d)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced then
// traced, and checks its outputs: no failed operation, every declared
// metric reported with its unit, traced fingerprints equal to untraced
// (a mismatch counts as a failure), and for the server workloads a request
// split that sums exactly to every measured sojourn.
func TestWorkloadsTiny(t *testing.T) {
	units := map[string]string{}
	m := readManifest(t)
	for _, e := range m.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, p := range m.PerLayer {
		units[p.Name] = p.Unit
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			p, err := w.build(1, tiny, "../BENCH_sim.baseline.json")
			if err != nil {
				t.Fatal(err)
			}
			res := runWorkload(w, p, 1, 0, true, tiny, nil)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Notes)
			}
			for _, layers := range []bool{false, true} {
				out := assemble(w.name, 1, res, 0.001, layers)
				want := len(endToEnd)
				if layers {
					want = len(perLayer)
				}
				if !out.Correct || len(out.Metrics) != want {
					t.Fatalf("layers=%v: correct=%v, %d metrics, want %d", layers, out.Correct, len(out.Metrics), want)
				}
				for _, mv := range out.Metrics {
					if units[mv.Name] != mv.Unit {
						t.Errorf("%s reported in %q, BENCHMARK.json says %q", mv.Name, mv.Unit, units[mv.Name])
					}
				}
			}
			if e := res.EndToEnd; e["wall_s"] <= 0 || e["sim_p50_us"] <= 0 || e["sim_tail_us"] <= 0 || e["sim_ops_per_ms"] <= 0 {
				t.Errorf("end-to-end metric not measured: %v", e)
			}
			if w.name == "server-read" || w.name == "server-write" {
				checkSplit(t, res)
			}
		})
	}
}

// checkSplit matches the traced nominal rung's request splits against the
// sojourns the workload itself measured: one split per measured request,
// parts summing exactly to it.
func checkSplit(t *testing.T, res *workloadResult) {
	s := res.trace.split
	if s == nil || s.bad != 0 || len(s.reqs) == 0 {
		t.Fatalf("split missing or incomplete: %+v", s)
	}
	var got []float64
	for _, r := range s.reqs {
		got = append(got, r.Sojourn().Microseconds())
	}
	slices.Sort(got)
	lat := res.ref.lat
	if len(got) != lat.N() {
		t.Fatalf("%d splits, %d measured requests", len(got), lat.N())
	}
	for i, x := range got {
		// The nearest-rank percentile at the middle of rank i is the i-th
		// smallest sample.
		if want := lat.Percentile(100 * (float64(i) + 0.5) / float64(len(got))); x != want {
			t.Fatalf("split sojourn %d is %g us, measured %g us", i, x, want)
		}
	}
	var frac float64
	for _, part := range splitParts {
		frac += res.trace.layer[splitMetric(part, "")]
	}
	if frac < 0.999999 || frac > 1.000001 {
		t.Errorf("split shares sum to %g", frac)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
}
