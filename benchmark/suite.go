package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"hurricane/internal/exp"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
)

// suiteExperiment is one quick-suite experiment, called exactly as
// `hurricane-bench -quick` calls it, so its metrics at seed 1 are the
// checked-in BENCH_sim.baseline.json.
type suiteExperiment struct {
	name string
	run  func(seed uint64) *exp.Table
}

var quickSuite = []suiteExperiment{
	{"fig4", func(s uint64) *exp.Table { return exp.Figure4(s) }},
	{"uncontended", func(s uint64) *exp.Table { return exp.Uncontended(s) }},
	{"fig5a", func(s uint64) *exp.Table { return exp.Figure5(s, 0, 60) }},
	{"fig5b", func(s uint64) *exp.Table { return exp.Figure5(s, 25, 60) }},
	{"fig7a", func(s uint64) *exp.Table { return exp.Figure7a(s, 8) }},
	{"fig7b", func(s uint64) *exp.Table { return exp.Figure7b(s, 4, 3) }},
	{"fig7c", func(s uint64) *exp.Table { return exp.Figure7c(s, 8) }},
	{"fig7d", func(s uint64) *exp.Table { return exp.Figure7d(s, 4, 3) }},
	{"utilization", func(s uint64) *exp.Table { return exp.LockUtilization(s, 30) }},
	{"utilization64", func(s uint64) *exp.Table { return exp.LockUtilization64(s, 10) }},
	{"placement", func(s uint64) *exp.Table { return exp.Placement(s, 8) }},
	{"placement_online", func(s uint64) *exp.Table { return exp.PlacementOnline(s, 24) }},
	{"calibration", func(s uint64) *exp.Table { return exp.Calibration(s) }},
	{"trylock", func(s uint64) *exp.Table { return exp.TryLockFairness(s, 20) }},
	{"protocols", func(s uint64) *exp.Table { return exp.Protocols(s) }},
	{"hybrid", func(s uint64) *exp.Table { return exp.HybridAblation(s, 15) }},
	{"combining", func(s uint64) *exp.Table { return exp.Combining(s) }},
	{"lockfree", func(s uint64) *exp.Table { return exp.LockFree(s, 15) }},
	{"scaling", func(s uint64) *exp.Table { return exp.Scaling(s, 4) }},
	{"tuned", func(s uint64) *exp.Table { return exp.TunedCrossover(s, 10) }},
	{"model", func(s uint64) *exp.Table { return exp.ModelSweep(s, 10) }},
	{"cohort", func(s uint64) *exp.Table { return exp.CohortSweep(s, 10) }},
	{"server", func(s uint64) *exp.Table { return exp.ServerSweep(s, 20) }},
	{"autonomic", func(s uint64) *exp.Table { return exp.AutonomicSweep(s, 15) }},
	{"parstress", func(s uint64) *exp.Table { return exp.ParStress(s, suiteParWindowUS, false) }},
}

// suiteParWindowUS is the quick parstress window; the suite's throughput is
// parstress's lock rounds per simulated millisecond of it.
const suiteParWindowUS = 2500

// tinySuite names the experiments cheap enough for the package's tests.
var tinySuite = []string{"fig4", "uncontended", "placement", "calibration", "trylock", "protocols", "hybrid", "combining", "lockfree"}

type suitePlan struct {
	seed uint64
	exps []suiteExperiment
	// baseline maps experiment name to its checked-in metrics; nil when the
	// seed is not 1 and the comparison is skipped.
	baseline map[string][]exp.Metric
	// parWindowUS is the parstress window the pass runs, 0 if it runs none.
	parWindowUS float64
}

func buildSuite(seed uint64, sz size, baselinePath string) (plan, error) {
	exp.SetParallelism(1)
	exp.SetParWorkers(1)
	p := &suitePlan{seed: seed, exps: quickSuite, parWindowUS: suiteParWindowUS}
	if sz == tiny {
		p.exps = nil
		for _, e := range quickSuite {
			if slices.Contains(tinySuite, e.name) {
				p.exps = append(p.exps, e)
			}
		}
		// A short parstress window keeps the throughput metric measured; it
		// is not the baseline's parstress, so it is not compared.
		p.exps = append(p.exps, suiteExperiment{"parstress-tiny", func(s uint64) *exp.Table { return exp.ParStress(s, 200, false) }})
		p.parWindowUS = 200
	}
	if seed != 1 {
		return p, nil
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("suite baseline: %w", err)
	}
	var rep exp.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("suite baseline %s: %w", baselinePath, err)
	}
	p.baseline = map[string][]exp.Metric{}
	for _, r := range rep.Experiments {
		p.baseline[r.Name] = r.Metrics
	}
	return p, nil
}

func (p *suitePlan) pass(t *traced) *passResult {
	r := &passResult{lat: &stats.Dist{}}
	var fp strings.Builder
	var rounds, cells float64
	walls := map[string]float64{}
	var total float64
	checked, drift := 0, 0
	for _, e := range p.exps {
		end := t.span("exp." + e.name)
		d0, e0 := sim.TotalEvents()
		t0 := time.Now()
		tab := e.run(p.seed)
		wall := time.Since(t0).Seconds()
		d1, e1 := sim.TotalEvents()
		end()
		r.attempted++
		js, _ := json.Marshal(tab.Metrics)
		fmt.Fprintf(&fp, "%s %s\n", e.name, js)
		if want, ok := p.baseline[e.name]; ok {
			checked++
			if !reflect.DeepEqual(tab.Metrics, want) {
				r.failed++
				drift++
			}
		}
		for _, m := range tab.Metrics {
			if m.Unit == "us" {
				r.lat.Add(m.Value)
			}
			if strings.HasPrefix(e.name, "parstress") && m.Unit == "rounds" {
				rounds += m.Value
				cells++
			}
		}
		name := e.name
		if !slices.Contains(suiteWallExperiments, name) {
			name = "rest"
		}
		walls[name] += wall
		total += wall
		if slices.Contains(suiteEventExperiments, e.name) {
			t.set("exp."+e.name+".events", float64((d1-d0)+(e1-e0)))
		}
	}
	if p.baseline == nil {
		r.note = fmt.Sprintf("suite: baseline comparison skipped at seed %d (the baseline is seed 1)", p.seed)
	}
	r.fingerprint = fp.String()
	r.opsPerMS = ratio(rounds, cells*p.parWindowUS/1000)
	for _, name := range append(append([]string(nil), suiteWallExperiments...), "rest") {
		t.set("exp."+name+".wall_frac", ratio(walls[name], total))
	}
	t.set("exp.baseline_checked", float64(checked))
	t.set("exp.baseline_drift", float64(drift))
	return r
}
