// Command benchmark measures the simulator end to end on five named
// workloads and, in a separate traced run, layer by layer. See README.md.
//
//	bash benchmark/run.sh                          # every workload, end to end
//	bash benchmark/run.sh -workload lock-zoo -trace 1 -spans spans.json
//	bash benchmark/run.sh -repeat 5                # spread over seeds 1..5
//
// Each workload runs in a measuring child process of its own, one at a
// time: the parent re-executes its own binary. Between its timed passes
// the measuring child re-executes the binary again, only to time set-up
// (exec to the first timed call). The parent prints every metric as
// "workload metric value unit"; run on one workload it ends with one JSON
// line of the correctness counts and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string
	jsonPath string
	repeat   int
	child    string
}

// baselinePath is the suite's simulated-metric baseline, relative to the
// repository root the benchmark runs from.
const baselinePath = "BENCH_sim.baseline.json"

// setupBurst is how many set-up children the measuring child runs back to
// back before each untraced pass and after the last one. Spread over the
// run, the bursts sample the host as the timed passes do: on a shared host
// the speed of set-up changes over seconds, and one burst alone measures
// one moment. setup_s is the median of every burst's samples and the
// measuring child's own.
const setupBurst = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all of them)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the suite is checked against BENCH_sim.baseline.json at seed 1")
	flag.Float64Var(&o.seconds, "seconds", 10, "run timed passes for this many seconds, and at least two (BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1: add a traced pass and the layer probes, and report the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the traced pass's host spans and slowest request splits to this JSON file")
	flag.StringVar(&o.jsonPath, "json", "", "write the stamped report here (default BENCH_host.json when running every workload)")
	flag.IntVar(&o.repeat, "repeat", 1, "measure each workload this many times, at seeds seed, seed+1, ..., and print every metric's median, IQR and range")
	flag.StringVar(&o.child, "child", "", "internal: run as a set-up (setup) or measuring (run) child")
	flag.Parse()

	err := validate(o)
	if err == nil {
		if o.child == "" {
			err = parent(o)
		} else {
			err = child(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func validate(o options) error {
	switch {
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	case o.seconds < 0:
		return fmt.Errorf("-seconds must not be negative")
	case o.repeat < 1:
		return fmt.Errorf("-repeat must be at least 1")
	case o.child != "" && o.child != "setup" && o.child != "run":
		return fmt.Errorf("unknown -child %q", o.child)
	case o.child != "" && o.workload == "":
		return fmt.Errorf("-child needs -workload")
	}
	if o.workload != "" {
		_, err := lookup(o.workload)
		return err
	}
	return nil
}

// A child runs on one thread. With a second one the garbage collector's
// background work lands on it, and its timing against the simulator's
// allocation made peak memory vary by 6% where one thread gives 2%. Only
// the two-worker LP runs raise it (lpThreads).
const childThreads = 1

// childOut is a child's one line of output to its parent.
type childOut struct {
	FirstNS int64           `json:"first_ns"` // wall clock at the first timed call
	Setups  []float64       `json:"setups,omitempty"`
	Result  *workloadResult `json:"result,omitempty"`
}

func child(o options) error {
	runtime.GOMAXPROCS(childThreads)
	w, _ := lookup(o.workload)
	p, err := w.build(o.seed, full, baselinePath)
	if err != nil {
		return err
	}
	out := childOut{FirstNS: time.Now().UnixNano()}
	if o.child == "run" {
		// Only the untraced run reports setup_s, so only it times set-up.
		var between func()
		if o.trace == 0 {
			between = func() {
				for i := 0; i < setupBurst && err == nil; i++ {
					var s float64
					s, _, err = spawn(o, w.name, o.seed, "setup", "")
					out.Setups = append(out.Setups, s)
				}
			}
		}
		out.Result = runWorkload(w, p, o.seed, time.Duration(o.seconds*float64(time.Second)), o.trace == 1, full, between)
		if err != nil {
			return err
		}
		if o.spans != "" && out.Result.trace != nil {
			if err := writeSpans(o.spans, w.name, o.seed, out.Result.trace); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func writeSpans(path, name string, seed uint64, t *traced) error {
	doc := struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Spans    []hostSpan     `json:"spans"`
		Slowest  []splitRequest `json:"slowest_requests,omitempty"`
	}{Workload: name, Seed: seed, Spans: t.spans}
	if t.split != nil {
		doc.Slowest = t.split.slowest(10)
	}
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// outcome is one measured workload as the parent reports it.
type outcome struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
	Notes     []string      `json:"notes,omitempty"`
}

type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parent(o options) error {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var runs []outcome
	for r := 0; r < o.repeat; r++ {
		seed := o.seed + uint64(r)
		for _, name := range names {
			out, err := measure(o, name, seed, len(names) > 1)
			if err != nil {
				return err
			}
			printOutcome(out)
			runs = append(runs, *out)
		}
	}
	var spread []spreadRow
	if o.repeat > 1 {
		spread = spreadOf(runs)
		printSpread(spread)
	}
	path := o.jsonPath
	if path == "" && o.workload == "" {
		path = "BENCH_host.json"
	}
	if path != "" {
		if err := writeJSON(path, stampedReport{Stamp: stampOf(o), Runs: runs, Spread: spread}); err != nil {
			return err
		}
	}
	if o.workload != "" && o.repeat == 1 {
		return printResultLine(runs[0])
	}
	return nil
}

// measure runs one measuring child.
func measure(o options, name string, seed uint64, several bool) (*outcome, error) {
	spans := o.spans
	if spans != "" && several {
		ext := filepath.Ext(spans)
		spans = strings.TrimSuffix(spans, ext) + "." + name + ext
	}
	s, co, err := spawn(o, name, seed, "run", spans)
	if err != nil {
		return nil, err
	}
	return assemble(name, seed, co.Result, median(append(co.Setups, s)), o.trace == 1), nil
}

// assemble turns a measuring child's result into the reported outcome:
// the per-layer metrics of a traced run, or the end-to-end metrics with
// set-up time and peak memory added.
func assemble(name string, seed uint64, c *workloadResult, setup float64, layers bool) *outcome {
	out := &outcome{Workload: name, Seed: seed, Correct: c.Failed == 0 && c.Attempted > 0,
		Attempted: c.Attempted, Failed: c.Failed, Notes: c.Notes}
	values, defs := c.EndToEnd, endToEnd
	if layers {
		values, defs = c.Layer, perLayer
	} else {
		values["setup_s"] = setup
		values["rss_mb"] = float64(c.RSSKB) / 1024
	}
	for _, m := range defs {
		out.Metrics = append(out.Metrics, metricValue{m.name, values[m.name], m.unit})
	}
	return out
}

// spawn runs one child to completion and returns its set-up time (exec to
// first timed call) and its output.
func spawn(o options, name string, seed uint64, kind, spans string) (float64, *childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{"-child", kind, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, nil, fmt.Errorf("%s %s child: %w", name, kind, err)
	}
	out := &childOut{}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), out); err != nil {
		return 0, nil, fmt.Errorf("%s %s child output: %w", name, kind, err)
	}
	return float64(out.FirstNS-start.UnixNano()) / 1e9, out, nil
}

func printOutcome(out *outcome) {
	for _, n := range out.Notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, m := range out.Metrics {
		fmt.Printf("%s %s %s %s\n", out.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Printf("%s correct=%v attempted=%d failed=%d\n", out.Workload, out.Correct, out.Attempted, out.Failed)
}

// printResultLine prints the one-workload summary as the last line.
func printResultLine(out outcome) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]valueUnit{}}
	for _, m := range out.Metrics {
		line.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(buf))
	return nil
}

// stamp identifies the host and settings a report was measured with, so
// numbers from different hosts are never compared silently.
type stamp struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Repeat     int     `json:"repeat"`
}

func stampOf(o options) stamp {
	return stamp{runtime.NumCPU(), childThreads, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		o.seed, o.seconds, o.trace, o.repeat}
}

type stampedReport struct {
	Stamp  stamp       `json:"stamp"`
	Runs   []outcome   `json:"runs"`
	Spread []spreadRow `json:"spread,omitempty"`
}

// spreadRow summarizes one metric of one workload over repeated runs.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	IQRFrac  float64 `json:"iqr_frac"` // (q3-q1)/median
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

func spreadOf(runs []outcome) []spreadRow {
	type key struct{ w, m, unit string }
	vals := map[key][]float64{}
	var order []key
	for _, r := range runs {
		for _, m := range r.Metrics {
			k := key{r.Workload, m.Name, m.Unit}
			if _, ok := vals[k]; !ok {
				order = append(order, k)
			}
			vals[k] = append(vals[k], m.Value)
		}
	}
	var rows []spreadRow
	for _, k := range order {
		v := vals[k]
		q1, q3 := quartiles(v)
		med := median(v)
		rows = append(rows, spreadRow{k.w, k.m, k.unit, med, ratio(q3-q1, med), slices.Min(v), slices.Max(v)})
	}
	return rows
}

func printSpread(rows []spreadRow) {
	fmt.Println("spread: workload metric median iqr/median min max unit")
	for _, r := range rows {
		fmt.Printf("spread %s %s %.6g %.4f %.6g %.6g %s\n", r.Workload, r.Metric, r.Median, r.IQRFrac, r.Min, r.Max, r.Unit)
	}
}
