package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hurricane/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun is a small deterministic workload whose accesses cover all
// three distance classes: proc 1 touches its own module (local), module 2
// (same station) and module 13 (across the ring), then an instrumentation
// span and an instant are emitted on top.
func goldenRun(t *testing.T) (*Chrome, *sim.Machine) {
	t.Helper()
	c := NewChrome()
	m := sim.NewMachine(sim.Config{Seed: 7})
	m.SetTracer(c)
	local := m.Alloc(1, 1)
	station := m.Alloc(2, 1)
	ring := m.Alloc(13, 1)
	m.Go(1, func(p *sim.Proc) {
		t0 := p.Now()
		p.Load(local)
		p.Load(station)
		p.Store(ring, 9)
		m.EmitSpan(sim.SpanLockWait, "wait test", p.ID(), t0, p.Now(), 13, 0)
		m.Eng.Emit(sim.TraceEvent{Kind: sim.EvInstant, Name: "marker",
			Proc: p.ID(), Start: p.Now(), End: p.Now(), Src: -1, Dst: -1})
	})
	m.RunAll()
	m.Shutdown()
	return c, m
}

func TestChromeGolden(t *testing.T) {
	c, _ := goldenRun(t)
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export differs from %s (run with -update to regenerate):\n%s", golden, buf.String())
	}
}

// TestChromeSchema validates the exported JSON against the trace-event
// format: required fields present, timestamps monotonically ordered, and
// the dist arg correct for all three distance classes.
func TestChromeSchema(t *testing.T) {
	c, _ := goldenRun(t)
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  *float64               `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	last := -1.0
	distOf := map[string]string{} // dst module -> dist arg seen
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Errorf("event %q has ph %q", ev.Name, ev.Ph)
		}
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("complete event %q lacks dur", ev.Name)
		}
		if ev.TS < last {
			t.Fatalf("timestamps not monotonic: %v after %v", ev.TS, last)
		}
		last = ev.TS
		if ev.Cat == "mem" {
			dst := ev.Args["dst"].(float64)
			distOf[ev.Args["dist"].(string)] = ev.Name
			_ = dst
		}
	}
	for _, d := range []string{"local", "station", "ring"} {
		if _, ok := distOf[d]; !ok {
			t.Errorf("no memory access with dist %q in the golden run", d)
		}
	}
}

// TestPipelineFanOut checks one event stream feeds several sinks at once.
func TestPipelineFanOut(t *testing.T) {
	ch := NewChrome()
	agg := NewAggregate(16)
	pl := NewPipeline(ch, agg)
	m := sim.NewMachine(sim.Config{Seed: 3})
	m.SetTracer(pl)
	a := m.Alloc(13, 1)
	m.Go(0, func(p *sim.Proc) { p.Load(a) })
	m.RunAll()
	m.Shutdown()
	if len(ch.Events()) == 0 {
		t.Fatal("chrome sink saw no events")
	}
	if agg.EventCount[sim.EvAccess] == 0 {
		t.Fatal("aggregate sink saw no accesses")
	}
	if agg.Access[13][0] != 1 {
		t.Fatalf("Access[13][0] = %d, want 1", agg.Access[13][0])
	}
	if agg.AccessByDist[sim.DistRing] != 1 {
		t.Fatalf("ring accesses = %d, want 1", agg.AccessByDist[sim.DistRing])
	}
}

func TestAggregateObjects(t *testing.T) {
	agg := NewAggregate(16)
	for i := 0; i < 5; i++ {
		agg.Event(sim.TraceEvent{Kind: sim.EvSpan, Span: sim.SpanLockWait,
			Name: "wait L", Proc: 1, Src: 1, Dst: 13, Dist: sim.DistRing,
			Start: sim.Time(i * 100), End: sim.Time(i*100 + 32)})
	}
	agg.Event(sim.TraceEvent{Kind: sim.EvSpan, Span: sim.SpanFault,
		Name: "fault", Proc: 2, Src: 2, Dst: 0, Dist: sim.DistStation,
		Start: 0, End: 1600})
	objs := agg.SortedObjects()
	if len(objs) != 2 {
		t.Fatalf("got %d objects, want 2", len(objs))
	}
	o := objs[0]
	if o.Span != sim.SpanLockWait || o.Name != "wait L" || o.Home != 13 {
		t.Fatalf("busiest object = %+v", o.ObjKey)
	}
	if o.Count != 5 || o.Cycles != 5*32 {
		t.Fatalf("count/cycles = %d/%d, want 5/160", o.Count, o.Cycles)
	}
	if o.BySrc[1] != 5 || o.ByDist[sim.DistRing] != 5 {
		t.Fatalf("BySrc[1]=%d ByDist[ring]=%d, want 5/5", o.BySrc[1], o.ByDist[sim.DistRing])
	}
	sum := agg.Summary()
	for _, frag := range []string{"spans", "wait L", "fault"} {
		if !bytes.Contains([]byte(sum), []byte(frag)) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}
}
