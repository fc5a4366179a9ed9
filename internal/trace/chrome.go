package trace

import (
	"encoding/json"
	"io"
	"sort"

	"hurricane/internal/sim"
)

// Chrome collects trace events and renders them in the Chrome trace-event
// JSON format, loadable in chrome://tracing and Perfetto. Processors
// appear as threads of one process; memory accesses and spans are complete
// ("X") events; park/unpark and instants are thread-scoped instant ("i")
// events. Timestamps are microseconds of simulated time, sorted ascending
// on export so viewers (and the golden-file test) see a monotonic stream.
// The file is for viewing: the analysis of a run is an Aggregate sink on
// the same pipeline, read while the run's machine is still in hand.
type Chrome struct {
	events []sim.TraceEvent
}

// NewChrome returns an empty collector.
func NewChrome() *Chrome { return &Chrome{} }

// Event implements sim.Tracer, so Chrome is a pipeline sink or installs
// alone.
func (c *Chrome) Event(ev sim.TraceEvent) { c.events = append(c.events, ev) }

// Events exposes the collected events (for tests and custom reports).
func (c *Chrome) Events() []sim.TraceEvent { return c.events }

// chromeEvent is one JSON record of the trace-event format.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace-event spec.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Export renders the collected events as Chrome trace-event JSON, sorted by
// start time (stable, so same-timestamp events keep emission order and the
// output is deterministic).
func (c *Chrome) Export(w io.Writer) error {
	sorted := make([]sim.TraceEvent, len(c.events))
	copy(sorted, c.events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(sorted)),
		DisplayTimeUnit: "ms",
	}
	for _, ev := range sorted {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Kind.String(),
			TS:   ev.Start.Microseconds(),
			PID:  0,
			TID:  ev.Proc,
		}
		switch ev.Kind {
		case sim.EvAccess:
			dur := (ev.End - ev.Start).Microseconds()
			ce.Ph = "X"
			ce.Dur = &dur
			ce.Args = map[string]interface{}{
				"src":  ev.Src,
				"dst":  ev.Dst,
				"dist": ev.Dist.String(),
				"addr": ev.Arg,
			}
		case sim.EvSpan:
			dur := (ev.End - ev.Start).Microseconds()
			ce.Ph = "X"
			ce.Dur = &dur
			ce.Args = map[string]interface{}{"kind": ev.Span.String()}
			if ev.Src >= 0 && ev.Dst >= 0 {
				ce.Args["src"] = ev.Src
				ce.Args["dst"] = ev.Dst
				ce.Args["dist"] = ev.Dist.String()
			}
			if ev.Arg != 0 {
				ce.Args["obj"] = ev.Arg
			}
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
