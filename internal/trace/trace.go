// Package trace is the unified observability spine above the simulator:
// one event pipeline, typed span kinds, pluggable sinks. The machine and
// every instrumentation layer (locks.Stats wait/hold spans, the kernel's
// fault/RPC/IPI spans) emit sim.TraceEvent records; a Pipeline fans them
// out to sinks — Chrome JSON for Perfetto, in-memory Aggregate for the
// placement analyzer — so one traced run feeds both a visual timeline and
// the access-topology analysis.
package trace

import "hurricane/internal/sim"

// Sink consumes trace events. Sinks must not charge simulated time — they
// observe the run, they are not part of it.
type Sink interface {
	Event(sim.TraceEvent)
}

// Pipeline fans machine events out to any number of sinks, in order. It
// implements sim.Tracer, so it installs directly on a machine.
type Pipeline struct {
	sinks []Sink
}

// NewPipeline builds a pipeline over the given sinks.
func NewPipeline(sinks ...Sink) *Pipeline {
	return &Pipeline{sinks: sinks}
}

// Event implements sim.Tracer.
func (p *Pipeline) Event(ev sim.TraceEvent) {
	for _, s := range p.sinks {
		s.Event(ev)
	}
}
