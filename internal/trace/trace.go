// Package trace is the unified observability spine above the simulator:
// one event pipeline, typed span kinds, pluggable sinks. The machine and
// every instrumentation layer (locks.Stats wait/hold spans, the kernel's
// fault/RPC/IPI spans) emit sim.TraceEvent records; a Pipeline fans them
// out to sinks — Chrome JSON for Perfetto, in-memory Aggregate for the
// placement analyzer — so one traced run feeds both a visual timeline and
// the access-topology analysis. A sink is any sim.Tracer; sinks must not
// charge simulated time — they observe the run, they are not part of it.
package trace

import "hurricane/internal/sim"

// Pipeline fans machine events out to any number of sinks, in order. It
// is itself a sim.Tracer, so it installs directly on a machine.
type Pipeline struct {
	sinks []sim.Tracer
}

// NewPipeline builds a pipeline over the given sinks.
func NewPipeline(sinks ...sim.Tracer) *Pipeline {
	return &Pipeline{sinks: sinks}
}

// Event implements sim.Tracer.
func (p *Pipeline) Event(ev sim.TraceEvent) {
	for _, s := range p.sinks {
		s.Event(ev)
	}
}
