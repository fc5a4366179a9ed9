package autonomic

import (
	"fmt"
	"strings"

	"hurricane/internal/sim"
)

// Policy is one feedback controller's sampling phase: Tick observes the
// machine at a daemon event (zero simulated cost) and may request
// actuations whose charges land on simulated processors. Name labels the
// policy in reports.
type Policy interface {
	Name() string
	Tick(now sim.Time)
}

// Plane schedules every registered policy under one Engine.Every cadence:
// a single daemon event per period ticks the policies in registration
// order, so each phase observes the state the previous phases' actions
// already produced — the lock tuner samples the home-module utilization a
// migration just changed, and the migrator sees the traffic a replication
// just rerouted. One cadence also pins the cross-policy event order, which
// is what makes combined runs deterministic.
//
// Build the plane before the machine's policies are constructed
// (NewPlane), register policies as they come up (Add — tune samplers
// register themselves during kernel construction via tune.Params.Plane),
// then Start it once the engine exists; placement.Attach adds a kernel's
// data policies and starts the plane. Policies added after Start still
// run: the daemon event ranges over the live slice.
type Plane struct {
	period   sim.Duration
	policies []Policy
	ticks    uint64
	started  bool
}

// NewPlane builds an empty plane with the given sampling period
// (default 100us).
func NewPlane(period sim.Duration) *Plane {
	if period == 0 {
		period = sim.Micros(100)
	}
	return &Plane{period: period}
}

// Add registers a policy. Registration order is phase order within each
// tick; a policy ticked by the plane must not also self-schedule.
func (pl *Plane) Add(p Policy) { pl.policies = append(pl.policies, p) }

// Start registers the plane's single sampling daemon on eng. Call once.
func (pl *Plane) Start(eng *sim.Engine) {
	if pl.started {
		panic("autonomic: Plane started twice")
	}
	pl.started = true
	eng.Every(pl.period, func(now sim.Time) {
		pl.ticks++
		for _, p := range pl.policies {
			p.Tick(now)
		}
	})
}

// Ticks reports how many sampling windows the plane has dispatched.
func (pl *Plane) Ticks() uint64 { return pl.ticks }

// Policies returns the registered policies in phase order.
func (pl *Plane) Policies() []Policy { return pl.policies }

// Report renders the plane's schedule as an indented block.
func (pl *Plane) Report() string {
	var b strings.Builder
	names := make([]string, len(pl.policies))
	for i, p := range pl.policies {
		names[i] = p.Name()
	}
	fmt.Fprintf(&b, "autonomics plane: %d windows every %v, %d policies [%s]\n",
		pl.ticks, pl.period, len(pl.policies), strings.Join(names, " -> "))
	return b.String()
}
