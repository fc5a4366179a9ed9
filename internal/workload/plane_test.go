package workload

import (
	"testing"

	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"

	"hurricane/internal/autonomic"
)

// planeTestConfig is serverTestConfig plus per-tenant migratable data
// regions — the substrate the autonomics plane acts on.
func planeTestConfig(seed uint64, kind locks.Kind, agg *trace.Aggregate) ServerConfig {
	cfg := serverTestConfig(seed, kind)
	cfg.Migratable = true
	cfg.Tracer = agg
	cfg.TenantDataWords = 64
	cfg.TenantTouch = 32
	return cfg
}

// An autonomics plane whose policies never act must be free: sampling is
// zero simulated cost, so a run with the full plane attached — daemon and
// replicator watching every window, thresholds set beyond reach — is
// byte-identical to the baseline run with no plane at all. This is the
// "combined daemon off" determinism contract: observation perturbs
// nothing; only actuation does.
func TestServerPlaneObservationByteIdentical(t *testing.T) {
	base := ServerRun(planeTestConfig(0x5eed, locks.KindSpin, trace.NewAggregate(16)))

	agg := trace.NewAggregate(16)
	cfg := planeTestConfig(0x5eed, locks.KindSpin, agg)
	never := 1e18 // MinWeight no slot can reach
	cfg.Attach = func(sys *core.System) {
		placement.Attach(autonomic.NewPlane(sim.Micros(100)), sys.M, agg,
			&autonomic.ReplicatorParams{MinWeight: never}, placement.ReplicateKernel(sys.K, agg),
			&placement.DaemonParams{MinWeight: never}, placement.ManageKernel(sys.K))
	}
	watched := ServerRun(cfg)

	if a, b := base.Fingerprint(), watched.Fingerprint(); a != b {
		t.Fatalf("an inert plane perturbed the run:\n--- no plane ---\n%s\n--- inert plane ---\n%s", a, b)
	}
}

// Moving the lock tuner's samplers from their private self-scheduled
// daemon events onto the shared plane must not change a single byte when
// the cadence is equal: daemon events at one timestamp fire in
// registration order either way. This is the refactor-equivalence half of
// the tentpole — tune-under-the-plane IS the historical tuner.
func TestServerPlaneScheduledTuneByteIdentical(t *testing.T) {
	selfScheduled := ServerRun(planeTestConfig(0x5eed, locks.KindTuned, trace.NewAggregate(16)))

	cfg := planeTestConfig(0x5eed, locks.KindTuned, trace.NewAggregate(16))
	plane := autonomic.NewPlane(sim.Micros(100))
	cfg.TuneParams = &tune.Params{Plane: plane}
	cfg.Attach = func(sys *core.System) { plane.Start(sys.M.Eng) }
	planed := ServerRun(cfg)

	if plane.Ticks() == 0 {
		t.Fatal("plane never ticked — the samplers were not plane-scheduled")
	}
	if a, b := selfScheduled.Fingerprint(), planed.Fingerprint(); a != b {
		t.Fatalf("plane-scheduled tuner diverged from the self-scheduled one:\n--- self ---\n%s\n--- plane ---\n%s", a, b)
	}
}

// Tenant affinity must be deterministic, and it must actually reroute
// dispatch — otherwise the nil-affinity byte-identity guarantee would be
// vacuously true of every configuration.
func TestServerTenantAffinityDeterministicAndEffective(t *testing.T) {
	run := func() *ServerResult {
		cfg := serverTestConfig(0x5eed, locks.KindSpin)
		cfg.TenantAffinity = func(rank int) int {
			if rank%4 == 0 {
				return (rank/4 + 1) % 4
			}
			return -1
		}
		return ServerRun(cfg)
	}
	a, b := run(), run()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("two identically seeded affinity runs diverged:\n%s\nvs\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
	if a.Completed == 0 {
		t.Fatal("affinity run completed nothing")
	}
	base := ServerRun(serverTestConfig(0x5eed, locks.KindSpin))
	if a.Fingerprint() == base.Fingerprint() {
		t.Fatal("sharded dispatch was byte-identical to the shared queue — affinity routed nothing")
	}
}
