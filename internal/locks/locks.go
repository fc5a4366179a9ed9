// Package locks implements the locking algorithms of the paper's Figure 3
// on the simulated machine: the original Mellor-Crummey/Scott distributed
// (queue) lock built from fetch-and-store only, the paper's two HURRICANE
// modifications (H1-MCS removes queue-node initialization from the
// uncontended path, H2-MCS additionally removes the successor check from
// release), and the exponential-backoff test-and-set spin lock. It also
// implements the two TryLock variants of §3.2 and, as a §5 extension, a
// CLH-style queue lock for CAS-capable machines.
//
// Each implementation charges the instruction mix of its assembly listing
// (atomic, memory, register, branch), so the paper's Figure 4 instruction
// counts and the §4.1 latencies both fall out of the simulation.
package locks

import (
	"fmt"

	"hurricane/internal/sim"
	"hurricane/internal/tune"
)

// The fixed tuning constants of the paper's kernel. These are the values
// the tune.Controller replaces at runtime: a Tuned lock starts from the
// same defaults and moves them as measured home-module utilization
// dictates.
const (
	// DefaultSpinCap is the kernel-internal backoff cap for cluster-level
	// spin locks (§4.1: 35us).
	DefaultSpinCap sim.Duration = 35 * sim.CyclesPerMicrosecond
	// Figure5SpinCap is the 2ms cap the paper also measures in Figure 5.
	Figure5SpinCap sim.Duration = 2000 * sim.CyclesPerMicrosecond
	// DefaultHeadBackoff bounds the Adaptive queue head's polling of the
	// lock word. It is deliberately far below DefaultSpinCap: the head is
	// the only processor polling, so the cap trades a little hand-off
	// latency against home-module traffic, not against a spin storm.
	DefaultHeadBackoff sim.Duration = 4 * sim.CyclesPerMicrosecond
)

// Lock is a mutual-exclusion lock usable by simulated processors.
type Lock interface {
	// Acquire blocks (spins) until the calling processor holds the lock.
	Acquire(p *sim.Proc)
	// Release unlocks; the caller must hold the lock.
	Release(p *sim.Proc)
	// Name identifies the algorithm in reports.
	Name() string
	// Home reports the memory module the lock word lives on — the module
	// remote contenders load, and the unit trace-guided placement reasons
	// about.
	Home() int
}

// TryLocker is a lock supporting a single acquisition attempt, used by
// interrupt handlers that must not wait (§3.2).
type TryLocker interface {
	Lock
	// TryAcquire attempts to take the lock without waiting (or, for the V1
	// variant, without deadlocking). It reports whether the lock is held
	// by the caller on return.
	TryAcquire(p *sim.Proc) bool
}

// Kind selects a lock algorithm by name, for experiment configuration.
type Kind int

const (
	// KindMCS is the unmodified Mellor-Crummey/Scott distributed lock.
	KindMCS Kind = iota
	// KindH1MCS removes queue-node initialization from the acquire path.
	KindH1MCS
	// KindH2MCS also removes the successor check from release.
	KindH2MCS
	// KindSpin is the exponential-backoff test-and-set lock with the
	// kernel-internal 35us backoff cap.
	KindSpin
	// KindSpin2ms is the same lock with the 2ms cap used in Figure 5.
	KindSpin2ms
	// KindCLH is the CAS-era queue-lock extension (§5 discussion).
	KindCLH
	// KindAdaptive is the §3.1 adaptive technique: TAS fast path backed by
	// an MCS queue, with fixed constants (DefaultHeadBackoff).
	KindAdaptive
	// KindTuned is the adaptive lock with its constants driven by a
	// tune.Controller fed from measured home-module utilization.
	KindTuned
	// KindCohort is the hierarchical cohort lock: per-station local locks
	// plus a global lock, with batched local hand-offs.
	KindCohort
	// KindCNA is the compact NUMA-aware queue lock: one MCS-style queue
	// reordered by station at release.
	KindCNA
)

// String returns the label used in tables and figures.
func (k Kind) String() string {
	switch k {
	case KindMCS:
		return "MCS"
	case KindH1MCS:
		return "H1-MCS"
	case KindH2MCS:
		return "H2-MCS"
	case KindSpin:
		return "Spin-35us"
	case KindSpin2ms:
		return "Spin-2ms"
	case KindCLH:
		return "CLH"
	case KindAdaptive:
		return "Adaptive"
	case KindTuned:
		return "Tuned"
	case KindCohort:
		return "Cohort"
	case KindCNA:
		return "CNA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds a lock of the given kind with its word(s) homed on module
// `home` of machine m.
func New(m *sim.Machine, k Kind, home int) Lock {
	switch k {
	case KindMCS:
		return NewMCS(m, home, VariantOriginal)
	case KindH1MCS:
		return NewMCS(m, home, VariantH1)
	case KindH2MCS:
		return NewMCS(m, home, VariantH2)
	case KindSpin:
		return NewSpin(m, home, DefaultSpinCap)
	case KindSpin2ms:
		return NewSpin(m, home, Figure5SpinCap)
	case KindCLH:
		return NewCLH(m, home)
	case KindAdaptive:
		return NewAdaptive(m, home)
	case KindTuned:
		return NewTuned(m, home, tune.Params{})
	case KindCohort:
		return NewCohort(m, home)
	case KindCNA:
		return NewCNA(m, home, DefaultSpillThreshold)
	}
	panic("locks: unknown kind")
}
