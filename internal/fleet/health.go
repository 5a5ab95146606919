// Health tracking and autonomous failover for the fleet.
//
// Each member carries a three-state health machine (healthy → suspect →
// dead) driven by an external probe source: Heartbeat records an answered
// probe, MissProbe a missed one, and Revive readmits a dead member that
// answers again. The fleet owns no timing — clustersim probes on its
// simulation clock, a numaplaced operator over /v1/heartbeat and
// /v1/missprobe — so the state machine itself is deterministic. Suspect
// machines stop receiving new admissions but keep their tenants; the
// suspect→dead transition triggers an automatic failover pass that rehomes
// every tenant of the dead machine onto the healthy remainder within a
// migration-seconds budget, reusing the same costed-move machinery as
// Rebalance. Tenants the pass cannot rehome (no healthy capacity, exhausted
// budget) are reported stranded with ErrNoHealthyBackend and stay on the
// fleet's books — later Failover or Rebalance passes retry them, and
// Release still works on them — so a machine death never silently loses a
// tenant record.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/nperr"
)

// Health is one backend's liveness state as the fleet believes it.
// Draining is deliberately not a health state: it is operator intent,
// tracked orthogonally, so a machine can be drained-and-healthy or
// suspect-and-not-drained.
type Health uint8

const (
	// Healthy members answer probes and accept admissions.
	Healthy Health = iota
	// Suspect members missed enough consecutive probes to stop receiving
	// new admissions, but keep their tenants; one answered probe restores
	// them to Healthy.
	Suspect
	// Dead members exhausted their probe misses: they receive no backend
	// calls, their tenants are failed over, and only Revive readmits them.
	Dead
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// The health state machine's thresholds, in consecutive missed probes: at
// suspectAfter a healthy member turns suspect (stops receiving admissions), at
// deadAfter it is declared dead and its tenants failed over.
const (
	suspectAfter = 2
	deadAfter    = 5
)

// HealthConfig tunes the automatic failover pass; the zero value selects the
// calibrated default.
type HealthConfig struct {
	// FailoverBudgetSeconds is the migration-seconds budget of the
	// automatic failover pass run on the healthy→dead transition:
	// 0 selects the default 300, a negative value removes the budget
	// (every tenant with a healthy destination is moved).
	FailoverBudgetSeconds float64
}

func (c HealthConfig) failoverBudget() float64 {
	switch {
	case c.FailoverBudgetSeconds < 0:
		return math.Inf(1)
	case c.FailoverBudgetSeconds == 0:
		return 300
	default:
		return c.FailoverBudgetSeconds
	}
}

// HealthOf returns the named backend's current health state; ok is false
// for backends the fleet is not serving.
func (f *Fleet) HealthOf(name string) (Health, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byName[name]
	if !ok {
		return 0, false
	}
	return m.health, true
}

// setHealthLocked moves m to health state to with the given miss count: a
// change of either commits a RecHealth (from == to when only the count
// changes, so a replayed miss counts like a live one). A return from Dead is
// only logged here; Revive books it with its RecRevive. Callers hold f.mu.
func (f *Fleet) setHealthLocked(m *member, to Health, misses int) {
	from := m.health
	if from == to && misses == m.misses {
		return
	}
	f.commitLocked(f.bookLocked(&Record{Type: RecHealth, ID: -1, Backend: m.name,
		FromHealth: from, ToHealth: to, Misses: misses}, m, nil, nil))
	f.healthMovedLocked(m, from)
}

// healthMovedLocked brings the routing index up to m's health after a change
// from from, if there was one: m is re-listed — a revived machine's free count
// is read again here, after its fence. Callers hold f.mu.
func (f *Fleet) healthMovedLocked(m *member, from Health) {
	if m.health == from {
		return
	}
	if from == Dead || m.health == Dead {
		// Its tenants hold their failure domain only while it is not dead.
		delta := int32(+1)
		if m.health == Dead {
			delta = -1
		}
		for _, rec := range f.tenantsOfLocked(m) {
			f.occLocked(rec.w.Name)[m.dom] += delta
		}
	}
	f.relistLocked(m)
}

// Heartbeat records one answered probe from the named backend: the miss
// counter resets and a suspect member is restored to Healthy (a healthy
// member with no misses commits nothing, so steady probing logs nothing). A dead
// member stays dead and fails with ErrBackendDown — a machine the fleet
// has already failed over must be explicitly Revived (which fences its
// stale state) before it serves again.
func (f *Fleet) Heartbeat(name string) (h Health, err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return 0, fmt.Errorf("fleet: heartbeat from %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.health == Dead {
		return Dead, fmt.Errorf("fleet: heartbeat from %s: %w (Revive to rejoin)", name, nperr.ErrBackendDown)
	}
	f.setHealthLocked(m, Healthy, 0)
	return Healthy, nil
}

// MissProbe records one missed probe deadline for the named backend and
// advances its health state machine: two consecutive misses turn a healthy
// member suspect (no new admissions), five declare it dead. Every miss
// commits a RecHealth, from == to while the state holds. The suspect→dead
// transition runs the automatic failover pass under
// Config.Health.FailoverBudgetSeconds and returns its report; the error then
// carries ErrNoHealthyBackend if any tenant was stranded. Missed probes on an
// already-dead member are no-ops.
func (f *Fleet) MissProbe(ctx context.Context, name string) (h Health, rep *Report, err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return 0, nil, fmt.Errorf("fleet: missed probe on %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.health == Dead {
		return Dead, nil, nil
	}
	misses, to := m.misses+1, m.health
	switch {
	case misses >= deadAfter:
		to = Dead
	case misses >= suspectAfter:
		to = Suspect
	}
	f.setHealthLocked(m, to, misses)
	if to == Dead {
		rep, err := f.failoverLocked(ctx, m, f.cfg.Health.failoverBudget())
		return Dead, rep, err
	}
	return to, nil, nil
}

// Fail declares the named backend dead immediately — crash injection, or
// an operator acting on out-of-band knowledge — and runs the automatic
// failover pass under Config.Health.FailoverBudgetSeconds, rehoming its
// tenants onto the healthy remainder. Tenants that cannot be rehomed are
// reported stranded (the error wraps ErrNoHealthyBackend) and stay on the
// fleet's books for retry. An already-dead backend fails with
// ErrBackendDown; the partial failover report is returned alongside any
// error, like Rebalance.
func (f *Fleet) Fail(ctx context.Context, name string) (rep *Report, err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: failing %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.health == Dead {
		return nil, fmt.Errorf("fleet: failing %s: already %w", name, nperr.ErrBackendDown)
	}
	f.setHealthLocked(m, Dead, deadAfter)
	return f.failoverLocked(ctx, m, f.cfg.Health.failoverBudget())
}

// Failover runs one manual recovery pass for a dead backend, retrying any
// tenants still stranded on it (capacity may have freed since the
// automatic pass). budgetSeconds bounds the migration time spent; a
// non-positive budget removes the bound. Failing over a live backend is
// an error — Drain is the graceful path.
func (f *Fleet) Failover(ctx context.Context, name string, budgetSeconds float64) (rep *Report, err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: failover of %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.health != Dead {
		return nil, fmt.Errorf("fleet: failover of %s: %w (%s; Drain for a graceful move)", name, nperr.ErrBackendAlive, m.health)
	}
	if budgetSeconds <= 0 {
		budgetSeconds = math.Inf(1)
	}
	return f.failoverLocked(ctx, m, budgetSeconds)
}

// failoverLocked rehomes every tenant of the dead member src onto the
// healthy remainder of the fleet, spending at most budgetSeconds of
// simulated migration time. Tenants evacuateLocked leaves behind stay mapped
// to the dead member, and the returned error wraps ErrNoHealthyBackend (plus
// every destination rejection, for errors.Is) — the partial report always
// rides along. Callers hold f.mu; src.health is already Dead, so moveLocked
// skips the unreachable source-side Release.
func (f *Fleet) failoverLocked(ctx context.Context, src *member, budgetSeconds float64) (*Report, error) {
	rep := &Report{BudgetSeconds: budgetSeconds}
	defer f.summarizeLocked(RecFailover, src.name, rep)
	var destErrs []error
	if err := f.evacuateLocked(ctx, rep, src, budgetSeconds, &destErrs, true); err != nil {
		return rep, err
	}
	if rep.Stranded > 0 {
		return rep, fmt.Errorf("fleet: failover of %s: %d of %d tenants stranded: %w",
			src.name, rep.Stranded, rep.Examined, errors.Join(append(destErrs, nperr.ErrNoHealthyBackend)...))
	}
	return rep, nil
}

// fenceLocked releases every engine-side record on m that the fleet does not
// map to it and returns how many it released; when a release fails, orphan
// is its backend-local ID. It is the one fencing pass, run by Revive and
// re-run by its replay. Callers hold f.mu.
func (f *Fleet) fenceLocked(ctx context.Context, m *member) (fenced, orphan int, err error) {
	mapped := map[int]bool{}
	for _, rec := range f.tenantsOfLocked(m) {
		mapped[rec.engineID] = true
	}
	b := f.backendLocked(m)
	for _, a := range b.Assignments() {
		if mapped[a.ID] {
			continue
		}
		if err := b.Release(ctx, a.ID); err != nil {
			return fenced, a.ID, err
		}
		fenced++
	}
	return fenced, 0, nil
}

// Revive readmits a dead backend once the machine is reachable again. The
// backend's books are fenced first: every engine-side assignment the
// fleet no longer maps to this member (tenants failed over, or released,
// while it was dead) is released, so the rejoining machine frees the
// capacity of containers that no longer run there. Tenants still mapped
// here — stranded ones no failover pass could rehome — are kept; they were
// running on the partitioned machine all along. Returns the number of fenced
// orphans. Reviving a live backend is an error; a fencing failure leaves the
// backend dead so the next Revive retries a clean fence.
func (f *Fleet) Revive(ctx context.Context, name string) (fencedOut int, err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return 0, fmt.Errorf("fleet: reviving %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.health != Dead {
		return 0, fmt.Errorf("fleet: reviving %s: %w (%s)", name, nperr.ErrBackendAlive, m.health)
	}
	fenced, orphan, err := f.fenceLocked(ctx, m)
	if err != nil {
		return fenced, fmt.Errorf("fleet: reviving %s: fencing orphan %d: %w", name, orphan, err)
	}
	// The health record books nothing: the RecRevive restores health, and
	// replay re-runs the fencing pass against the reconstructed engine books
	// before booking it (Fenced kept for audit).
	f.setHealthLocked(m, Healthy, 0)
	f.commitLocked(f.bookLocked(&Record{Type: RecRevive, ID: -1, Backend: name, Fenced: fenced}, m, nil, nil))
	f.healthMovedLocked(m, Dead)
	return fenced, nil
}
