package numaplace

import (
	"context"

	"repro/internal/fleet"
)

// Cluster is the fleet serving layer: a concurrency-safe set of named
// Engines over heterogeneous machines behind one routing policy. The
// paper's model places containers on a single NUMA box; its §3 target
// environment is a datacenter operator packing containers across many —
// Cluster supplies that layer, routing each admission to a machine per the
// configured policy, rebalancing tenants across machines under a
// migration-seconds budget (cross-machine moves are modeled as
// fast-mechanism memory copies), and draining machines gracefully for
// removal.
//
//	cl := numaplace.NewCluster(numaplace.ClusterConfig{Policy: numaplace.RouteBestPredicted})
//	cl.Add("amd-0", amdEngine)       // engines trained separately, any machines
//	cl.Add("intel-0", intelEngine)
//	a, _ := cl.Place(ctx, workload, 16)   // routed to the best machine
//	cl.Rebalance(ctx, 120)                // re-pack, spending <= 120 migration-seconds
//	cl.Drain(ctx, "amd-0")                // rehome tenants, stop admissions
//	cl.Remove("amd-0")                    // detach the emptied machine
//	cl.Release(ctx, a.ID)
//
// Lock ordering: the cluster lock is always taken before any Engine lock
// and Engines never call back into the cluster, so the order is
// one-directional. Every call that changes the cluster — Place included —
// is one hold of that lock across its Engine calls, so Rebalance and Drain
// are atomic fleet-wide passes: concurrent admissions wait rather than
// interleave with a half-applied re-packing.
type Cluster struct {
	f *fleet.Fleet
}

// Cluster-layer types and policies, re-exported from internal/fleet.
type (
	// ClusterConfig tunes a Cluster (routing policy, drain threshold,
	// health thresholds, domain spread).
	ClusterConfig = fleet.Config
	// ClusterPolicy selects how Place routes admissions.
	ClusterPolicy = fleet.Policy
	// ClusterAssignment describes one fleet admission: the fleet-wide
	// container ID, the serving machine, and its local assignment.
	ClusterAssignment = fleet.Admission
	// ClusterReport summarizes one cluster Rebalance or Drain pass.
	ClusterReport = fleet.Report
	// ClusterMove records one cross-machine migration.
	ClusterMove = fleet.Move
	// ClusterStats aggregates fleet counters and per-machine occupancy.
	ClusterStats = fleet.Stats
	// ClusterBackendStats is one machine's slice of ClusterStats, health
	// state and failure-domain label included.
	ClusterBackendStats = fleet.BackendStats
	// ClusterDomainStats aggregates occupancy per failure domain.
	ClusterDomainStats = fleet.DomainStats
	// ClusterAddOption configures one machine at Add time (see InDomain).
	ClusterAddOption = fleet.AddOption
	// ClusterHealth is one machine's liveness state (ClusterHealthy,
	// ClusterSuspect, ClusterDead) as tracked by the cluster.
	ClusterHealth = fleet.Health
	// ClusterHealthConfig tunes the migration budget of the automatic
	// failover pass that a machine's death runs.
	ClusterHealthConfig = fleet.HealthConfig
	// ClusterSubscription is one bounded subscriber of the event feed:
	// events buffer in a fixed ring, the oldest dropped (and counted) when
	// the subscriber falls behind — publishing never blocks admissions.
	ClusterSubscription = fleet.Subscription
)

// Routing policies for ClusterConfig.Policy.
const (
	// RouteFirstFit admits on the first machine (in Add order) that
	// accepts the container.
	RouteFirstFit = fleet.FirstFit
	// RouteLeastLoaded admits on the machine with the lowest node
	// utilization that accepts.
	RouteLeastLoaded = fleet.LeastLoaded
	// RouteBestPredicted admits where the trained predictor promises the
	// highest performance, scoring each machine from its model's class row
	// (Engine.ScoreClass) rather than previewing it.
	RouteBestPredicted = fleet.BestPredicted
)

// Machine health states for ClusterBackendStats.Health and the health
// API. Healthy machines accept admissions; suspect ones (missed probes)
// keep their tenants but stop receiving new ones; dead ones receive no
// calls at all — their tenants are failed over and only Revive readmits
// them.
const (
	ClusterHealthy = fleet.Healthy
	ClusterSuspect = fleet.Suspect
	ClusterDead    = fleet.Dead
)

// ClusterPolicyByName resolves the CLI-style policy names ("first-fit",
// "least-loaded", "best-predicted").
func ClusterPolicyByName(name string) (ClusterPolicy, bool) {
	return fleet.PolicyByName(name)
}

// InDomain labels a machine with a failure domain at Add time (a rack, a
// zone — any unit of correlated failure). Domain labels feed the
// ClusterConfig.SpreadDomains routing preference (replicas of one
// workload land in distinct domains while room exists) and the
// per-domain slice of Stats.
func InDomain(domain string) ClusterAddOption { return fleet.InDomain(domain) }

// NewCluster builds an empty cluster; add machines with Add.
func NewCluster(cfg ClusterConfig) *Cluster {
	return &Cluster{f: fleet.New(cfg)}
}

// Add registers an Engine under a unique machine name, optionally
// labeling it with a failure domain (InDomain). The Engine should carry
// trained (or registered) predictors for the container sizes the cluster
// will serve; untrained sizes simply fail admission on that machine and
// routing falls through to the others. Machines start healthy.
func (c *Cluster) Add(name string, e *Engine, opts ...ClusterAddOption) error {
	return c.f.Add(name, e, opts...)
}

// Engine returns the Engine registered under name.
func (c *Cluster) Engine(name string) (*Engine, bool) {
	b, ok := c.f.Backend(name)
	if !ok {
		return nil, false
	}
	return b.(*Engine), true
}

// Names returns the machine names in Add order.
func (c *Cluster) Names() []string { return c.f.Names() }

// Len returns the number of containers currently served cluster-wide.
func (c *Cluster) Len() int { return c.f.Len() }

// Place admits one container onto the cluster, routed per the configured
// policy; when a machine rejects (full, untrained size), routing falls
// through to the next candidate. It fails with ErrFleetFull — carrying
// every machine's rejection — when no machine admits the container. The
// admission is returned by value and a warm one allocates nothing. A refusal
// returns the zero ClusterAssignment; an admission committed in memory whose
// log commit failed returns the whole assignment beside the error.
func (c *Cluster) Place(ctx context.Context, w Workload, vcpus int) (ClusterAssignment, error) {
	return c.f.Place(ctx, w, vcpus)
}

// Release evicts a container by its fleet-wide ID (ClusterAssignment.ID),
// wherever it currently runs. Unknown IDs fail with ErrUnknownContainer.
func (c *Cluster) Release(ctx context.Context, id int) error {
	return c.f.Release(ctx, id)
}

// Rebalance runs one fleet-wide re-packing pass under a budgetSeconds
// migration-time budget: each machine's own intra-machine rebalance
// first, then consolidation — tenants of machines utilized below
// ClusterConfig.DrainBelow (and of draining machines, regardless of
// utilization) move onto busier machines as fast-mechanism copies. A
// cross-machine move is committed only if it fits the remaining budget;
// an intra-machine pass is started only while budget remains, but its
// cost is known only afterwards, so the final intra pass may overshoot
// (see ClusterReport.TotalSeconds vs BudgetSeconds). On error the report
// of work already committed is returned alongside it.
func (c *Cluster) Rebalance(ctx context.Context, budgetSeconds float64) (*ClusterReport, error) {
	return c.f.Rebalance(ctx, budgetSeconds)
}

// Drain closes the named machine for admissions and rehomes every tenant
// it serves onto the remaining machines (unbudgeted). Tenants nothing else
// can host stay, reported via an error wrapping ErrFleetFull; the machine
// stays draining either way. Resume reopens it; Remove detaches it once
// empty.
func (c *Cluster) Drain(ctx context.Context, name string) (*ClusterReport, error) {
	return c.f.Drain(ctx, name)
}

// Resume reopens a drained machine for admissions.
func (c *Cluster) Resume(name string) error { return c.f.Resume(name) }

// Remove detaches an empty machine from the cluster (ErrBackendNotEmpty
// if it still serves tenants — Drain first).
func (c *Cluster) Remove(name string) error { return c.f.Remove(name) }

// Assignments snapshots every container served cluster-wide in ascending
// fleet-ID order. Tenants stranded on a dead machine are included with
// their last recorded assignment — a machine death never drops a record
// from the snapshot.
func (c *Cluster) Assignments() []ClusterAssignment { return c.f.Assignments() }

// Stats aggregates the cluster's admission counters, migration spend,
// per-machine occupancy (health state included) and per-failure-domain
// occupancy. Dead machines contribute no capacity until revived.
func (c *Cluster) Stats() ClusterStats { return c.f.Stats() }

// HealthOf returns the named machine's health state; ok is false for
// machines the cluster is not serving.
func (c *Cluster) HealthOf(name string) (ClusterHealth, bool) { return c.f.HealthOf(name) }

// Heartbeat records one answered liveness probe: the machine's miss count
// resets and a suspect machine returns to healthy. Dead machines stay
// dead (ErrBackendDown) until Revive.
func (c *Cluster) Heartbeat(name string) (ClusterHealth, error) { return c.f.Heartbeat(name) }

// MissProbe records one missed probe deadline and advances the health
// state machine: two consecutive misses close the machine for
// admissions, five declare it dead — which
// triggers the automatic failover pass, whose report is returned. The
// error then wraps ErrNoHealthyBackend if any tenant was left stranded.
func (c *Cluster) MissProbe(ctx context.Context, name string) (ClusterHealth, *ClusterReport, error) {
	return c.f.MissProbe(ctx, name)
}

// Fail declares a machine dead immediately — crash injection, or an
// operator acting on out-of-band knowledge — and runs the automatic
// failover pass, rehoming its tenants onto the healthy remainder within
// ClusterHealthConfig.FailoverBudgetSeconds. Tenants that cannot be
// rehomed are reported stranded (error wraps ErrNoHealthyBackend) and
// stay on the cluster's books for retry.
func (c *Cluster) Fail(ctx context.Context, name string) (*ClusterReport, error) {
	return c.f.Fail(ctx, name)
}

// Failover manually retries recovery for a dead machine's stranded
// tenants under a fresh budget (non-positive = unbudgeted). Capacity may
// have freed since the automatic pass ran.
func (c *Cluster) Failover(ctx context.Context, name string, budgetSeconds float64) (*ClusterReport, error) {
	return c.f.Failover(ctx, name, budgetSeconds)
}

// Revive readmits a dead machine once it is reachable again, first
// fencing its stale books: every engine-side record the cluster no
// longer maps there (tenants failed over in the meantime) is released,
// so the rejoining machine frees capacity containers now running
// elsewhere. Returns the number of fenced records.
func (c *Cluster) Revive(ctx context.Context, name string) (int, error) {
	return c.f.Revive(ctx, name)
}

// Subscribe opens a bounded subscription to the cluster's event feed
// (admissions, releases, moves, health transitions, pass summaries). The
// ring holds up to buf events; a subscriber that falls behind loses its
// oldest events — counted, never blocking the admission path. Close the
// subscription when done.
func (c *Cluster) Subscribe(buf int) *ClusterSubscription { return c.f.Subscribe(buf) }

// Fleet exposes the underlying fleet for serving layers (the wire daemon)
// that operate on it directly.
func (c *Cluster) Fleet() *fleet.Fleet { return c.f }
