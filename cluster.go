package numaplace

import "repro/internal/fleet"

// Cluster is the fleet serving layer: a concurrency-safe set of named
// machines over heterogeneous hardware behind one routing policy. The
// paper's model places containers on a single NUMA box; its §3 target
// environment is a datacenter operator packing containers across many —
// Cluster supplies that layer, routing each admission to a machine per the
// configured policy, rebalancing tenants across machines under a
// migration-seconds budget (cross-machine moves are modeled as
// fast-mechanism memory copies), and draining machines gracefully for
// removal. It is internal/fleet's Fleet under its public name: Add takes
// any fleet.Backend, and Engine is the production one.
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
type Cluster = fleet.Fleet

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
func NewCluster(cfg ClusterConfig) *Cluster { return fleet.New(cfg) }
