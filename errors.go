package numaplace

import "repro/internal/nperr"

// Sentinel errors returned (wrapped, with context) by the Engine and the
// Cluster. Match them with errors.Is:
//
//	if errors.Is(err, numaplace.ErrMachineFull) { backoffAndRetry() }
//
// Every failure class that callers can meaningfully branch on has a
// sentinel; remaining errors are genuine programming or configuration
// mistakes whose message is the interface.
var (
	// ErrInfeasible: the requested vCPU count has no balanced feasible
	// placement on the machine (Placements, Pin, Place).
	ErrInfeasible = nperr.ErrInfeasible

	// ErrUntrained: a prediction or model-driven placement was requested
	// before a predictor was trained or registered for that container
	// size (Predict, Place, the ML packing policy).
	ErrUntrained = nperr.ErrUntrained

	// ErrMachineMismatch: a predictor or dataset does not belong to this
	// Engine's machine or container size (Train, Place,
	// NewPackingExperiment).
	ErrMachineMismatch = nperr.ErrMachineMismatch

	// ErrMachineFull: the free NUMA nodes cannot host another container
	// (Place, the packing policies).
	ErrMachineFull = nperr.ErrMachineFull

	// ErrUnknownContainer: Release was called with an ID the Engine is
	// not serving.
	ErrUnknownContainer = nperr.ErrUnknownContainer

	// ErrBadObservation: a non-positive throughput observation was fed to
	// a predictor.
	ErrBadObservation = nperr.ErrBadObservation

	// ErrFleetFull: no machine in the Cluster admitted the container
	// (Cluster.Place, Cluster.Drain). The per-machine rejections are
	// joined in, so errors.Is also matches their causes.
	ErrFleetFull = nperr.ErrFleetFull

	// ErrUnknownBackend: a Cluster operation named a machine the cluster
	// is not serving (Drain, Resume, Remove).
	ErrUnknownBackend = nperr.ErrUnknownBackend

	// ErrBackendNotEmpty: Cluster.Remove was called on a machine still
	// serving tenants; Drain it first.
	ErrBackendNotEmpty = nperr.ErrBackendNotEmpty

	// ErrBackendDown: the operation needs a live machine but the named
	// one has been declared dead by the cluster's health tracking
	// (Heartbeat, Drain, Fail on an already-dead machine). Revive it once
	// it is reachable again; until then, back off rather than retry.
	ErrBackendDown = nperr.ErrBackendDown

	// ErrBackendAlive: Failover or Revive named a machine the cluster
	// holds live; both act only on a dead one (Drain is the graceful
	// path off a live machine).
	ErrBackendAlive = nperr.ErrBackendAlive

	// ErrNoHealthyBackend: no healthy, accepting machine could host the
	// container — returned by Place when every machine is dead, suspect
	// or draining, and joined into Failover/Fail errors for tenants left
	// stranded on a dead machine. Stranded tenants stay on the cluster's
	// books and are retried by later Failover or Rebalance passes, so
	// callers should back off and retry rather than re-create them.
	ErrNoHealthyBackend = nperr.ErrNoHealthyBackend
)
