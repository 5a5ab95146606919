// Package nperr defines the sentinel errors shared by the numaplace
// pipeline. Internal packages wrap them with context via fmt.Errorf("…: %w",
// …) and the public facade re-exports them, so callers can branch on failure
// classes with errors.Is/errors.As instead of matching message strings.
//
// The package is a leaf (no repro imports) so every layer — placement
// enumeration, training, the packing policies, the serving engine — can
// depend on it without cycles.
package nperr

import "errors"

var (
	// ErrInfeasible marks placement requests no balanced feasible
	// placement can satisfy (vCPU count incompatible with the machine's
	// concern capacities, or non-positive).
	ErrInfeasible = errors.New("infeasible placement request")

	// ErrUntrained marks prediction or model-driven scheduling attempted
	// without a trained predictor for the requested container size.
	ErrUntrained = errors.New("no trained predictor")

	// ErrMachineMismatch marks artifacts combined across machines or
	// container sizes they were not built for (e.g. a predictor whose
	// placement count differs from the machine's enumeration).
	ErrMachineMismatch = errors.New("machine/artifact mismatch")

	// ErrMachineFull marks admission attempts the machine's free nodes
	// cannot host.
	ErrMachineFull = errors.New("machine full")

	// ErrUnknownContainer marks lifecycle operations on container IDs the
	// scheduler is not tracking.
	ErrUnknownContainer = errors.New("unknown container")

	// ErrBadObservation marks non-positive or otherwise unusable
	// performance observations fed to a predictor.
	ErrBadObservation = errors.New("invalid performance observation")

	// ErrFleetFull marks fleet admissions no backend machine could host
	// (every candidate rejected the container). The joined per-backend
	// errors ride along, so errors.Is also matches the underlying causes
	// (e.g. ErrMachineFull, ErrUntrained).
	ErrFleetFull = errors.New("no fleet backend admitted the container")

	// ErrUnknownBackend marks fleet operations naming a backend the fleet
	// is not serving (never added, or already removed).
	ErrUnknownBackend = errors.New("unknown fleet backend")

	// ErrBackendNotEmpty marks removal of a fleet backend that still
	// serves tenants; drain it first.
	ErrBackendNotEmpty = errors.New("fleet backend still serving tenants")

	// ErrBackendDown marks operations that need a live backend invoked on
	// one the fleet has declared dead (its health state machine ran out of
	// probe misses). The machine takes no admissions and receives no
	// backend calls until it is revived.
	ErrBackendDown = errors.New("fleet backend is down")

	// ErrBackendAlive marks operations that need a dead backend — a manual
	// failover pass, a revival — invoked on one the fleet holds live.
	// Nothing changes until the machine dies, so retrying is pointless.
	ErrBackendAlive = errors.New("fleet backend is alive")

	// ErrNoHealthyBackend marks fresh admissions made while every backend
	// is dead, suspect or draining (a fleet of accepting backends that are
	// merely full is ErrFleetFull alone), and failover re-placements off a
	// dead machine that no healthy, accepting backend could host. Tenants a failover pass reports stranded carry
	// it; they stay on the fleet's books and are retried by later failover
	// or rebalance passes.
	ErrNoHealthyBackend = errors.New("no healthy fleet backend available")

	// ErrLogCorrupt marks durable fleet state that cannot be recovered:
	// a snapshot or log frame whose checksum verifies but whose contents
	// are structurally invalid, or replay records inconsistent with the
	// machines they name (unknown backend, occupied nodes, duplicate IDs).
	// A torn log tail is NOT corruption — recovery truncates it to the
	// last valid frame; ErrLogCorrupt means the prefix itself is unusable
	// and a daemon must refuse to start rather than serve wrong state.
	ErrLogCorrupt = errors.New("fleet log corrupt")

	// ErrLogClosed marks appends or commits against a write-ahead log that
	// has been closed (daemon shutdown already flushed and sealed it).
	ErrLogClosed = errors.New("fleet log closed")
)
