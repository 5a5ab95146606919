// Package numaplace is the public facade of this reproduction of
// "Placement of Virtual Containers on NUMA systems: A Practical and
// Comprehensive Model" (Funston et al., USENIX ATC 2018).
//
// The primary API is the long-lived, concurrency-safe Engine, which owns
// memoized caches for the expensive pipeline artifacts and serves both the
// batch lifecycle and an online placement scheduler:
//
//	eng := numaplace.New(numaplace.AMD())
//	placements, _ := eng.Placements(ctx, 16)     // Step 2: memoized
//	ds, _ := eng.Collect(ctx, ws, 16)            // Step 3: training runs
//	pred, _ := eng.Train(ctx, ds)                //         model (registered)
//	vec, _ := eng.Predict(16, perfA, perfB)      // Step 4: predict
//	a, _ := eng.Place(ctx, workload, 16)         // online: admit & pin
//	eng.Release(ctx, a.ID)                       //         evict
//	eng.Rebalance(ctx)                           //         re-pack
//
// Every Engine method takes a context.Context and is cancellable; failures
// callers can branch on wrap the sentinel errors in errors.go. See the
// examples/ directory for runnable programs and internal/… for the full
// implementation.
package numaplace

import (
	"io"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// Machine descriptions (paper §2 testbeds and §8 forward-looking systems).
var (
	AMD        = machines.AMD
	Intel      = machines.Intel
	Zen        = machines.Zen
	HaswellCoD = machines.HaswellCoD
)

// Machine bundles a topology and interconnect graph.
type Machine = machines.Machine

// MachineByName resolves the CLI-style machine names ("amd", "intel",
// "zen", "haswell-cod") to a machine description.
func MachineByName(name string) (Machine, bool) {
	switch name {
	case "amd":
		return AMD(), true
	case "intel":
		return Intel(), true
	case "zen":
		return Zen(), true
	case "haswell-cod":
		return HaswellCoD(), true
	default:
		return Machine{}, false
	}
}

// Spec is a machine's scheduling-concern specification (paper §4).
type Spec = concern.Spec

// Important is one important placement with its score vector.
type Important = placement.Important

// Placement is a class of vCPU-to-hardware mappings: a node set plus the
// sharing degree chosen for each enumerated per-node concern.
type Placement = placement.Placement

// Workload is a container's performance-sensitivity descriptor.
type Workload = perfsim.Workload

// PaperWorkloads returns the 18 applications of the paper's evaluation.
func PaperWorkloads() []Workload { return workloads.Paper() }

// WorkloadByName looks up a paper workload.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// Dataset holds ground-truth training executions.
type Dataset = core.Dataset

// CollectConfig configures ground-truth collection.
type CollectConfig = core.CollectConfig

// TrainConfig configures predictor training.
type TrainConfig = core.TrainConfig

// Predictor is the trained performance model (multi-output random forest
// over two placement observations).
type Predictor = core.Predictor

// LoadPredictor reads a predictor saved with Predictor.Save.
func LoadPredictor(r io.Reader) (*Predictor, error) { return core.LoadPredictor(r) }

// BestPlacement returns the fastest predicted placement index of a vector.
func BestPlacement(vec []float64) int { return core.BestPlacement(vec) }

// PackingExperiment is the §7 packing study for one machine and workload.
type PackingExperiment = sched.Experiment

// Packing policies (Figure 5).
const (
	PolicyML              = sched.ML
	PolicyConservative    = sched.Conservative
	PolicyAggressive      = sched.Aggressive
	PolicySmartAggressive = sched.SmartAggressive
)

// MigrationProfile describes a container's memory for migration.
type MigrationProfile = migrate.Profile

// MigrationProfileFor derives a migration profile from a workload.
func MigrationProfileFor(w Workload, vcpus int) MigrationProfile {
	return migrate.ProfileFor(w, vcpus)
}

// Migration mechanisms (Table 2).
const (
	MigrateDefaultLinux = migrate.DefaultLinux
	MigrateFast         = migrate.Fast
	MigrateThrottled    = migrate.Throttled
)
