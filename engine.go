package numaplace

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Engine is the long-lived, concurrency-safe serving layer over the
// paper's pipeline for one machine. It memoizes the expensive artifacts —
// the concern spec, important-placement enumerations, pinnings, and trained
// predictors — behind singleflight caches, so concurrent callers share one
// computation instead of repeating it, and every result is bit-identical to
// the uncached pipeline in internal/…. What depends only on the machine
// (enumerations, pinnings, and the scheduler's prepared observations and
// scored free sets) lives in the sched.Tables every engine of the machine's
// model shares. On top of the batch lifecycle (Placements, Pin, Collect,
// Train, Predict) it serves an incremental admit/evict scheduler: Place,
// Release and Rebalance.
//
// All methods are safe for concurrent use. Methods returning cached slices
// hand each caller its own copy of the slice header; the Important values
// inside are shared and must be treated as read-only.
//
// An Engine must not be copied after first use (it contains locks; go vet's
// copylocks check enforces this).
type Engine struct {
	machine Machine
	fp      uint64
	spec    *Spec
	tables  *sched.Tables
	stats   sched.Stats

	collectCfg CollectConfig
	trainCfg   TrainConfig
	serveCfg   ServeConfig

	// The predictor registry is read once per Place, and once per machine
	// per fleet routing decision to name the engine's score class: it is
	// one immutable list behind an atomic pointer, replaced under mu. An
	// engine serves a handful of container sizes, and scanning that many
	// entries costs a fraction of a map probe.
	mu         sync.Mutex
	predictors atomic.Pointer[[]sizePredictor]
	// classEpoch is the counter of the Cluster the engine was added to,
	// bumped after every store to predictors (NotifyClassChange).
	classEpoch atomic.Pointer[atomic.Uint64]
	// scheduler serves Place and the rest of the online lifecycle. Its caches
	// are the table set's, so building it at New costs its books alone.
	scheduler *sched.Scheduler
}

// tableSets holds one sched.Tables per Machine.Fingerprint for the life of
// the process, so that engines of one model share them and a machine of a
// model seen before arrives warm. A set names no predictor, so keeping it
// keeps no trained model alive.
var tableSets sync.Map // uint64 -> *sched.Tables

// sizePredictor is one registry entry: the predictor serving a size.
type sizePredictor struct {
	vcpus int
	pred  *Predictor
}

// Serving-layer types, re-exported from internal/sched.
type (
	// ServeConfig tunes the online admit/evict scheduler.
	ServeConfig = sched.ServeConfig
	// Assignment describes one admitted container.
	Assignment = sched.Assignment
	// RebalanceReport summarizes one Rebalance pass.
	RebalanceReport = sched.RebalanceReport
	// RebalanceMove records one container migration during Rebalance.
	RebalanceMove = sched.RebalanceMove
	// PlacePreview estimates the admission Place would make right now.
	PlacePreview = sched.Preview
	// RestoreRecord is one committed admission as recorded by a fleet
	// write-ahead log, replayed through Adopt.
	RestoreRecord = sched.Restore
)

// Option configures an Engine at construction.
type Option func(*Engine)

// WithPredictor registers a trained predictor for the given container
// size, e.g. one loaded from disk with LoadPredictor. Place and Predict
// consult the registry.
func WithPredictor(vcpus int, p *Predictor) Option {
	return func(e *Engine) { e.setPredictor(vcpus, p) }
}

// WithCollectConfig sets the ground-truth collection configuration used by
// Engine.Collect.
func WithCollectConfig(cfg CollectConfig) Option {
	return func(e *Engine) { e.collectCfg = cfg }
}

// WithTrainConfig sets the training configuration used by Engine.Train.
func WithTrainConfig(cfg TrainConfig) Option {
	return func(e *Engine) { e.trainCfg = cfg }
}

// WithServeConfig tunes the online scheduler (its performance goal
// fraction).
func WithServeConfig(cfg ServeConfig) Option {
	return func(e *Engine) { e.serveCfg = cfg }
}

// New builds an Engine for the machine. The concern specification is
// derived immediately (it is cheap); everything expensive is computed
// lazily, once per machine model, on first use.
func New(m Machine, opts ...Option) *Engine {
	e := &Engine{machine: m, fp: m.Fingerprint()}
	for _, opt := range opts {
		opt(e)
	}
	e.spec = concern.FromMachine(m)
	t, ok := tableSets.Load(e.fp)
	if !ok {
		t, _ = tableSets.LoadOrStore(e.fp, sched.NewTables(e.spec))
	}
	e.tables = t.(*sched.Tables)
	e.scheduler = sched.NewSharedScheduler(e.tables, &e.stats, e.predictorOrNil, e.serveCfg)
	return e
}

// Machine returns the machine this Engine serves.
func (e *Engine) Machine() Machine { return e.machine }

// Fingerprint returns the machine's structural fingerprint (the key of the
// table set this Engine shares with the engines of its machine model).
func (e *Engine) Fingerprint() uint64 { return e.fp }

// Spec returns the machine's concern specification (Step 1). The returned
// value is shared and must be treated as read-only.
func (e *Engine) Spec() *Spec { return e.spec }

// Placements returns the machine's important placements for a container
// size (Step 2). The first call per vCPU count on the machine's model
// enumerates; concurrent callers of the same size join the in-flight
// computation (singleflight) and later calls hit the cache. An already
// cancelled ctx fails even on a hit. The returned slice is the caller's
// own; its elements are shared and read-only.
func (e *Engine) Placements(ctx context.Context, vcpus int) ([]Important, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	imps, err := e.tables.Placements(ctx, vcpus, &e.stats)
	if err != nil {
		return nil, err
	}
	return slices.Clone(imps), nil
}

// Pin materializes a placement into a vCPU-to-hardware-thread assignment,
// memoizing the result per (placement, vCPU count). The returned slice is
// the caller's own copy.
func (e *Engine) Pin(ctx context.Context, p Placement, vcpus int) ([]topology.ThreadID, error) {
	threads, err := e.tables.Pin(ctx, p, vcpus, &e.stats)
	if err != nil {
		return nil, err
	}
	return slices.Clone(threads), nil
}

// Collect measures every workload in every important placement (Step 3's
// training runs), reusing the Engine's memoized enumeration. The
// collection honours ctx: cancellation between measurement cells returns
// ctx.Err() promptly.
func (e *Engine) Collect(ctx context.Context, ws []Workload, vcpus int) (*Dataset, error) {
	imps, err := e.tables.Placements(ctx, vcpus, &e.stats)
	if err != nil {
		return nil, err
	}
	return core.CollectPrepared(ctx, e.spec, imps, ws, vcpus, e.collectCfg)
}

// Train fits a predictor on the dataset (Step 3) using the Engine's
// training configuration and registers it for the dataset's container
// size, making it available to Predict and Place. Datasets collected on a
// different machine (or lacking one) fail with ErrMachineMismatch.
// Training honours ctx throughout the placement-pair search and
// cross-validation. A zero TrainConfig.Seed in the Engine's configuration
// trains with seed 1.
func (e *Engine) Train(ctx context.Context, ds *Dataset) (*Predictor, error) {
	cfg := e.trainCfg
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if ds.Machine.Topo == nil || ds.Machine.IC == nil || ds.Machine.Fingerprint() != e.fp {
		return nil, fmt.Errorf("numaplace: dataset was not collected on %s: %w",
			e.machine.Topo.Name, ErrMachineMismatch)
	}
	pred, err := core.Train(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	// Warm before the predictor becomes visible to the serving paths: the
	// first Place/Predict should not pay the one-time build.
	pred.Warm()
	e.setPredictor(ds.V, pred)
	return pred, nil
}

// UsePredictor registers a trained predictor for a container size (e.g.
// one loaded with LoadPredictor), replacing any previous registration.
// The predictor is warmed for serving if it was not already.
func (e *Engine) UsePredictor(vcpus int, p *Predictor) {
	p.Warm()
	e.setPredictor(vcpus, p)
}

// setPredictor publishes a copy of the registry with p serving vcpus.
func (e *Engine) setPredictor(vcpus int, p *Predictor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := []sizePredictor{{vcpus, p}}
	if old := e.predictors.Load(); old != nil {
		for _, sp := range *old {
			if sp.vcpus != vcpus {
				next = append(next, sp)
			}
		}
	}
	e.predictors.Store(&next)
	if epoch := e.classEpoch.Load(); epoch != nil {
		epoch.Add(1)
	}
}

// Predictor returns the registered predictor for a container size, or
// false if none has been trained or registered.
func (e *Engine) Predictor(vcpus int) (*Predictor, bool) {
	p := e.predictorOrNil(vcpus)
	return p, p != nil
}

func (e *Engine) predictorOrNil(vcpus int) *core.Predictor {
	if reg := e.predictors.Load(); reg != nil {
		for _, sp := range *reg {
			if sp.vcpus == vcpus {
				return sp.pred
			}
		}
	}
	return nil
}

// Predict returns the predicted performance vector for a container of the
// given size from its observed throughput in the registered predictor's
// Base and Probe placements (Step 4). It fails with ErrUntrained when no
// predictor covers vcpus.
func (e *Engine) Predict(vcpus int, perfBase, perfProbe float64) ([]float64, error) {
	p, ok := e.Predictor(vcpus)
	if !ok {
		return nil, fmt.Errorf("numaplace: predicting for %d vCPUs: %w", vcpus, ErrUntrained)
	}
	return p.Predict(perfBase, perfProbe)
}

// PredictInto is the allocation-free Predict for serving loops: it writes
// the predicted vector into dst, which must have one entry per important
// placement (len = Predictor.NumPlacements). Inference reads the
// predictor's interval table and performs no allocations per call.
func (e *Engine) PredictInto(dst []float64, vcpus int, perfBase, perfProbe float64) error {
	p, ok := e.Predictor(vcpus)
	if !ok {
		return fmt.Errorf("numaplace: predicting for %d vCPUs: %w", vcpus, ErrUntrained)
	}
	return p.PredictInto(dst, perfBase, perfProbe)
}

// Place admits one container of workload w with the given vCPU count into
// the machine: observe it in the predictor's two input placements, predict
// its full performance vector, and pin it to the cheapest placement class
// that meets the configured goal on the best free nodes. It fails with
// ErrUntrained without a predictor for vcpus, and ErrMachineFull when the
// free nodes cannot host the container. The assignment is a fresh
// allocation; PlaceInto writes it into a slot the caller owns instead.
func (e *Engine) Place(ctx context.Context, w Workload, vcpus int) (*Assignment, error) {
	return e.scheduler.Admit(ctx, w, vcpus)
}

// PlaceInto is Place writing the assignment into *dst: a warm admission
// allocates nothing, and a Cluster admits through it into the assignment it
// returns. A failed admission leaves *dst exactly as it was. See
// sched.Scheduler.AdmitInto.
func (e *Engine) PlaceInto(ctx context.Context, w Workload, vcpus int, dst *Assignment) error {
	return e.scheduler.AdmitInto(ctx, w, vcpus, dst)
}

// Preview estimates the admission Place would make for a container of
// workload w right now — the chosen class and its predicted performance
// against the current free nodes — without reserving anything. Cluster
// routing (the BestPredicted policy) scores engines from their class rows
// (ScoreClass, ScoreRow) and previews only a backend that has none.
// Previews draw a deterministic observation-noise stream from the workload
// identity, so they are repeatable and leave subsequent admissions
// bit-identical.
func (e *Engine) Preview(ctx context.Context, w Workload, vcpus int) (*PlacePreview, error) {
	return e.scheduler.Preview(ctx, w, vcpus)
}

// ScoreClass and ScoreRow let a Cluster score every machine of one model
// from a single row instead of previewing each: engines reporting equal
// classes for a size answer Preview identically at equal free-node counts,
// and a class's row holds that answer per count. The class is read per
// routing decision — a predictor swapped in by Train or UsePredictor changes
// it on the next one — and ok is false when Preview must be asked instead
// (no predictor for the size). See sched.Scheduler.ScoreClass / ScoreRow.
func (e *Engine) ScoreClass(vcpus int) (class sched.ScoreClass, ok bool) {
	return e.scheduler.ScoreClass(vcpus)
}

// NotifyClassChange registers the counter the engine adds to after every
// change of what ScoreClass answers — a predictor registered, by Train or
// UsePredictor — so that a Cluster can keep the class it read, and the order
// it ranked from the class's rows, instead of asking per decision; nil
// unregisters. ScoreRow needs no notification of its own: a class's rows are
// a function of the class. One counter at a time: an engine serves one
// cluster.
func (e *Engine) NotifyClassChange(epoch *atomic.Uint64) { e.classEpoch.Store(epoch) }

func (e *Engine) ScoreRow(ctx context.Context, w Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error) {
	return e.scheduler.ScoreRow(ctx, w, vcpus, class)
}

// Release evicts a previously placed container and returns its nodes to
// the free pool. Unknown IDs fail with ErrUnknownContainer.
func (e *Engine) Release(ctx context.Context, id int) error {
	return e.scheduler.Release(ctx, id)
}

// Rebalance re-plans every admitted container against the nodes freed by
// departures, migrating (with the paper's fast mechanism, cost-accounted
// in the report) those that can now run in a strictly better placement.
func (e *Engine) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	return e.scheduler.Rebalance(ctx)
}

// Assignments returns a snapshot of all currently placed containers in
// admission order.
func (e *Engine) Assignments() []Assignment {
	return e.scheduler.Assignments()
}

// Assignment returns the current assignment of one placed container by
// its Engine-local ID; ok is false for IDs the Engine is not serving. The
// cluster layer uses it to resolve individual fleet-wide IDs without
// snapshotting every tenant.
func (e *Engine) Assignment(id int) (Assignment, bool) {
	return e.scheduler.Assignment(id)
}

// FreeNodes returns the node set not allocated to any placed container.
func (e *Engine) FreeNodes() topology.NodeSet {
	return e.scheduler.Free()
}

// Adopt installs one previously committed admission during recovery
// replay: the recorded placement decision is taken as decided and the
// derived artifacts (prediction vector, goal, thread pinning) are
// recomputed deterministically, so the adopted tenant is bit-identical to
// the one the original Place produced. See sched.Scheduler.Adopt.
func (e *Engine) Adopt(ctx context.Context, r RestoreRecord) (*Assignment, error) {
	return e.scheduler.Adopt(ctx, r)
}

// ApplyMove re-pins an admitted container to a previously committed
// intra-machine rebalance decision without re-running the move search.
// See sched.Scheduler.ApplyMove.
func (e *Engine) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	return e.scheduler.ApplyMove(ctx, id, classID, nodes)
}

// NewPackingExperiment builds a §7 packing experiment (Figure 5) for one
// workload, reusing the Engine's memoized spec and enumeration. A nil pred
// uses the predictor registered for vcpus, if any (non-ML policies run
// without one).
func (e *Engine) NewPackingExperiment(ctx context.Context, w Workload, vcpus int, pred *Predictor) (*PackingExperiment, error) {
	if pred == nil {
		pred, _ = e.Predictor(vcpus)
	}
	imps, err := e.tables.Placements(ctx, vcpus, &e.stats)
	if err != nil {
		return nil, err
	}
	return sched.NewExperimentPrepared(e.spec, imps, w, vcpus, pred)
}

// Migrate simulates one container migration (§7, Table 2), honouring ctx.
func (e *Engine) Migrate(ctx context.Context, p MigrationProfile, mech migrate.Mechanism, cfg migrate.Config) (*migrate.Result, error) {
	return migrate.Run(ctx, p, mech, cfg)
}

// EngineStats reports the Engine's cache effectiveness. Every count is this
// engine's own, of its calls into the table set it shares with the engines
// of its machine model: cold work another engine already did is a hit here.
type EngineStats struct {
	// Enumerations is the number of cold placement enumerations actually
	// executed; PlacementHits the calls served from cache or by joining
	// an in-flight enumeration.
	Enumerations  int64
	PlacementHits int64
	// PinRuns / PinHits are the same split for pinning requests.
	PinRuns int64
	PinHits int64
	// Prepares and Searches count the scheduler's misses only: placement
	// observations prepared and scored free-node sets searched.
	Prepares int64
	Searches int64
}

// Stats returns a snapshot of the Engine's cache counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Enumerations:  e.stats.Enumerations.Load(),
		PlacementHits: e.stats.PlacementHits.Load(),
		PinRuns:       e.stats.PinRuns.Load(),
		PinHits:       e.stats.PinHits.Load(),
		Prepares:      e.stats.Prepares.Load(),
		Searches:      e.stats.Searches.Load(),
	}
}
