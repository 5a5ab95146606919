package numaplace

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
// Train, Predict) it is the machine's incremental admit/evict scheduler:
// Place, Release, Rebalance and the rest are sched.Scheduler's own methods,
// with its predictor registry (UsePredictor, Predictor).
//
// All methods are safe for concurrent use: the scheduler's calls serialize
// on its machine lock, and the caches are the table set's. Methods returning
// cached slices hand each caller its own copy of the slice header; the
// Important values inside are shared and must be treated as read-only.
//
// An Engine must not be copied after first use (it contains locks; go vet's
// copylocks check enforces this).
type Engine struct {
	// The machine's scheduler, built at New. Its caches are the table set's,
	// so building it costs its books alone.
	*scheduler
	machine Machine
	fp      uint64
	spec    *Spec
	tables  *sched.Tables
	stats   sched.Stats

	collectCfg CollectConfig
	trainCfg   TrainConfig
}

// scheduler names sched.Scheduler so that Engine embeds it as an unexported
// field.
type scheduler = sched.Scheduler

// tableSets holds one sched.Tables per Machine.Fingerprint for the life of
// the process, so that engines of one model share them and a machine of a
// model seen before arrives warm. A set names no predictor, so keeping it
// keeps no trained model alive.
var tableSets sync.Map // uint64 -> *sched.Tables

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
type Option func(*config)

// config is what the options set; New resolves it before it builds the
// scheduler.
type config struct {
	collect CollectConfig
	train   TrainConfig
	serve   ServeConfig
	preds   []sizedPredictor // WithPredictor's, in option order
}

type sizedPredictor struct {
	vcpus int
	pred  *Predictor
}

// WithPredictor registers a trained predictor for the given container
// size, e.g. one loaded from disk with LoadPredictor, as UsePredictor does.
// Place and Predict consult the registry.
func WithPredictor(vcpus int, p *Predictor) Option {
	return func(c *config) { c.preds = append(c.preds, sizedPredictor{vcpus, p}) }
}

// WithCollectConfig sets the ground-truth collection configuration used by
// Engine.Collect.
func WithCollectConfig(cfg CollectConfig) Option {
	return func(c *config) { c.collect = cfg }
}

// WithTrainConfig sets the training configuration used by Engine.Train.
func WithTrainConfig(cfg TrainConfig) Option {
	return func(c *config) { c.train = cfg }
}

// WithServeConfig tunes the online scheduler (its performance goal
// fraction).
func WithServeConfig(cfg ServeConfig) Option {
	return func(c *config) { c.serve = cfg }
}

// New builds an Engine for the machine. The concern specification is
// derived immediately (it is cheap); everything expensive is computed
// lazily, once per machine model, on first use.
func New(m Machine, opts ...Option) *Engine {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	e := &Engine{machine: m, fp: m.Fingerprint(), spec: concern.FromMachine(m),
		collectCfg: c.collect, trainCfg: c.train}
	t, ok := tableSets.Load(e.fp)
	if !ok {
		t, _ = tableSets.LoadOrStore(e.fp, sched.NewTables(e.spec))
	}
	e.tables = t.(*sched.Tables)
	e.scheduler = sched.NewSharedScheduler(e.tables, &e.stats, c.serve)
	for _, sp := range c.preds {
		e.UsePredictor(sp.vcpus, sp.pred)
	}
	return e
}

// Machine returns the machine this Engine serves.
func (e *Engine) Machine() Machine { return e.machine }

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
	e.UsePredictor(ds.V, pred)
	return pred, nil
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
