//go:build unix

// Package recipe is how cmd/numaplaced and cmd/clustersim make a fleet: each
// machine model trained once, one engine per machine built from it, and the
// fleet recovered from its write-ahead log. A predictor belongs to a machine
// model: training is fully seeded, so every machine of a model would train
// the one Train trains (TestTrainingIsPerModel).
package recipe

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/mlearn"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// Models is one trained predictor per machine model of a fleet, for one
// container size.
type Models struct {
	machines  []string // the fleet's models, one per machine
	vcpus     int
	Workloads int // the size of each model's training set
	preds     map[string]*numaplace.Predictor
}

// Train trains each machine model named in machines once, for vcpus-vCPU
// containers: 3 trials per cell, 60 trees and 30 synthetic workloads beside
// the paper's, or with quick (CI smoke) 2, 10 and 10.
func Train(ctx context.Context, machines []string, vcpus int, quick bool) (*Models, error) {
	trials, trees, corpus := 3, 60, 30
	if quick {
		trials, trees, corpus = 2, 10, 10
	}
	ws := workloads.TrainingSet(corpus, 42)
	ms := &Models{machines: machines, vcpus: vcpus, Workloads: len(ws), preds: map[string]*numaplace.Predictor{}}
	for _, model := range machines {
		m, ok := numaplace.MachineByName(model)
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", model)
		}
		if ms.preds[model] != nil {
			continue
		}
		eng := numaplace.New(m, numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: trials}),
			numaplace.WithTrainConfig(numaplace.TrainConfig{
				Seed: 1, Forest: mlearn.ForestConfig{Trees: trees}, SelectionTrees: 4, SelectionFolds: 3,
			}))
		ds, err := eng.Collect(ctx, ws, vcpus)
		if err == nil {
			ms.preds[model], err = eng.Train(ctx, ds)
		}
		if err != nil {
			return nil, fmt.Errorf("training on %s: %w", model, err)
		}
	}
	return ms, nil
}

// Names names a fleet's machines by model and position ("amd-0", "intel-1").
func Names(machines []string) []string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = fmt.Sprintf("%s-%d", m, i)
	}
	return names
}

// Build makes the fleet ms was trained for: a cluster under cfg with one
// fresh engine per machine, serving its model's predictor, named as Names
// does and placed in rack-<i%2>. Enumerations are warmed, so a fleet built
// for a restart starts where a booted one does.
func (ms *Models) Build(ctx context.Context, cfg numaplace.ClusterConfig) (*numaplace.Cluster, error) {
	cl := numaplace.NewCluster(cfg)
	for i, name := range Names(ms.machines) {
		m, _ := numaplace.MachineByName(ms.machines[i])
		eng := numaplace.New(m, numaplace.WithPredictor(ms.vcpus, ms.preds[ms.machines[i]]))
		if _, err := eng.Placements(ctx, ms.vcpus); err != nil {
			return nil, err
		}
		if err := cl.Add(name, eng, numaplace.InDomain(fmt.Sprintf("rack-%d", i%2))); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// Recover is a daemon's boot on its data directory: wal.Open under
// opts.Dir, Restore into f (unused, its machines added), then SetPersister.
// It returns the log and what the open and the restore each took.
func Recover(ctx context.Context, f *fleet.Fleet, opts wal.Options) (l *wal.Log, opened, restored time.Duration, err error) {
	t0 := time.Now()
	l, st, recs, err := wal.Open(opts)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("opening write-ahead log in %s: %w", opts.Dir, err)
	}
	opened = time.Since(t0)
	if err := f.Restore(ctx, st, recs, workloads.ByName); err != nil {
		l.Close()
		return nil, 0, 0, fmt.Errorf("replaying write-ahead log in %s: %w", opts.Dir, err)
	}
	f.SetPersister(l)
	return l, opened, time.Since(t0) - opened, nil
}
