package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/workloads"
)

// trainFingerprint trains with cfg and returns the chosen pair plus the
// predicted vectors for every workload row (flat, row-major) — a complete
// behavioral fingerprint of the model.
func trainFingerprint(t *testing.T, ds *Dataset, cfg TrainConfig) (int, int, []float64) {
	t.Helper()
	p, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Base, p.Probe, predictAll(t, p, ds, nil)
}

// TestTrainIdenticalAcrossWorkerCounts is the golden-equality guarantee of
// the parallel training pipeline: with a fixed seed, the selected input
// pair and every prediction are bit-identical at worker counts 1, 2 and
// GOMAXPROCS — the pair search, CV folds and forest trees all derive
// per-task seeds instead of sharing a sequential stream.
func TestTrainIdenticalAcrossWorkerCounts(t *testing.T) {
	host := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(host)
	ws := append(workloads.Paper()[:6], workloads.CorpusFrom(6, 3, []string{"flat", "bw"})...)
	ds, err := Collect(context.Background(), machines.Intel(), ws, 24, CollectConfig{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{
		Forest:         mlearn.ForestConfig{Trees: 12},
		SelectionTrees: 4,
		SelectionFolds: 3,
		Seed:           7,
	}

	base, probe, want := trainFingerprint(t, ds, cfg)
	for _, w := range []int{1, 2, host} {
		runtime.GOMAXPROCS(w)
		b, p, got := trainFingerprint(t, ds, cfg)
		if b != base || p != probe {
			t.Fatalf("workers=%d: pair (%d,%d), want (%d,%d)", w, b, p, base, probe)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d = %v, want %v (not bit-identical)", w, i, got[i], want[i])
			}
		}
	}
}

// TestCvMAPEIdenticalAcrossWorkerCounts pins the fold-level determinism the
// pair search depends on.
func TestCvMAPEIdenticalAcrossWorkerCounts(t *testing.T) {
	host := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(host)
	ws := append(workloads.Paper()[:5], workloads.CorpusFrom(5, 9, []string{"lat"})...)
	ds, err := Collect(context.Background(), machines.Intel(), ws, 24, CollectConfig{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	cand := &Predictor{Variant: PerfFeatures, Base: 0, Probe: 3}
	cfg := TrainConfig{SelectionTrees: 4, SelectionFolds: 3}
	folds, err := mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
	if err != nil {
		t.Fatal(err)
	}

	want, err := cvMAPE(context.Background(), ds, cand, cfg, 99, folds)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(want) {
		t.Fatal("serial cvMAPE is NaN")
	}
	for _, w := range []int{2, host} {
		runtime.GOMAXPROCS(w)
		got, err := cvMAPE(context.Background(), ds, cand, cfg, 99, folds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: cvMAPE %v, want %v", w, got, want)
		}
	}
}
