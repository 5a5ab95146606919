package sched

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// trainedExperiment builds a fast Intel experiment with a real predictor.
func trainedExperiment(t *testing.T, wname string) *Experiment {
	t.Helper()
	m := machines.Intel()
	ws := append(workloads.Paper(), workloads.CorpusFrom(20, 7, []string{"flat", "bw", "lat"})...)
	ds, err := core.Collect(context.Background(), m, ws, 24, core.CollectConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Train(context.Background(), ds, core.TrainConfig{
		Seed: 1, Forest: mlearn.ForestConfig{Trees: 30},
		SelectionTrees: 8, SelectionFolds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workloads.ByName(wname)
	if !ok {
		t.Fatalf("workload %s missing", wname)
	}
	exp, err := NewExperiment(context.Background(), m, w, 24, pred)
	if err != nil {
		t.Fatal(err)
	}
	exp.Trials = 3
	return exp
}

func TestPoliciesFigure5Shape(t *testing.T) {
	exp := trainedExperiment(t, "WTbtree")
	results := map[PolicyKind]*Result{}
	for _, kind := range []PolicyKind{ML, Conservative, Aggressive, SmartAggressive} {
		r, err := exp.Run(context.Background(), kind, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		results[kind] = r
	}
	// ML meets the goal (within measurement noise) and packs at least as
	// many instances as Conservative.
	if results[ML].ViolationPct > 2 {
		t.Errorf("ML violation %.1f%% too high", results[ML].ViolationPct)
	}
	if results[ML].Instances < results[Conservative].Instances {
		t.Errorf("ML packs %d < conservative %d", results[ML].Instances, results[Conservative].Instances)
	}
	// Conservative runs exactly one instance.
	if results[Conservative].Instances != 1 {
		t.Errorf("conservative packed %d instances", results[Conservative].Instances)
	}
	// Aggressive packs the maximum and violates the most.
	if results[Aggressive].Instances != 4 {
		t.Errorf("aggressive packed %d instances, want 4", results[Aggressive].Instances)
	}
	if results[Aggressive].ViolationPct <= results[ML].ViolationPct {
		t.Error("aggressive should violate more than ML")
	}
	// Smart-Aggressive packs the maximum but violates less than Aggressive.
	if results[SmartAggressive].Instances != 4 {
		t.Errorf("smart-aggressive packed %d instances, want 4", results[SmartAggressive].Instances)
	}
	if results[SmartAggressive].ViolationPct >= results[Aggressive].ViolationPct {
		t.Errorf("smart-aggressive (%.1f%%) should violate less than aggressive (%.1f%%)",
			results[SmartAggressive].ViolationPct, results[Aggressive].ViolationPct)
	}
}

func TestMLUsesFewestNodesMeetingGoal(t *testing.T) {
	// For WTbtree on Intel one node maximizes throughput (Fig. 1), so the
	// ML policy can satisfy a 90% goal with 1-2 nodes per instance and
	// pack several instances.
	exp := trainedExperiment(t, "WTbtree")
	r, err := exp.Run(context.Background(), ML, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instances < 2 {
		t.Errorf("ML packed only %d instances at a 90%% goal", r.Instances)
	}
	if r.ViolationPct > 2 {
		t.Errorf("ML violation %.1f%%", r.ViolationPct)
	}
}

func TestRunDeterministic(t *testing.T) {
	exp := trainedExperiment(t, "spark-pr-lj")
	a, err := exp.Run(context.Background(), Aggressive, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exp.Run(context.Background(), Aggressive, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Instances != b.Instances || a.ViolationPct != b.ViolationPct {
		t.Error("packing experiment not deterministic")
	}
}

func TestMLRequiresPredictor(t *testing.T) {
	m := machines.Intel()
	w, _ := workloads.ByName("WTbtree")
	exp, err := NewExperiment(context.Background(), m, w, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background(), ML, 1.0); err == nil {
		t.Error("ML without predictor accepted")
	}
	// Other policies work without one.
	if _, err := exp.Run(context.Background(), Conservative, 1.0); err != nil {
		t.Errorf("conservative: %v", err)
	}
}

func TestBestFreeSetPrefersHighBandwidth(t *testing.T) {
	m := machines.AMD()
	full := topology.FullNodeSet(8)
	nodes, ok := bestFreeSet(m, full, 4)
	if !ok {
		t.Fatal("no set found")
	}
	// {2,3,4,5} is the calibrated best 4-node set.
	if nodes.String() != "{2,3,4,5}" {
		t.Errorf("best 4-node set = %s", nodes)
	}
	if _, ok := bestFreeSet(m, full, 9); ok {
		t.Error("oversized request succeeded")
	}
}

func TestPolicyNames(t *testing.T) {
	if ML.String() != "ML" || SmartAggressive.String() != "Aggressive (Smart)" {
		t.Error("policy names wrong")
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown policy name empty")
	}
}
