// Quickstart: the full pipeline on the Intel machine through the Engine —
// derive the concern specification, enumerate important placements, train
// a predictor, and predict a container's performance vector from two
// observations.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/mlearn"
	"repro/internal/perfsim"
	"repro/internal/workloads"
)

func main() {
	ctx := context.Background()
	m := numaplace.Intel()
	eng := numaplace.New(m,
		numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 3}),
		numaplace.WithTrainConfig(numaplace.TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 100},
		}),
	)
	fmt.Println("machine:", m.Topo)

	// Step 1: the abstract machine model (scheduling concerns).
	spec := eng.Spec()
	fmt.Println("concerns:", spec.ConcernNames())

	// Step 2: important placements for a 24-vCPU container (memoized:
	// every later call for 24 vCPUs is a cache hit).
	placements, err := eng.Placements(ctx, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("important placements: %d\n", len(placements))
	for _, p := range placements {
		fmt.Println(" ", p)
	}

	// Step 3: train the model on the workload corpus. Train registers the
	// predictor with the engine for 24-vCPU containers.
	ds, err := eng.Collect(ctx, workloads.TrainingSet(30, 42), 24)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := eng.Train(ctx, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: observe placements #%d and #%d\n", pred.Base+1, pred.Probe+1)

	// Step 4: a "new" container arrives; observe it in the two input
	// placements and predict its full vector.
	wt, _ := numaplace.WorkloadByName("WTbtree")
	obs := func(idx int) float64 {
		threads, err := eng.Pin(ctx, placements[idx].Placement, 24)
		if err != nil {
			log.Fatal(err)
		}
		perf, err := perfsim.Run(m, wt, threads, 99)
		if err != nil {
			log.Fatal(err)
		}
		return perf
	}
	basePerf, probePerf := obs(pred.Base), obs(pred.Probe)
	vec, err := eng.Predict(24, basePerf, probePerf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observed %.0f and %.0f ops/s; predicted vector (baseline #%d):\n", basePerf, probePerf, pred.Base+1)
	for i, v := range vec {
		fmt.Printf("  placement #%d: %.3f (predicted %.0f ops/s)\n", i+1, v, basePerf/v)
	}
	best := numaplace.BestPlacement(vec)
	fmt.Printf("best placement: #%d %s\n", best+1, placements[best].Nodes)
}
