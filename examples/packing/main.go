// Packing: the paper's §7 use case through the Engine — first the batch
// Figure 5 comparison (pack as many WiredTiger containers onto the AMD
// machine as possible under each policy), then the same machine served
// online: containers admitted one by one, released, and rebalanced.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/mlearn"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	ctx := context.Background()
	m := numaplace.AMD()
	const vcpus = 16

	eng := numaplace.New(m,
		numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 3}),
		numaplace.WithTrainConfig(numaplace.TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 100},
		}),
	)

	ds, err := eng.Collect(ctx, workloads.TrainingSet(30, 42), vcpus)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Train(ctx, ds); err != nil {
		log.Fatal(err)
	}

	wt, _ := numaplace.WorkloadByName("WTbtree")
	exp, err := eng.NewPackingExperiment(ctx, wt, vcpus, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("packing %s containers (%d vCPUs) on %s\n", wt.Name, vcpus, m.Topo.Name)
	for _, goal := range []float64{0.9, 1.0, 1.1} {
		fmt.Printf("goal = %.0f%% of baseline:\n", goal*100)
		for _, kind := range []sched.PolicyKind{
			numaplace.PolicyML, numaplace.PolicyConservative,
			numaplace.PolicyAggressive, numaplace.PolicySmartAggressive,
		} {
			r, err := exp.Run(ctx, kind, goal)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-18s %d instances/machine, %.1f%% violation\n",
				kind.String()+":", r.Instances, r.ViolationPct)
		}
	}

	// The same machine served online: admit containers until the machine
	// is full, release one, and rebalance survivors onto the freed nodes.
	fmt.Println("\nonline serving (admit / release / rebalance):")
	var admitted []*numaplace.Assignment
	for {
		a, err := eng.Place(ctx, wt, vcpus)
		if err != nil {
			fmt.Printf("  admission stopped: %v\n", err)
			break
		}
		admitted = append(admitted, a)
		fmt.Printf("  placed container %d: class #%d on nodes %s (predicted %.0f ops/s)\n",
			a.ID, a.Class, a.Nodes, a.PredictedPerf)
	}
	if len(admitted) > 0 {
		victim := admitted[0]
		if err := eng.Release(ctx, victim.ID); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  released container %d (nodes %s freed)\n", victim.ID, victim.Nodes)
		rep, err := eng.Rebalance(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  rebalance examined %d containers, moved %d (%.1f s simulated migration)\n",
			rep.Examined, len(rep.Moves), rep.TotalSeconds)
		for _, mv := range rep.Moves {
			fmt.Printf("    container %d: %s -> %s\n", mv.ID, mv.FromNodes, mv.ToNodes)
		}
	}
}
