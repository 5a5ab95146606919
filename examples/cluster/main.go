// Cluster: the fleet serving layer — two heterogeneous machines (the
// paper's AMD and Intel testbeds) behind one routing policy. Containers
// are admitted wherever the per-machine predictors promise the most,
// rebalanced across machines under a migration-seconds budget, and one
// machine is drained gracefully and removed while its tenants keep
// running elsewhere.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/mlearn"
	"repro/internal/workloads"
)

func main() {
	ctx := context.Background()
	const vcpus = 16

	// Train one Engine per machine (each model is machine-specific).
	cl := numaplace.NewCluster(numaplace.ClusterConfig{Policy: numaplace.RouteBestPredicted})
	for _, mc := range []struct {
		name string
		m    numaplace.Machine
	}{{"amd-0", numaplace.AMD()}, {"intel-0", numaplace.Intel()}} {
		eng := numaplace.New(mc.m,
			numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 3}),
			numaplace.WithTrainConfig(numaplace.TrainConfig{
				Seed: 1, Forest: mlearn.ForestConfig{Trees: 60},
				SelectionTrees: 4, SelectionFolds: 3,
			}),
		)
		ds, err := eng.Collect(ctx, workloads.TrainingSet(20, 42), vcpus)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Train(ctx, ds); err != nil {
			log.Fatal(err)
		}
		if err := cl.Add(mc.name, eng); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("added %s (%s) to the fleet\n", mc.name, mc.m.Topo.Name)
	}

	// Admit a mixed set of containers: routing reads each machine's score
	// row for the workload and admits where the model promises the most.
	fmt.Println("\nadmitting containers (best-predicted routing):")
	var ids []int
	for _, wname := range []string{"WTbtree", "streamcluster", "swaptions", "postgres-tpch", "canneal"} {
		w, _ := numaplace.WorkloadByName(wname)
		a, err := cl.Place(ctx, w, vcpus)
		if err != nil {
			fmt.Printf("  %-14s rejected: %v\n", wname, err)
			continue
		}
		ids = append(ids, a.ID)
		fmt.Printf("  %-14s -> %-8s class #%d on nodes %s (predicted %.0f ops/s)\n",
			wname, a.Backend, a.Assignment.Class, a.Assignment.Nodes, a.Assignment.PredictedPerf)
	}
	st := cl.Stats()
	fmt.Printf("fleet: %d tenants, %.0f%% of NUMA nodes allocated\n", st.Tenants, 100*st.Utilization)

	// Re-pack under a migration budget: intra-machine moves first, then
	// consolidation of underutilized machines (fast-mechanism copies).
	rep, err := cl.Rebalance(ctx, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrebalance: %d cross-machine moves, %.2f s of simulated migration (budget 120 s)\n",
		len(rep.Moves), rep.TotalSeconds)

	// Departures make room, then graceful machine removal: drain rehomes
	// every remaining tenant, and the emptied machine detaches.
	fmt.Println("\nchurn: first two containers depart")
	for len(ids) > 0 && cl.Len() > 3 {
		if err := cl.Release(ctx, ids[0]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  released container %d\n", ids[0])
		ids = ids[1:]
	}
	fmt.Println("\ndraining amd-0:")
	drep, err := cl.Drain(ctx, "amd-0")
	if err != nil {
		fmt.Printf("  partial drain: %v\n", err)
	}
	for _, mv := range drep.Moves {
		fmt.Printf("  container %d (%s) %s -> %s in %.2f s\n", mv.ID, mv.Workload, mv.From, mv.To, mv.Seconds)
	}
	if len(drep.Drained) == 1 {
		if err := cl.Remove("amd-0"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  amd-0 empty and removed; fleet now %v\n", cl.Names())
	}

	for _, id := range ids {
		if err := cl.Release(ctx, id); err != nil {
			fmt.Printf("  release %d: %v\n", id, err)
		}
	}
	fmt.Printf("\nall released; fleet serves %d tenants\n", cl.Len())
}
