package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	numaplace "repro"
	"repro/internal/fleet"
	"repro/internal/mlearn"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// trainedPredictors trains, at test fidelity, one predictor per size on m.
func trainedPredictors(t *testing.T, ctx context.Context, m numaplace.Machine, seed uint64, sizes ...int) map[int]*numaplace.Predictor {
	t.Helper()
	eng := numaplace.New(m,
		numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 2}),
		numaplace.WithTrainConfig(numaplace.TrainConfig{
			Seed: seed, Forest: mlearn.ForestConfig{Trees: 10},
			SelectionTrees: 4, SelectionFolds: 3,
		}))
	ws := append(numaplace.PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	preds := map[int]*numaplace.Predictor{}
	for _, v := range sizes {
		ds, err := eng.Collect(ctx, ws, v)
		if err != nil {
			t.Fatal(err)
		}
		if preds[v], err = eng.Train(ctx, ds); err != nil {
			t.Fatal(err)
		}
	}
	return preds
}

// TestRoutePassOnResidentEngines drives a 64-engine fleet (two machine
// models sharing one predictor set each, eight racks, domain spreading) at
// 60 % fill through 2 000 place/release cycles, checking before every
// admission that the class pass orders the candidates as previewing all 64
// engines does — and that it meets two classes doing so.
func TestRoutePassOnResidentEngines(t *testing.T) {
	ctx := context.Background()
	sizes := []int{8, 16, 24, 32}
	models := []numaplace.Machine{numaplace.AMD(), numaplace.Intel()}
	preds := make([]map[int]*numaplace.Predictor, len(models))
	for i, m := range models {
		preds[i] = trainedPredictors(t, ctx, m, 1, sizes...)
	}
	cl := numaplace.NewCluster(numaplace.ClusterConfig{Policy: numaplace.RouteBestPredicted, SpreadDomains: true})
	for i := 0; i < 64; i++ {
		var opts []numaplace.Option
		for _, v := range sizes {
			opts = append(opts, numaplace.WithPredictor(v, preds[i%2][v]))
		}
		if err := cl.Add(fmt.Sprintf("m%d", i), numaplace.New(models[i%2], opts...), numaplace.InDomain(fmt.Sprintf("rack-%d", i%8))); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(7)
	paper := numaplace.PaperWorkloads()
	var resident []int
	place := func(check bool) error {
		w, v := paper[rng.Intn(len(paper))], sizes[rng.Intn(len(sizes))]
		if check {
			if classes, err := cl.CheckRouting(ctx, w, v); err != nil || classes != 2 {
				t.Fatalf("%d-vCPU %s over %d residents: %d classes, %v", v, w.Name, len(resident), classes, err)
			}
		}
		a, err := cl.Place(ctx, w, v)
		if err == nil {
			resident = append(resident, a.ID)
		}
		return err
	}
	release := func() {
		i := rng.Intn(len(resident))
		if err := cl.Release(ctx, resident[i]); err != nil {
			t.Fatal(err)
		}
		resident[i] = resident[len(resident)-1]
		resident = resident[:len(resident)-1]
	}
	for {
		if err := place(false); errors.Is(err, numaplace.ErrFleetFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	for keep := len(resident) * 6 / 10; len(resident) > keep; {
		release()
	}
	for cycle := 0; cycle < 2000; cycle++ {
		if err := place(true); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		release()
	}
}

// TestUsePredictorChangesClassOnNextPlace swaps one engine's predictor on
// a live fleet: the very next routing decision must put the engine in a
// class of its own and rank it by the new model, as a preview fan-out does.
func TestUsePredictorChangesClassOnNextPlace(t *testing.T) {
	ctx := context.Background()
	m := numaplace.AMD()
	shared := trainedPredictors(t, ctx, m, 1, 16)[16]
	other := trainedPredictors(t, ctx, m, 2, 16)[16]
	cl := numaplace.NewCluster(numaplace.ClusterConfig{Policy: numaplace.RouteBestPredicted})
	engines := make([]*numaplace.Engine, 4)
	for i := range engines {
		engines[i] = numaplace.New(m, numaplace.WithPredictor(16, shared))
		if err := cl.Add(fmt.Sprintf("m%d", i), engines[i]); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := numaplace.WorkloadByName("WTbtree")
	check := func(when string, want int) {
		t.Helper()
		if classes, err := cl.CheckRouting(ctx, w, 16); err != nil || classes != want {
			t.Fatalf("%s: %d classes (want %d), %v", when, classes, want, err)
		}
		if _, err := cl.Place(ctx, w, 16); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("four engines, one predictor", 1)
	engines[2].UsePredictor(16, other)
	check("after UsePredictor on m2", 2)
	for _, e := range engines {
		e.UsePredictor(16, other)
	}
	check("after UsePredictor on all", 1)

	before, _ := engines[2].ScoreClass(16)
	engines[2].UsePredictor(16, shared)
	if after, _ := engines[2].ScoreClass(16); after == before || after.Predictor != shared {
		t.Fatalf("UsePredictor left the engine's class at %+v", after)
	}
	var _ fleet.ScoreClasser = engines[0]
}

// TestRouteConcurrentWithPredictorSwaps races best-predicted admissions and
// releases against an operator's drains and rebalances, all routed through
// the fleet's one scratch, and against predictor swaps on live engines (the
// copy-on-write registry the class is read from), then checks the books: run
// with -race.
func TestRouteConcurrentWithPredictorSwaps(t *testing.T) {
	ctx := context.Background()
	m := numaplace.AMD()
	preds := []*numaplace.Predictor{
		trainedPredictors(t, ctx, m, 1, 16)[16],
		trainedPredictors(t, ctx, m, 2, 16)[16],
	}
	cl := numaplace.NewCluster(numaplace.ClusterConfig{Policy: numaplace.RouteBestPredicted, SpreadDomains: true})
	engines := make([]*numaplace.Engine, 8)
	for i := range engines {
		engines[i] = numaplace.New(m, numaplace.WithPredictor(16, preds[0]))
		if err := cl.Add(fmt.Sprintf("m%d", i), engines[i], numaplace.InDomain(fmt.Sprintf("rack-%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	paper := numaplace.PaperWorkloads()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < 150; i++ {
				if a, err := cl.Place(ctx, paper[(g+i)%len(paper)], 16); err == nil {
					mine = append(mine, a.ID)
				} else if !errors.Is(err, numaplace.ErrFleetFull) {
					t.Errorf("Place: %v", err)
					return
				}
				if len(mine) > 3 {
					if err := cl.Release(ctx, mine[0]); err != nil {
						t.Errorf("Release: %v", err)
						return
					}
					mine = mine[1:]
				}
			}
			for _, id := range mine {
				if err := cl.Release(ctx, id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			engines[i%len(engines)].UsePredictor(16, preds[i/len(engines)%2])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("m%d", i%len(engines))
			if _, err := cl.Drain(ctx, name); err != nil && !errors.Is(err, numaplace.ErrFleetFull) {
				t.Errorf("Drain: %v", err)
			}
			if err := cl.Resume(name); err != nil {
				t.Errorf("Resume: %v", err)
			}
			if _, err := cl.Rebalance(ctx, 1e9); err != nil {
				t.Errorf("Rebalance: %v", err)
			}
		}
	}()
	wg.Wait()
	if cl.Len() != 0 {
		t.Fatalf("%d tenants leaked", cl.Len())
	}
	for _, b := range cl.Stats().Backends {
		if b.FreeNodes != b.TotalNodes {
			t.Fatalf("machine %s holds %d/%d nodes after all releases", b.Name, b.TotalNodes-b.FreeNodes, b.TotalNodes)
		}
	}
}
