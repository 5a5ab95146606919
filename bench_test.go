package numaplace

// One benchmark per paper table and figure: each regenerates the
// corresponding result (at reduced fidelity where full fidelity would take
// minutes) so `go test -bench=.` exercises the entire evaluation. Ablation
// benches at the bottom probe the design choices called out in DESIGN.md.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/placement"
	"repro/internal/wire"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImportantPlacements(b *testing.B) {
	for _, tc := range []struct {
		name string
		m    Machine
		v    int
	}{{"amd-16", machines.AMD(), 16}, {"intel-24", machines.Intel(), 24}} {
		b.Run(tc.name, func(b *testing.B) {
			spec := concern.FromMachine(tc.m)
			for i := 0; i < b.N; i++ {
				if _, err := placement.Enumerate(context.Background(), spec, tc.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4AMD(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(context.Background(), io.Discard, machines.AMD(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Intel(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(context.Background(), io.Discard, machines.Intel(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(context.Background(), io.Discard, machines.Intel(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationNoParetoFilter measures the placement-space blow-up
// when the Pareto packing filter is disabled: every balanced feasible
// packing contributes placements.
func BenchmarkAblationNoParetoFilter(b *testing.B) {
	spec := concern.FromMachine(machines.AMD())
	scores := spec.Node.FeasibleScores(16)
	all := placement.AllNodes(spec)
	b.Run("filtered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packs := placement.GenPackings(scores, all)
			placement.FilterPackings(spec, packs)
		}
	})
	b.Run("unfiltered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			placement.GenPackings(scores, all)
		}
	})
}

// BenchmarkAblationForestSize sweeps the ensemble size of the final model.
func BenchmarkAblationForestSize(b *testing.B) {
	m := machines.Intel()
	ws := append(workloads.Paper(), workloads.CorpusFrom(20, 7, []string{"flat", "bw", "lat"})...)
	ds, err := core.Collect(context.Background(), m, ws, 24, core.CollectConfig{Trials: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, trees := range []int{10, 50, 100} {
		b.Run(map[int]string{10: "trees-10", 50: "trees-50", 100: "trees-100"}[trees], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Train(context.Background(), ds, core.TrainConfig{
					Forest:         mlearn.ForestConfig{Trees: trees},
					SelectionTrees: 6, SelectionFolds: 3, Seed: 1,
					FixedPair: &[2]int{1, 6},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictLatency measures the paper's "inference time is
// negligible (milliseconds)" claim for a trained predictor on the serving
// hot path: PredictInto through the forest's interval table, which must run
// allocation-free (mlearn's TestPredictIntoAllocFree holds it to 0).
func BenchmarkPredictLatency(b *testing.B) {
	m := machines.Intel()
	ws := append(workloads.Paper(), workloads.CorpusFrom(20, 7, []string{"flat", "bw", "lat"})...)
	ds, err := core.Collect(context.Background(), m, ws, 24, core.CollectConfig{Trials: 2})
	if err != nil {
		b.Fatal(err)
	}
	pred, err := core.Train(context.Background(), ds, core.TrainConfig{
		Forest: mlearn.ForestConfig{Trees: 100}, FixedPair: &[2]int{1, 6}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]float64, pred.NumPlacements)
	if err := pred.PredictInto(vec, 1000, 1200); err != nil { // warm (builds the interval table)
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pred.PredictInto(vec, 1000, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDataset measures whole-dataset scoring through the
// forest's tree-outer batch walk (the evaluation path), reported
// per dataset pass. PredictDatasetInto writes into caller-owned feature and
// prediction blocks and must run allocation-free (core's
// TestPredictDatasetIntoAllocFree holds it to 0).
func BenchmarkPredictDataset(b *testing.B) {
	m := machines.Intel()
	ws := append(workloads.Paper(), workloads.CorpusFrom(20, 7, []string{"flat", "bw", "lat"})...)
	ds, err := core.Collect(context.Background(), m, ws, 24, core.CollectConfig{Trials: 2})
	if err != nil {
		b.Fatal(err)
	}
	pred, err := core.Train(context.Background(), ds, core.TrainConfig{
		Forest: mlearn.ForestConfig{Trees: 100}, FixedPair: &[2]int{1, 6}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := len(ds.Workloads)
	xbuf := make([]float64, n*pred.InDim())
	out := make([]float64, n*pred.NumPlacements)
	if err := pred.PredictDatasetInto(out, xbuf, ds, nil); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pred.PredictDatasetInto(out, xbuf, ds, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Training set-up at the daemon's fidelity ---

// setupCases are the (machine, size) pairs the set-up benchmarks train:
// both machine models at 16 and 32 vCPUs, two of the four sizes numabench's
// fleets serve.
var setupCases = []struct {
	name string
	m    Machine
	v    int
}{
	{"amd-16", machines.AMD(), 16}, {"amd-32", machines.AMD(), 32},
	{"intel-16", machines.Intel(), 16}, {"intel-32", machines.Intel(), 32},
}

// setupEngine is an engine at numaplaced's training fidelity (3 trials,
// 60 trees, seed 1) with its enumeration for v warmed, and that fidelity's
// training set (the paper's workloads plus a 30-workload corpus).
func setupEngine(b *testing.B, m Machine, v int) (*Engine, []Workload) {
	b.Helper()
	eng := New(m,
		WithCollectConfig(CollectConfig{Trials: 3}),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 60},
			SelectionTrees: 4, SelectionFolds: 3,
		}),
	)
	if _, err := eng.Placements(context.Background(), v); err != nil {
		b.Fatal(err)
	}
	return eng, workloads.TrainingSet(30, 42)
}

// BenchmarkEngineCollect measures one Collect of a set-up: every training
// workload in every important placement, 3 trials each, from a warmed
// enumeration.
func BenchmarkEngineCollect(b *testing.B) {
	ctx := context.Background()
	for _, tc := range setupCases {
		b.Run(tc.name, func(b *testing.B) {
			eng, ws := setupEngine(b, tc.m, tc.v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Collect(ctx, ws, tc.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTrain measures one Train of a set-up: the input-pair
// search, the final forest and the serving warm-up. Each iteration trains
// a fresh view of the collected dataset (Subset of every row), so the
// relative-target matrices the dataset memoizes do not carry over from one
// iteration to the next.
func BenchmarkEngineTrain(b *testing.B) {
	ctx := context.Background()
	for _, tc := range setupCases {
		b.Run(tc.name, func(b *testing.B) {
			eng, ws := setupEngine(b, tc.m, tc.v)
			ds, err := eng.Collect(ctx, ws, tc.v)
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]int, len(ws))
			for i := range rows {
				rows[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Train(ctx, ds.Subset(rows)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine cache-hit paths ---

// BenchmarkEnginePlacements measures the serving layer's memoization: a
// cold call pays the full enumeration (engine construction included), a
// warm call is a cache hit returning the caller's copy of the memoized
// slice (TestEngineConcurrentPlacements asserts the hit through Stats).
func BenchmarkEnginePlacements(b *testing.B) {
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := New(machines.AMD())
			if _, err := eng.Placements(ctx, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := New(machines.AMD())
		if _, err := eng.Placements(ctx, 16); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Placements(ctx, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePin measures the pinning cache: cold materializes a
// placement into a thread assignment, warm copies the memoized one.
func BenchmarkEnginePin(b *testing.B) {
	ctx := context.Background()
	eng := New(machines.AMD())
	imps, err := eng.Placements(ctx, 16)
	if err != nil {
		b.Fatal(err)
	}
	p := imps[len(imps)-1].Placement
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := New(machines.AMD())
			if _, err := fresh.Pin(ctx, p, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := eng.Pin(ctx, p, 16); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Pin(ctx, p, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePlace measures one online admission (observe twice,
// predict, choose, pin) on a pre-trained engine, the serving hot path.
func BenchmarkEnginePlace(b *testing.B) {
	ctx := context.Background()
	eng := New(machines.AMD(),
		WithCollectConfig(CollectConfig{Trials: 2}),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 20},
			SelectionTrees: 4, SelectionFolds: 3,
		}),
	)
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	ds, err := eng.Collect(ctx, ws, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Train(ctx, ds); err != nil {
		b.Fatal(err)
	}
	wt, _ := WorkloadByName("WTbtree")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Release(ctx, a.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitThroughput measures sustained admission throughput on one
// pre-trained engine, serial versus parallel: every iteration is a full
// Place+Release cycle. Each call holds the engine's machine lock, so the
// parallel variant measures what concurrent callers pay to queue on it —
// it is not expected to beat the serial per-op time. A caller that finds
// the machine transiently full counts the iteration as back-pressure.
func BenchmarkAdmitThroughput(b *testing.B) {
	ctx := context.Background()
	eng := New(machines.AMD(),
		WithCollectConfig(CollectConfig{Trials: 2}),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 20},
			SelectionTrees: 4, SelectionFolds: 3,
		}),
	)
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	ds, err := eng.Collect(ctx, ws, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Train(ctx, ds); err != nil {
		b.Fatal(err)
	}
	wt, _ := WorkloadByName("WTbtree")
	cycle := func() error {
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			// Concurrent holders can transiently fill the machine; that
			// is back-pressure, not a failure of the admission path.
			if errors.Is(err, ErrMachineFull) {
				return nil
			}
			return err
		}
		return eng.Release(ctx, a.ID)
	}
	if err := cycle(); err != nil { // warm the enumeration/pinning caches
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := cycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// benchTrained returns an engine for m trained, at the fleet benchmarks'
// reduced fidelity, for each of the given container sizes, and the
// predictors it trained.
func benchTrained(b *testing.B, ctx context.Context, m Machine, sizes ...int) (*Engine, map[int]*Predictor) {
	b.Helper()
	eng := New(m,
		WithCollectConfig(CollectConfig{Trials: 2}),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 20},
			SelectionTrees: 4, SelectionFolds: 3,
		}),
	)
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	preds := map[int]*Predictor{}
	for _, v := range sizes {
		ds, err := eng.Collect(ctx, ws, v)
		if err != nil {
			b.Fatal(err)
		}
		if preds[v], err = eng.Train(ctx, ds); err != nil {
			b.Fatal(err)
		}
	}
	return eng, preds
}

// benchCluster builds the warm two-machine AMD+Intel cluster the fleet
// benchmarks share: both engines pre-trained for 16-vCPU containers,
// machines labeled with distinct failure domains.
func benchCluster(b *testing.B, ctx context.Context, cfg ClusterConfig) *Cluster {
	b.Helper()
	cl := NewCluster(cfg)
	for i, m := range []Machine{machines.AMD(), machines.Intel()} {
		eng, _ := benchTrained(b, ctx, m, 16)
		if err := cl.Add(fmt.Sprintf("m%d", i), eng, InDomain(fmt.Sprintf("rack-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return cl
}

// BenchmarkClusterAdmit measures one fleet admission (route per policy,
// admit on the chosen machine, release) on a warm two-machine AMD+Intel
// cluster with pre-trained engines — the fleet serving hot path, with
// health tracking and domain-spread routing enabled (the failure-aware
// configuration every admission now pays for). BestPredicted pays two
// extra preview observations per admission; the other policies route on
// fleet state alone.
func BenchmarkClusterAdmit(b *testing.B) {
	ctx := context.Background()
	for _, policy := range []ClusterPolicy{RouteFirstFit, RouteLeastLoaded, RouteBestPredicted} {
		b.Run(policy.String(), func(b *testing.B) {
			cl := benchCluster(b, ctx, ClusterConfig{
				Policy:        policy,
				SpreadDomains: true,
				Health:        ClusterHealthConfig{},
			})
			wt, _ := WorkloadByName("WTbtree")
			// Warm the enumeration and pinning caches.
			if a, err := cl.Place(ctx, wt, 16); err != nil {
				b.Fatal(err)
			} else if err := cl.Release(ctx, a.ID); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := cl.Place(ctx, wt, 16)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Release(ctx, a.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterAdmitResident measures one domain-spread admission on a
// fleet that looks like a running one, swept over fleet size and routing
// policy: AMD and Intel machines alternating over 8 racks, packed to the
// first rejection with a seeded mix of the paper catalog at sizes
// {8,16,24,32}, thinned to 60 %, then held there — each iteration places the
// next container of the mix and releases a random resident one. Routing
// ranks the non-empty (class, free count) cells of the fleet's index and
// expands the best, so the sweep shows what is left that grows with the
// fleet — each engine's books, free mask, tenant pool and shape table (the
// rest is its model's shared table set); the two-machine
// BenchmarkClusterAdmit above cycles one shape over one mask.
func BenchmarkClusterAdmitResident(b *testing.B) {
	ctx := context.Background()
	sizes, models, preds := benchResidentModels(b, ctx)
	for _, n := range []int{16, 64, 256, 1024} {
		for _, policy := range []ClusterPolicy{RouteBestPredicted, RouteLeastLoaded} {
			b.Run(fmt.Sprintf("machines=%d/%s", n, policy), func(b *testing.B) {
				_, cycle := benchResident(b, ctx, n, policy, models, preds, sizes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}

// benchResidentModels trains what the resident fleets are built from: the two
// machine models and a predictor per model and container size.
func benchResidentModels(b *testing.B, ctx context.Context) (sizes []int, models []Machine, preds []map[int]*Predictor) {
	sizes = []int{8, 16, 24, 32}
	models = []Machine{machines.AMD(), machines.Intel()}
	preds = make([]map[int]*Predictor, len(models))
	for i, m := range models {
		_, preds[i] = benchTrained(b, ctx, m, sizes...)
	}
	return sizes, models, preds
}

// benchResident builds BenchmarkClusterAdmitResident's fleet — packed,
// thinned to 60 % and warmed — and returns it with the cycle that holds it
// there: place the next container of the mix, release a random resident one.
func benchResident(b *testing.B, ctx context.Context, n int, policy ClusterPolicy,
	models []Machine, preds []map[int]*Predictor, sizes []int) (*Cluster, func()) {
	cl := NewCluster(ClusterConfig{Policy: policy, SpreadDomains: true})
	for i := 0; i < n; i++ {
		var opts []Option
		for _, v := range sizes {
			opts = append(opts, WithPredictor(v, preds[i%len(models)][v]))
		}
		name := fmt.Sprintf("m%d", i)
		if err := cl.Add(name, New(models[i%len(models)], opts...), InDomain(fmt.Sprintf("rack-%d", i%8))); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(1)
	paper := PaperWorkloads()
	place := func() (int, error) {
		a, err := cl.Place(ctx, paper[rng.Intn(len(paper))], sizes[rng.Intn(len(sizes))])
		if err != nil {
			return 0, err
		}
		return a.ID, nil
	}
	var resident []int
	for {
		id, err := place()
		if errors.Is(err, ErrFleetFull) {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		resident = append(resident, id)
	}
	release := func() {
		i := rng.Intn(len(resident))
		if err := cl.Release(ctx, resident[i]); err != nil {
			b.Fatal(err)
		}
		resident[i] = resident[len(resident)-1]
		resident = resident[:len(resident)-1]
	}
	for keep := len(resident) * 6 / 10; len(resident) > keep; {
		release()
	}
	cycle := func() {
		id, err := place()
		if err != nil {
			b.Fatal(err)
		}
		resident = append(resident, id)
		release()
	}
	// Untimed: let every machine meet every shape, as a running fleet has. The
	// enumerations, pinnings, observation entries and best free sets fill once
	// per machine model, in the table set its engines share; what grows with the
	// fleet is each engine's own shape table, keyed by its predictor, which
	// the Previews build (they book nothing), and the cycles then touch every
	// engine's books — so the timed loop pays for neither.
	for _, name := range cl.Names() {
		be, _ := cl.Backend(name)
		eng := be.(*Engine)
		for _, w := range paper {
			for _, v := range sizes {
				if _, err := eng.Preview(ctx, w, v); err != nil && !errors.Is(err, ErrMachineFull) {
					b.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 1000+20*n; i++ {
		cycle()
	}
	return cl, cycle
}

// BenchmarkClusterAdmitParallel is the number behind Place's one hold of
// Fleet.mu (DESIGN.md, "Lock ordering"): the backend admission runs inside it,
// so concurrent admissions queue on the fleet lock. Several goroutines each
// place the next container of their own seeded mix on the resident fleet and
// release it again; read it with -cpu 1,2 — the ratio, not either column, is
// the finding.
func BenchmarkClusterAdmitParallel(b *testing.B) {
	ctx := context.Background()
	sizes, models, preds := benchResidentModels(b, ctx)
	paper := PaperWorkloads()
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			cl, _ := benchResident(b, ctx, n, RouteBestPredicted, models, preds, sizes)
			var workers atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := xrand.New(1 + workers.Add(1))
				for pb.Next() {
					a, err := cl.Place(ctx, paper[rng.Intn(len(paper))], sizes[rng.Intn(len(sizes))])
					if err == nil {
						err = cl.Release(ctx, a.ID)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkFailover measures one full machine-death recovery on the warm
// two-machine cluster: a crash declaration, the automatic failover pass
// rehoming the dead machine's two tenants onto the survivor (costed
// fast-mechanism copies included), and the revive that fences the stale
// books. The machines ping-pong roles so every iteration starts from the
// same shape.
func BenchmarkFailover(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b, ctx, ClusterConfig{
		Policy: RouteFirstFit,
		Health: ClusterHealthConfig{FailoverBudgetSeconds: -1},
	})
	wt, _ := WorkloadByName("WTbtree")
	// Two 16-vCPU tenants land on m0 (first-fit) and fit either machine.
	for i := 0; i < 2; i++ {
		if _, err := cl.Place(ctx, wt, 16); err != nil {
			b.Fatal(err)
		}
	}
	names := []string{"m0", "m1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := names[i%2]
		if _, err := cl.Fail(ctx, from); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Revive(ctx, from); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := cl.Len(); got != 2 {
		b.Fatalf("tenant records corrupted by failover ping-pong: %d, want 2", got)
	}
}

// BenchmarkWirePlace measures the loopback end-to-end admission: typed
// client → real TCP listener → wire server → fleet place, response
// hand-encoded from a pooled buffer, then the matching release — with one
// active SSE subscriber draining the event feed in the background (the
// serving configuration a monitored daemon runs in). In-process admit is
// 12-29µs, so this is dominated by the HTTP hop; numabench's wire_churn is
// the measurement of record.
func BenchmarkWirePlace(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b, ctx, ClusterConfig{Policy: RouteFirstFit})
	ws := wire.NewServer(cl, wire.Config{})
	srv := httptest.NewServer(ws)
	defer srv.Close()
	defer ws.Stop()

	c := client.New(srv.URL, client.WithRetries(0))
	es, err := c.Events(ctx)
	if err != nil {
		b.Fatal(err)
	}
	defer es.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := es.Next(); err != nil {
				return
			}
		}
	}()

	wt, _ := WorkloadByName("WTbtree")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := c.Place(ctx, wt.Name, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Release(ctx, pr.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ws.Stop()
	<-drained
	if got := cl.Len(); got != 0 {
		b.Fatalf("leaked tenants after wire churn: %d", got)
	}
}
