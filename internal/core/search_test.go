package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/workloads"
)

// exactCV is a candidate's exact cross-validated error: cvMAPE on a search
// of that one candidate, which stops nothing.
func exactCV(tb testing.TB, ds *Dataset, p *Predictor, cfg TrainConfig, seed uint64, folds []mlearn.Fold) float64 {
	tb.Helper()
	e, err := (&search{err: math.Inf(1), idx: 1}).cvMAPE(context.Background(), ds, p, cfg, seed, folds, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// exhaustivePair is the pair search without its bound: the exact error of
// every pair, then a serial arg-min in pair order with strict <.
func exhaustivePair(t *testing.T, ds *Dataset, cfg TrainConfig, folds []mlearn.Fold) (int, int) {
	t.Helper()
	n := len(ds.Placements)
	bestBase, bestProbe, bestErr := -1, -1, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cand := &Predictor{Variant: PerfFeatures, Base: i, Probe: j}
			if e := exactCV(t, ds, cand, cfg, xmix(cfg.Seed, uint64(i*n+j)), folds); e < bestErr {
				bestBase, bestProbe, bestErr = i, j, e
			}
		}
	}
	return bestBase, bestProbe
}

// TestBestPairIsTheExhaustiveScan holds the bounded pair search to the
// exhaustive one: on both machine models, at every fleet size and three
// seeds, over the paper's workloads plus a corpus, bestPair picks the pair
// the unbounded scan picks at GOMAXPROCS 1, 2 and 8, where which losers
// stop early differs. Over all of them the bound must stop something.
func TestBestPairIsTheExhaustiveScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ws := workloads.TrainingSet(12, 42)
	var serial, exhaustive int64
	for _, tc := range []struct {
		m     machines.Machine
		sizes []int
	}{
		{machines.AMD(), []int{8, 16, 24, 32}},
		{machines.Intel(), []int{8, 16, 24, 32}},
	} {
		for _, v := range tc.sizes {
			ds, err := Collect(context.Background(), tc.m, ws, v, CollectConfig{Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 7, 42} {
				t.Run(fmt.Sprintf("%s-%d/seed-%d", tc.m.Topo.Name, v, seed), func(t *testing.T) {
					cfg := TrainConfig{SelectionTrees: 4, SelectionFolds: 3, Seed: seed}
					folds, err := mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
					if err != nil {
						t.Fatal(err)
					}
					runtime.GOMAXPROCS(1)
					wantBase, wantProbe := exhaustivePair(t, ds, cfg, folds)
					pairs := len(ds.Placements) * (len(ds.Placements) - 1) / 2
					for _, procs := range []int{1, 2, 8} {
						runtime.GOMAXPROCS(procs)
						base, probe, forests, err := bestPair(context.Background(), ds, cfg, folds)
						if err != nil {
							t.Fatal(err)
						}
						if base != wantBase || probe != wantProbe {
							t.Fatalf("GOMAXPROCS %d: bestPair picked (%d,%d), the exhaustive scan (%d,%d)", procs, base, probe, wantBase, wantProbe)
						}
						if forests > int64(3*pairs) {
							t.Fatalf("GOMAXPROCS %d: %d fold forests, more than the exhaustive %d", procs, forests, 3*pairs)
						}
						if procs == 1 {
							serial += forests
							exhaustive += int64(3 * pairs)
						}
					}
				})
			}
		}
	}
	if serial >= exhaustive {
		t.Fatalf("the bound stopped nothing: %d fold forests at GOMAXPROCS 1, exhaustive %d", serial, exhaustive)
	}
	t.Logf("fold forests at GOMAXPROCS 1: %d of the exhaustive %d", serial, exhaustive)
}

// TestStopRule is the bound's rule at its edges: a candidate stops when
// its error so far exceeds the best, or equals it and the best has the
// lower index (ties go to the lower index); a NaN bound never stops.
func TestStopRule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name         string
		lb, bestErr  float64
		bestIdx, idx int
		want         bool
	}{
		{"later pair at exactly the best", 5, 5, 2, 3, true},
		{"earlier pair at exactly the best", 5, 5, 3, 2, false},
		{"above the best", 5.5, 5, 3, 2, true},
		{"below the best", 4.5, 5, 2, 3, false},
		{"NaN bound, later pair", nan, 5, 2, 3, false},
		{"NaN bound, no best yet", nan, inf, 10, 3, false},
		{"no best yet", 1e300, inf, 10, 3, false},
		{"infinite bound, no best yet", inf, inf, 10, 3, false},
	} {
		if got := stops(tc.lb, tc.bestErr, tc.bestIdx, tc.idx); got != tc.want {
			t.Errorf("%s: stops(%v, %v, %d, %d) = %v, want %v", tc.name, tc.lb, tc.bestErr, tc.bestIdx, tc.idx, got, tc.want)
		}
	}

	// What candidates publish: the lowest error, the lower index on a
	// tie, and never NaN.
	s := &search{err: inf, idx: 10}
	for _, p := range []struct {
		e float64
		i int
	}{{nan, 0}, {7, 5}, {7, 4}, {7, 6}, {nan, 1}, {8, 2}} {
		s.publish(p.e, p.i)
	}
	if s.err != 7 || s.idx != 4 {
		t.Fatalf("best after publishing = (%v, %d), want (7, 4)", s.err, s.idx)
	}
	if !s.stopped(7, 5) || s.stopped(7, 3) || s.stopped(nan, 9) {
		t.Fatal("stopped does not apply stops to the published best")
	}
}

// amd16 is a set-up's dataset at the daemon's fidelity: AMD at 16 vCPUs,
// the paper's workloads plus a 30-workload corpus, 3 trials; with the
// counters the HPE variants read when withHPEs is set.
func amd16(tb testing.TB, withHPEs bool) *Dataset {
	tb.Helper()
	ds, err := Collect(context.Background(), machines.AMD(), workloads.TrainingSet(30, 42), 16, CollectConfig{Trials: 3, WithHPEs: withHPEs})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// daemonSelection is the daemon's selection fidelity: 4 selection trees,
// 3 folds, seed 1.
var daemonSelection = TrainConfig{SelectionTrees: 4, SelectionFolds: 3, Seed: 1}

// TestBestPairForestCount pins the fold forests one serial pair search
// trains on amd16: at GOMAXPROCS 1 candidates run in pair order, so the
// bound stops the same ones every time, and the count sits below the
// exhaustive 3 per pair.
func TestBestPairForestCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := amd16(t, false)
	folds, err := mlearn.GroupKFold(ds.Groups, daemonSelection.selectionFolds())
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(ds.Placements) * (len(ds.Placements) - 1) / 2
	const want = 190
	for run := 0; run < 2; run++ {
		_, _, forests, err := bestPair(context.Background(), ds, daemonSelection, folds)
		if err != nil {
			t.Fatal(err)
		}
		if forests != want {
			t.Fatalf("run %d: %d fold forests, want %d (exhaustive: %d)", run, forests, want, 3*pairs)
		}
	}
	if want >= 3*pairs {
		t.Fatalf("pinned count %d is not below the exhaustive %d", want, 3*pairs)
	}
}

// BenchmarkBestPair measures the pair search of a set-up's Train at the
// daemon's fidelity (amd16, daemonSelection) and reports the fold forests
// it trains per search beside the time. Each iteration searches a fresh
// view of the dataset, so its memoized relative-target matrices do not
// carry over.
func BenchmarkBestPair(b *testing.B) {
	ds := amd16(b, false)
	folds, err := mlearn.GroupKFold(ds.Groups, daemonSelection.selectionFolds())
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, len(ds.Workloads))
	for i := range rows {
		rows[i] = i
	}
	var forests int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, n, err := bestPair(context.Background(), ds.Subset(rows), daemonSelection, folds)
		if err != nil {
			b.Fatal(err)
		}
		forests += n
	}
	b.ReportMetric(float64(forests)/float64(b.N), "forests/op")
}

// greedyHPEs is SFS without its bound, as a serial greedy loop: each round
// takes the exact error of the set plus each counter not in it, keeps the
// first lowest (strict <, counter order), and adds it unless a round
// before it scored no worse; it stops at maxFeats counters.
func greedyHPEs(t *testing.T, ds *Dataset, base, probe int, cfg TrainConfig, folds []mlearn.Fold, maxFeats int) []int {
	t.Helper()
	var set []int
	var prevErr float64
	for len(set) < maxFeats {
		bestF, bestErr := -1, math.Inf(1)
		for f := range ds.HPE[0][0] {
			if slices.Contains(set, f) {
				continue
			}
			feats := append(slices.Clone(set), f)
			slices.Sort(feats)
			cand := &Predictor{Variant: cfg.Variant, Base: base, Probe: probe, HPEFeats: feats}
			if e := exactCV(t, ds, cand, cfg, xmix(cfg.Seed, 0x5F5+uint64(len(feats))), folds); e < bestErr {
				bestF, bestErr = f, e
			}
		}
		if bestF < 0 || (len(set) > 0 && bestErr >= prevErr) {
			break
		}
		set = append(set, bestF)
		slices.Sort(set)
		prevErr = bestErr
	}
	return set
}

// uninformative is ds with every workload's throughput row set to the
// first one's: the targets are one vector, every tree is one leaf, and so
// every candidate of every SFS round scores the same error.
func uninformative(ds *Dataset) *Dataset {
	rows := make([]int, len(ds.Workloads))
	for i := range rows {
		rows[i] = i
	}
	u := ds.Subset(rows)
	for w := range u.Perf {
		u.Perf[w] = ds.Perf[0]
	}
	return u
}

// TestSelectHPEsIsTheGreedyScan holds SFS, run as rounds of the bounded
// arg-min, to the serial greedy loop over exact errors: for both variants
// that select counters, three seeds and bases, uncapped and with a cap one
// below the uncapped set, selectHPEs picks the loop's counters at
// GOMAXPROCS 1, 2 and 8. The table must hold a run the stop rule ends and
// one the cap ends. On a dataset where every candidate ties, the lowest
// counter wins the first round and the second round's equal error stops
// selection.
func TestSelectHPEsIsTheGreedyScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ds := smallDataset(t, true)
	cfg := TrainConfig{SelectionTrees: 4, SelectionFolds: 3}
	folds, err := mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, ds *Dataset, base, probe int, cfg TrainConfig, maxFeats int) []int {
		t.Helper()
		runtime.GOMAXPROCS(1)
		want := greedyHPEs(t, ds, base, probe, cfg, folds, maxFeats)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, _, err := selectHPEs(context.Background(), ds, base, probe, cfg, folds, maxFeats)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: selectHPEs picked %v, the greedy loop %v", procs, got, want)
			}
		}
		return want
	}
	var stopRule, capped bool
	for _, v := range []Variant{HPEFeatures, Combined} {
		for i, seed := range []uint64{1, 7, 42} {
			base, probe := i, i
			if v == Combined {
				probe = i + 3
			}
			t.Run(fmt.Sprintf("%s/seed-%d", v, seed), func(t *testing.T) {
				cfg := cfg
				cfg.Variant, cfg.Seed = v, seed
				full := check(t, ds, base, probe, cfg, maxHPEFeatures)
				stopRule = stopRule || len(full) < maxHPEFeatures
				if len(full) > 1 {
					check(t, ds, base, probe, cfg, len(full)-1)
					capped = true
				}
			})
		}
	}
	if !stopRule || !capped {
		t.Fatalf("the table misses a case: stop rule ended a run %v, a cap ended one %v", stopRule, capped)
	}
	t.Run("every candidate ties", func(t *testing.T) {
		cfg := cfg
		cfg.Variant, cfg.Seed = HPEFeatures, 1
		if got := check(t, uninformative(ds), 0, 0, cfg, maxHPEFeatures); !slices.Equal(got, []int{0}) {
			t.Fatalf("selected %v, want [0]: the lowest counter, then a stop on the equal error", got)
		}
	})
}

// TestSelectHPEsForestCount pins the fold forests one serial SFS trains on
// amd16's counters: at GOMAXPROCS 1 each round's candidates run in counter
// order, so the bound stops the same ones every time, and the count sits
// below the exhaustive 3 per candidate of every round run.
func TestSelectHPEsForestCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := amd16(t, true)
	cfg := daemonSelection
	cfg.Variant = HPEFeatures
	folds, err := mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
	if err != nil {
		t.Fatal(err)
	}
	const want = 197
	var feats []int
	for run := 0; run < 2; run++ {
		var forests int64
		feats, forests, err = selectHPEs(context.Background(), ds, 0, 0, cfg, folds, maxHPEFeatures)
		if err != nil {
			t.Fatal(err)
		}
		if forests != want {
			t.Fatalf("run %d: %d fold forests, want %d", run, forests, want)
		}
	}
	// Every round ran scores all counters not yet chosen; a run the stop
	// rule ends ran one round past its last addition.
	rounds := min(len(feats)+1, maxHPEFeatures)
	exhaustive := 0
	for r := range rounds {
		exhaustive += 3 * (len(ds.HPE[0][0]) - r)
	}
	if want >= exhaustive {
		t.Fatalf("pinned count %d is not below the exhaustive %d (%d rounds)", want, exhaustive, rounds)
	}
	t.Logf("fold forests at GOMAXPROCS 1: %d of the exhaustive %d (%d rounds, selected %v)", want, exhaustive, rounds, feats)
}

// BenchmarkSelectHPEs measures SFS over amd16's counters at the daemon's
// selection fidelity and reports the fold forests it trains per run beside
// the time. Each iteration selects on a fresh view of the dataset, so its
// memoized relative-target matrices do not carry over.
func BenchmarkSelectHPEs(b *testing.B) {
	ds := amd16(b, true)
	cfg := daemonSelection
	cfg.Variant = HPEFeatures
	folds, err := mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, len(ds.Workloads))
	for i := range rows {
		rows[i] = i
	}
	var forests int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, err := selectHPEs(context.Background(), ds.Subset(rows), 0, 0, cfg, folds, maxHPEFeatures)
		if err != nil {
			b.Fatal(err)
		}
		forests += n
	}
	b.ReportMetric(float64(forests)/float64(b.N), "forests/op")
}
