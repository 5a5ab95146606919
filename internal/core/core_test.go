package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/placement"
	"repro/internal/workloads"
)

// smallDataset collects a fast Intel dataset used across the tests.
func smallDataset(t *testing.T, withHPE bool) *Dataset {
	t.Helper()
	ws := append(workloads.Paper()[:6], workloads.CorpusFrom(18, 7, []string{"flat", "bw", "lat"})...)
	ds, err := Collect(context.Background(), machines.Intel(), ws, 24, CollectConfig{Trials: 2, WithHPEs: withHPE})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// predictAll scores the selected dataset rows (nil = all) in one batch
// into a fresh flat block, row-major.
func predictAll(t *testing.T, p *Predictor, ds *Dataset, rows []int) []float64 {
	t.Helper()
	n := len(ds.Workloads)
	if rows != nil {
		n = len(rows)
	}
	out := make([]float64, n*p.NumPlacements)
	if err := p.PredictDatasetInto(out, make([]float64, n*p.InDim()), ds, rows); err != nil {
		t.Fatal(err)
	}
	return out
}

func fastTrain() TrainConfig {
	return TrainConfig{
		Forest:         mlearn.ForestConfig{Trees: 25},
		SelectionTrees: 8,
		SelectionFolds: 3,
		Seed:           1,
	}
}

func TestCollectShape(t *testing.T) {
	ds := smallDataset(t, true)
	if len(ds.Placements) != 7 {
		t.Fatalf("placements = %d", len(ds.Placements))
	}
	if len(ds.Workloads) != 24 || len(ds.Perf) != 24 || len(ds.Groups) != 24 {
		t.Fatalf("rows: %d workloads, %d perf, %d groups", len(ds.Workloads), len(ds.Perf), len(ds.Groups))
	}
	for w := range ds.Perf {
		if len(ds.Perf[w]) != 7 {
			t.Fatalf("perf row %d has %d cells", w, len(ds.Perf[w]))
		}
		for p, v := range ds.Perf[w] {
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("perf[%d][%d] = %v", w, p, v)
			}
		}
		if len(ds.HPE[w]) != 7 || len(ds.HPE[w][0]) != 41 {
			t.Fatalf("HPE row %d shape wrong", w)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	a := smallDataset(t, false)
	b := smallDataset(t, false)
	if !reflect.DeepEqual(a.Perf, b.Perf) {
		t.Fatal("Collect not deterministic")
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect(context.Background(), machines.Intel(), nil, 24, CollectConfig{}); err == nil {
		t.Error("empty workload list accepted")
	}
	// 25 vCPUs: exceeds one node (24) and 25 is not divisible by 2..4.
	if _, err := Collect(context.Background(), machines.Intel(), workloads.Paper()[:2], 25, CollectConfig{}); err == nil {
		t.Error("infeasible vCPU count accepted")
	}

	// A cancelled context returns ctx.Err() itself, and the first placement
	// (in order) that cannot be pinned fails the call with
	// "core: pinning <placement>: <Pin's error>".
	spec, imps := enumerate(t, machines.AMD(), 16)
	ws := workloads.Paper()[:3]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectPrepared(ctx, spec, imps, ws, 16, CollectConfig{}); err != context.Canceled {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
	bad := slices.Clone(imps)
	bad[2].Nodes = 0 // an empty node set cannot be pinned
	bad[4].Nodes = 0
	_, pinErr := placement.Pin(spec, bad[2].Placement, 16)
	if pinErr == nil {
		t.Fatal("empty node set pinned")
	}
	_, err := CollectPrepared(context.Background(), spec, bad, ws, 16, CollectConfig{})
	if want := fmt.Sprintf("core: pinning %s: %v", bad[2], pinErr); err == nil || err.Error() != want {
		t.Errorf("unpinnable placement: err = %v, want %s", err, want)
	}
	if !errors.Is(err, nperr.ErrInfeasible) {
		t.Errorf("unpinnable placement: %v does not wrap ErrInfeasible", err)
	}
}

func TestGroupOf(t *testing.T) {
	cases := map[string]string{
		"spark-cc":      "spark",
		"spark-pr-lj":   "spark",
		"postgres-tpch": "postgres",
		"postgres-tpcc": "postgres",
		"kmeans":        "kmeans",
		"WTbtree":       "WTbtree",
		"ft.C":          "ft.C",
	}
	for name, want := range cases {
		if got := GroupOf(name); got != want {
			t.Errorf("GroupOf(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestRelVectorConvention(t *testing.T) {
	ds := smallDataset(t, false)
	// Paper: "if the performance in the second and third is 20% and 30%
	// better than that in the first baseline placement, the performance
	// vector will be [1.0, 0.8, 0.7]" -- entry = base/perf... i.e. an
	// entry below 1 means that placement is faster than the baseline.
	v := ds.RelVector(0, 0)
	if v[0] != 1.0 {
		t.Fatalf("baseline entry = %v, want 1.0", v[0])
	}
	for p := range v {
		want := ds.Perf[0][0] / ds.Perf[0][p]
		if math.Abs(v[p]-want) > 1e-12 {
			t.Fatalf("entry %d = %v, want %v", p, v[p], want)
		}
		if ds.Perf[0][p] > ds.Perf[0][0] && v[p] >= 1 {
			t.Fatalf("faster placement %d has entry %v >= 1", p, v[p])
		}
	}
}

func TestTrainPerfVariant(t *testing.T) {
	ds := smallDataset(t, false)
	p, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if p.Variant != PerfFeatures {
		t.Fatalf("variant = %v", p.Variant)
	}
	if p.Base == p.Probe || p.Base < 0 || p.Probe >= len(ds.Placements) {
		t.Fatalf("bad pair (%d, %d)", p.Base, p.Probe)
	}
	// Training-set predictions should be reasonably accurate.
	all := predictAll(t, p, ds, nil)
	if mape := mlearn.MAPEFlat(all, ds.RelMatrix(p.Base), nil); mape > 10 {
		t.Errorf("training MAPE %v%% too high", mape)
	}
	// Runtime interface: predict from two observations.
	w0 := 0
	vec, err := p.Predict(ds.Perf[w0][p.Base], ds.Perf[w0][p.Probe])
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(ds.Placements) {
		t.Fatalf("vector length %d", len(vec))
	}
	if !reflect.DeepEqual(vec, all[w0*len(vec):(w0+1)*len(vec)]) {
		t.Error("Predict and PredictDatasetInto disagree")
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds := smallDataset(t, false)
	a, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != b.Base || a.Probe != b.Probe {
		t.Fatal("pair selection not deterministic")
	}
	va, _ := a.Predict(1000, 1200)
	vb, _ := b.Predict(1000, 1200)
	if !reflect.DeepEqual(va, vb) {
		t.Fatal("predictions not deterministic")
	}
}

func TestTrainHPEVariant(t *testing.T) {
	ds := smallDataset(t, true)
	cfg := fastTrain()
	cfg.Variant = HPEFeatures
	p, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.HPEFeats) == 0 || len(p.HPEFeats) > maxHPEFeatures {
		t.Fatalf("selected %d counters", len(p.HPEFeats))
	}
	// Every training target is 1 in the base placement (perf(base) over
	// itself), so the forest predicts exactly 1 there.
	vec := predictAll(t, p, ds, []int{0})
	if vec[p.Base] != 1 {
		t.Fatalf("base placement predicted %v, want 1", vec[p.Base])
	}
	// Perf-style Predict must refuse.
	if _, err := p.Predict(1, 2); err == nil {
		t.Error("Predict on HPE variant accepted")
	}
}

func TestTrainHPERequiresHPEData(t *testing.T) {
	ds := smallDataset(t, false)
	cfg := fastTrain()
	cfg.Variant = HPEFeatures
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("HPE variant without HPE data accepted")
	}
}

func TestTrainFixedPair(t *testing.T) {
	ds := smallDataset(t, false)
	cfg := fastTrain()
	cfg.FixedPair = &[2]int{1, 6}
	p, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 1 || p.Probe != 6 {
		t.Fatalf("pair = (%d, %d)", p.Base, p.Probe)
	}
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {0, 99}} {
		cfg.FixedPair = &[2]int{bad[0], bad[1]}
		if _, err := Train(context.Background(), ds, cfg); err == nil {
			t.Errorf("invalid pair %v accepted", bad)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	ds := smallDataset(t, false)
	tiny := ds.Subset([]int{0, 1})
	if _, err := Train(context.Background(), tiny, fastTrain()); err == nil {
		t.Error("tiny dataset accepted")
	}
}

func TestPredictErrors(t *testing.T) {
	ds := smallDataset(t, false)
	p, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(0, 5); err == nil {
		t.Error("zero observation accepted")
	}
	if _, err := p.Predict(5, -1); err == nil {
		t.Error("negative observation accepted")
	}
}

// TestPredictDatasetMismatch scores datasets a predictor cannot read: one
// of another machine's placements, and for the HPE variant one without
// counters or with fewer than it selected. Each is refused with
// ErrMachineMismatch instead of indexing past the dataset.
func TestPredictDatasetMismatch(t *testing.T) {
	refused := func(what string, p *Predictor, ds *Dataset) {
		t.Helper()
		n := len(ds.Workloads)
		err := p.PredictDatasetInto(make([]float64, n*p.NumPlacements), make([]float64, n*p.InDim()), ds, nil)
		if !errors.Is(err, nperr.ErrMachineMismatch) {
			t.Errorf("%s: err %v, want ErrMachineMismatch", what, err)
		}
	}
	intel := smallDataset(t, true)
	amd, err := Collect(context.Background(), machines.AMD(), workloads.Paper()[:6], 16, CollectConfig{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastTrain()
	cfg.FixedPair = &[2]int{0, len(amd.Placements) - 1}
	p, err := Train(context.Background(), amd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused("an AMD 16-vCPU predictor on an Intel 24-vCPU dataset", p, intel)

	cfg = fastTrain()
	cfg.Variant = HPEFeatures
	cfg.FixedPair = &[2]int{1, 6}
	p, err = Train(context.Background(), intel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused("the HPE variant on a dataset without counters", p, smallDataset(t, false))
	few := intel.Subset([]int{0, 1})
	for w, row := range few.HPE {
		few.HPE[w] = nil
		for _, hpes := range row {
			few.HPE[w] = append(few.HPE[w], hpes[:slices.Max(p.HPEFeats)])
		}
	}
	refused("the HPE variant on a dataset with fewer counters", p, few)
}

func TestBestPlacement(t *testing.T) {
	// Entries are base/perf: smallest entry = fastest placement.
	if got := BestPlacement([]float64{1.0, 0.8, 0.7, 0.9}); got != 2 {
		t.Errorf("BestPlacement = %d, want 2", got)
	}
	if got := BestPlacement([]float64{1.0}); got != 0 {
		t.Errorf("BestPlacement = %d, want 0", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := smallDataset(t, false)
	p, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Base != p.Base || q.Probe != p.Probe || q.Variant != p.Variant {
		t.Fatal("metadata mismatch after round trip")
	}
	vp, _ := p.Predict(1000, 1300)
	vq, _ := q.Predict(1000, 1300)
	if !reflect.DeepEqual(vp, vq) {
		t.Fatal("predictions differ after round trip")
	}
}

// TestSaveLoadCompiledParity round-trips a trained predictor through its
// JSON form and asserts the reloaded forest dumps and predicts
// bit-identically to the original across the serving APIs: single,
// zero-alloc and whole-dataset batch.
func TestSaveLoadCompiledParity(t *testing.T) {
	ds := smallDataset(t, false)
	p, err := Train(context.Background(), ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.forest.Dump(), p.forest.Dump()) {
		t.Fatal("loaded forest dumps differently")
	}
	dp := make([]float64, p.NumPlacements)
	dq := make([]float64, q.NumPlacements)
	for probe := 800.0; probe <= 1600; probe += 7.3 {
		vp, err := p.Predict(1000, probe)
		if err != nil {
			t.Fatal(err)
		}
		vq, err := q.Predict(1000, probe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vp, vq) {
			t.Fatalf("probe %v: predictions differ after round trip", probe)
		}
		if err := q.PredictInto(dq, 1000, probe); err != nil {
			t.Fatal(err)
		}
		if err := p.PredictInto(dp, 1000, probe); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dp, dq) || !reflect.DeepEqual(vp, dq) {
			t.Fatalf("probe %v: PredictInto diverged after round trip", probe)
		}
	}
	bp := predictAll(t, p, ds, nil)
	if !reflect.DeepEqual(bp, predictAll(t, q, ds, nil)) {
		t.Fatal("batch dataset predictions differ after round trip")
	}
	k := p.NumPlacements
	for w := range ds.Workloads {
		if err := q.PredictInto(dq, ds.Perf[w][q.Base], ds.Perf[w][q.Probe]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bp[w*k:(w+1)*k], dq) {
			t.Fatalf("row %d: batch and single predictions differ", w)
		}
	}
}

// TestWarmLeavesNothingForTheFirstPredict asserts Warm builds what serving
// reads: the very first PredictInto on a warmed predictor — the one inside
// a fresh engine's first admission — allocates nothing.
// (testing.AllocsPerRun warms its function up first, so the one call is
// counted by hand the way it counts.)
func TestWarmLeavesNothingForTheFirstPredict(t *testing.T) {
	p, err := Train(context.Background(), smallDataset(t, false), fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, p.NumPlacements)
	p.Warm()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = p.PredictInto(dst, 1000, 1200)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("first PredictInto after Warm allocates %d times, want 0", n)
	}
}

// TestPredictDatasetIntoAllocFree holds whole-dataset scoring into
// caller-owned blocks (the evaluation path of `paperrepro train` and
// Figure 4) to zero allocations.
func TestPredictDatasetIntoAllocFree(t *testing.T) {
	ds := smallDataset(t, true)
	for _, v := range []Variant{PerfFeatures, HPEFeatures} {
		cfg := fastTrain()
		cfg.Variant = v
		p, err := Train(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ds.Workloads)
		xbuf := make([]float64, n*p.InDim())
		out := make([]float64, n*p.NumPlacements)
		if avg := testing.AllocsPerRun(20, func() {
			if err := p.PredictDatasetInto(out, xbuf, ds, nil); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s: warm PredictDatasetInto allocates %v per pass, want 0", v, avg)
		}
	}
}

func TestSubset(t *testing.T) {
	ds := smallDataset(t, true)
	sub := ds.Subset([]int{2, 5, 7})
	if len(sub.Workloads) != 3 || len(sub.Perf) != 3 || len(sub.HPE) != 3 {
		t.Fatal("subset shape wrong")
	}
	if sub.Workloads[0].Name != ds.Workloads[2].Name {
		t.Fatal("subset row mismatch")
	}
	if sub.WorkloadIndex(ds.Workloads[5].Name) != 1 {
		t.Fatal("WorkloadIndex wrong in subset")
	}
	if ds.WorkloadIndex("missing") != -1 {
		t.Fatal("WorkloadIndex should return -1")
	}
}

// TestCombinedVariantNoBetterThanPerf reproduces the paper's finding that
// adding HPEs to the two performance observations "did not improve accuracy
// over the first one" (§6).
func TestCombinedVariantNoBetterThanPerf(t *testing.T) {
	ds := smallDataset(t, true)
	evaluate := func(variant Variant) float64 {
		cfg := fastTrain()
		cfg.Variant = variant
		var total float64
		count := 0
		folds, err := mlearn.GroupKFold(ds.Groups, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, fold := range folds {
			p, err := Train(context.Background(), ds.Subset(fold.Train), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pred := predictAll(t, p, ds, fold.Test)
			mlearn.MAPEFlatAccum(pred, ds.RelMatrix(p.Base), fold.Test, &total, &count)
		}
		return 100 * total / float64(count)
	}
	perf := evaluate(PerfFeatures)
	combined := evaluate(Combined)
	// Combined must not be meaningfully better (no hidden information in
	// the counters beyond the two observations), and must not be wildly
	// worse either.
	if combined < perf*0.8 {
		t.Errorf("combined (%.2f%%) much better than perf-only (%.2f%%): HPEs leak information", combined, perf)
	}
	if combined > perf*3 {
		t.Errorf("combined (%.2f%%) much worse than perf-only (%.2f%%)", combined, perf)
	}
}
