package mlearn

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/xrand"
)

// randomForestCase trains a forest on random data, together with the
// frozen legacy forest of the same data and configuration (the oracle; its
// dump must equal the forest's), and returns both with a set of probe
// inputs (training points, perturbed points, and out-of-range points).
func randomForestCase(t *testing.T, seed uint64, n, inDim, outDim, trees int) (*Forest, *legacyForest, [][]float64) {
	t.Helper()
	rng := xrand.New(seed)
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, inDim)
		for d := range X[i] {
			X[i][d] = rng.Float64() * 10
		}
		Y[i] = make([]float64, outDim)
		for d := range Y[i] {
			Y[i][d] = rng.NormFloat64()
		}
	}
	cfg := ForestConfig{Trees: trees, Seed: seed}
	f := trainRows(t, X, Y, cfg)
	oracle, err := legacyTrainForest(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpBytes(t, f.Dump()), dumpBytes(t, oracle.dump())) {
		t.Fatalf("seed %d: forest differs from the legacy forest", seed)
	}
	probes := make([][]float64, 0, 40)
	for i := 0; i < 20; i++ {
		probes = append(probes, X[rng.Intn(n)])
		p := make([]float64, inDim)
		for d := range p {
			p[d] = rng.Float64()*14 - 2 // includes out-of-range values
		}
		probes = append(probes, p)
	}
	return f, oracle, probes
}

// predict is PredictInto into a fresh vector, failing the test on error.
func predict(t *testing.T, f *Forest, x []float64) []float64 {
	t.Helper()
	out := make([]float64, f.OutDim())
	if err := f.PredictInto(out, x); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameFloat is bit-for-bit equality with NaN matching NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// TestCompiledParity asserts that the flat arrays predict bit-identically
// to the legacy pointer-tree walk across a grid of random forest
// configurations, through the tree walk, the interval table and the
// tree-outer batch walk.
func TestCompiledParity(t *testing.T) {
	cases := []struct {
		seed                    uint64
		n, inDim, outDim, trees int
	}{
		{1, 40, 1, 7, 10},  // single-feature (step-table eligible)
		{2, 60, 1, 13, 30}, // larger single-feature
		{3, 50, 3, 5, 9},   // multi-feature
		{4, 80, 6, 2, 17},  // more features, two per split
		{5, 30, 2, 1, 3},   // single output
		{6, 25, 9, 4, 21},  // wide feature space, feature subsetting
		{7, 10, 1, 6, 130}, // more trees than samples
		{8, 100, 4, 8, 50}, // big ensemble
	}
	for _, tc := range cases {
		f, oracle, probes := randomForestCase(t, tc.seed, tc.n, tc.inDim, tc.outDim, tc.trees)
		if f.NumTrees() != tc.trees || f.InDim() != tc.inDim || f.OutDim() != tc.outDim {
			t.Fatalf("seed %d: forest shape %d/%d/%d, want %d/%d/%d", tc.seed,
				f.NumTrees(), f.InDim(), f.OutDim(), tc.trees, tc.inDim, tc.outDim)
		}
		checkRows(t, f, oracle, probes, "rows")
		// A multi-feature forest walks the arrays; a single-feature one
		// answers from the interval table its first prediction builds.
		for pi, p := range probes {
			want := oracle.predictPointer(p)
			got := predict(t, f, p)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("seed %d probe %d dim %d: PredictInto %v != pointer %v", tc.seed, pi, d, got[d], want[d])
				}
			}
		}
		if f.InDim() == 1 {
			if st := f.stepT.Load(); st == nil || st.sums == nil {
				t.Fatalf("seed %d: single-feature forest did not build its interval table", tc.seed)
			}
			checkRows(t, f, oracle, probes, "rows beside a built table")
		}
	}
}

// checkRows scores probes through PredictRowsInto and compares every row
// with the oracle's walk, NaN matching NaN.
func checkRows(t *testing.T, f *Forest, oracle *legacyForest, probes [][]float64, what string) {
	t.Helper()
	xs := matrixFrom(probes)
	rows := make([]float64, len(probes)*f.OutDim())
	if err := f.PredictRowsInto(rows, xs, nil); err != nil {
		t.Fatal(err)
	}
	for pi, p := range probes {
		want := oracle.predictPointer(p)
		for d := range want {
			if got := rows[pi*f.OutDim()+d]; !sameFloat(got, want[d]) {
				t.Fatalf("%s: probe %d (%v) dim %d: %v != pointer %v", what, pi, p, d, got, want[d])
			}
		}
	}
}

// TestCompiledParityNonFinite covers the traversal edge inputs: +-Inf fall
// through to the extreme leaves, NaN (every comparison false) to the
// rightmost leaf and an exact split threshold to the left branch,
// identically in the walk, the interval table and the batch walk, for
// single- and multi-feature forests.
func TestCompiledParityNonFinite(t *testing.T) {
	for _, inDim := range []int{1, 2, 3, 4} {
		f, oracle, _ := randomForestCase(t, uint64(40+inDim), 30, inDim, 3, 4)
		var edge [][]float64
		for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -1e308, 1e308} {
			p := make([]float64, inDim)
			for d := range p {
				p[d] = v
			}
			edge = append(edge, p)
		}
		for i, fx := range f.feat {
			if fx >= 0 {
				p := make([]float64, inDim)
				p[fx] = f.thr[i]
				edge = append(edge, p)
			}
		}
		checkRows(t, f, oracle, edge, "rows")
		for pi, p := range edge {
			want := oracle.predictPointer(p)
			got := predict(t, f, p)
			for d := range want {
				if !sameFloat(got[d], want[d]) {
					t.Fatalf("inDim %d probe %d (%v) dim %d: PredictInto %v != pointer %v", inDim, pi, p, d, got[d], want[d])
				}
			}
		}
	}
}

func TestEmptyForestTypedErrors(t *testing.T) {
	var f Forest
	if err := f.PredictInto(nil, []float64{1}); !errors.Is(err, ErrEmptyForest) {
		t.Fatalf("PredictInto on empty forest: %v, want ErrEmptyForest", err)
	}
	var nilForest *Forest
	if err := nilForest.PredictInto(nil, nil); !errors.Is(err, ErrEmptyForest) {
		t.Fatalf("nil Forest PredictInto: %v, want ErrEmptyForest", err)
	}
	if d := f.Dump(); len(d.Trees) != 0 || f.NumTrees() != 0 {
		t.Fatalf("zero-value forest dumps %d trees, reports %d", len(d.Trees), f.NumTrees())
	}
}

func TestCompiledDimMismatch(t *testing.T) {
	f, _, _ := randomForestCase(t, 21, 20, 2, 3, 5)
	dst := make([]float64, f.OutDim())
	if err := f.PredictInto(dst, []float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("short input: %v, want ErrDimMismatch", err)
	}
	if err := f.PredictInto(dst[:1], []float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("short output buffer: %v, want ErrDimMismatch", err)
	}
}

// TestPredictIntoAllocFree asserts the serving hot path performs zero
// allocations per prediction.
func TestPredictIntoAllocFree(t *testing.T) {
	f, _, probes := randomForestCase(t, 31, 50, 1, 7, 40)
	dst := make([]float64, f.OutDim())
	f.Warm() // builds the single-feature interval table
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.PredictInto(dst, probes[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %v per call, want 0", allocs)
	}
	// The multi-feature path must also be allocation-free.
	f2, _, probes2 := randomForestCase(t, 32, 50, 3, 7, 40)
	dst2 := make([]float64, f2.OutDim())
	allocs = testing.AllocsPerRun(100, func() {
		if err := f2.PredictInto(dst2, probes2[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("multi-feature PredictInto allocates %v per call, want 0", allocs)
	}
}
