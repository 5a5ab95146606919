package mlearn

import (
	"errors"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/xrand"
)

// predictPointer is the original pointer-chasing tree walk, kept as the
// reference implementation for the compiled-parity tests.
func (f *Forest) predictPointer(x []float64) []float64 {
	out := make([]float64, f.outDim)
	for _, t := range f.trees {
		p := t.leaf(x)
		for d := range out {
			out[d] += p[d]
		}
	}
	for d := range out {
		out[d] /= float64(len(f.trees))
	}
	return out
}

// randomForestCase trains a forest on random data under one configuration
// and returns it with a set of probe inputs (training points, perturbed
// points, and out-of-range points).
func randomForestCase(t *testing.T, seed uint64, n, inDim, outDim, trees, maxDepth, minLeaf int) (*Forest, [][]float64) {
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
	f, err := TrainForest(X, Y, ForestConfig{
		Trees: trees,
		Tree:  TreeConfig{MaxDepth: maxDepth, MinLeaf: minLeaf},
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
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
	return f, probes
}

// TestCompiledParity asserts that the compiled SoA representation produces
// bit-identical outputs to the pointer-tree walk across a grid of random
// forest configurations, for the single, zero-alloc and row-scoring APIs.
func TestCompiledParity(t *testing.T) {
	cases := []struct {
		seed                                    uint64
		n, inDim, outDim, trees, depth, minLeaf int
	}{
		{1, 40, 1, 7, 10, 0, 1},  // single-feature (step-table eligible)
		{2, 60, 1, 13, 30, 0, 1}, // larger single-feature
		{3, 50, 3, 5, 9, 0, 1},   // multi-feature
		{4, 80, 6, 2, 17, 4, 2},  // depth- and leaf-limited
		{5, 30, 2, 1, 3, 0, 1},   // single output
		{6, 25, 9, 4, 21, 0, 3},  // wide feature space, feature subsetting
		{7, 10, 1, 6, 130, 0, 1}, // more trees than samples
		{8, 100, 4, 8, 50, 6, 1}, // big ensemble
	}
	for _, tc := range cases {
		f, probes := randomForestCase(t, tc.seed, tc.n, tc.inDim, tc.outDim, tc.trees, tc.depth, tc.minLeaf)
		c := f.Compiled()
		if c == nil {
			t.Fatalf("seed %d: trained forest has no compiled form", tc.seed)
		}
		if c.NumTrees() != f.NumTrees() || c.InDim() != f.InDim() || c.OutDim() != f.OutDim() {
			t.Fatalf("seed %d: compiled shape %d/%d/%d, forest %d/%d/%d", tc.seed,
				c.NumTrees(), c.InDim(), c.OutDim(), f.NumTrees(), f.InDim(), f.OutDim())
		}
		// The compiled tree-outer walk, before any single prediction has
		// built an interval table.
		checkRows(t, f, probes, "SoA rows")
		dst := make([]float64, f.OutDim())
		for pi, p := range probes {
			want := f.predictPointer(p)
			got := f.Predict(p)
			if err := f.PredictInto(dst, p); err != nil {
				t.Fatal(err)
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("seed %d probe %d dim %d: Predict %v != pointer %v", tc.seed, pi, d, got[d], want[d])
				}
				if dst[d] != want[d] {
					t.Fatalf("seed %d probe %d dim %d: PredictInto %v != pointer %v", tc.seed, pi, d, dst[d], want[d])
				}
			}
		}
		// Single-feature forests serve from the interval table after the
		// first single prediction; row scoring then reads it too.
		if f.InDim() == 1 {
			if st := c.stepT.Load(); st == nil || st.sums == nil {
				t.Fatalf("seed %d: single-feature forest did not build its interval table", tc.seed)
			}
			checkRows(t, f, probes, "table-backed rows")
		}
	}
}

// checkRows scores probes through PredictRowsInto and compares every row
// with the pointer walk, NaN matching NaN.
func checkRows(t *testing.T, f *Forest, probes [][]float64, what string) {
	t.Helper()
	xs := MatrixFrom(probes)
	flat := make([]float64, len(probes)*f.OutDim())
	if err := f.PredictRowsInto(flat, xs, nil); err != nil {
		t.Fatal(err)
	}
	for pi, p := range probes {
		want := f.predictPointer(p)
		for d := range want {
			got := flat[pi*f.OutDim()+d]
			if got != want[d] && !(math.IsNaN(got) && math.IsNaN(want[d])) {
				t.Fatalf("%s: probe %d (%v) dim %d: %v != pointer %v", what, pi, p, d, got, want[d])
			}
		}
	}
}

// TestCompiledParityNonFinite covers the traversal edge inputs: +-Inf fall
// through to the extreme leaves, NaN (every comparison false) to the
// rightmost leaf and an exact split threshold to the left branch,
// identically in every representation, for single- and multi-feature
// forests.
func TestCompiledParityNonFinite(t *testing.T) {
	for _, inDim := range []int{1, 2, 3, 4} {
		f, _ := randomForestCase(t, uint64(40+inDim), 30, inDim, 3, 4, 4, 2)
		c := f.Compiled()
		var edge [][]float64
		for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -1e308, 1e308} {
			p := make([]float64, inDim)
			for d := range p {
				p[d] = v
			}
			edge = append(edge, p)
		}
		for i, fx := range c.feat {
			if fx >= 0 {
				p := make([]float64, inDim)
				p[fx] = c.thr[i]
				edge = append(edge, p)
			}
		}
		checkRows(t, f, edge, "SoA rows")
		dst := make([]float64, f.OutDim())
		for pi, p := range edge {
			want := f.predictPointer(p)
			if err := f.PredictInto(dst, p); err != nil {
				t.Fatal(err)
			}
			for d := range want {
				if dst[d] != want[d] && !(math.IsNaN(dst[d]) && math.IsNaN(want[d])) {
					t.Fatalf("inDim %d probe %d (%v) dim %d: PredictInto %v != pointer %v", inDim, pi, p, d, dst[d], want[d])
				}
			}
		}
		checkRows(t, f, edge, "rows after PredictInto")
	}
}

func TestEmptyForestTypedErrors(t *testing.T) {
	var f Forest
	if out := f.Predict([]float64{1}); len(out) != 0 {
		t.Fatalf("zero-value forest Predict = %v, want empty zero vector", out)
	}
	if err := f.PredictInto(nil, []float64{1}); !errors.Is(err, ErrEmptyForest) {
		t.Fatalf("PredictInto on empty forest: %v, want ErrEmptyForest", err)
	}
	var c *CompiledForest
	if err := c.PredictInto(nil, nil); !errors.Is(err, ErrEmptyForest) {
		t.Fatalf("nil CompiledForest PredictInto: %v, want ErrEmptyForest", err)
	}
}

func TestCompiledDimMismatch(t *testing.T) {
	f, _ := randomForestCase(t, 21, 20, 2, 3, 5, 0, 1)
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
	f, probes := randomForestCase(t, 31, 50, 1, 7, 40, 0, 1)
	dst := make([]float64, f.OutDim())
	// Warm up (builds the single-feature interval table).
	if err := f.PredictInto(dst, probes[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.PredictInto(dst, probes[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %v per call, want 0", allocs)
	}
	// The multi-feature path must also be allocation-free.
	f2, probes2 := randomForestCase(t, 32, 50, 3, 7, 40, 0, 1)
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

// TestDepthIterativeOnChain grows a chain-shaped degenerate tree far deeper
// than a recursive walk could tolerate under a small stack budget and
// checks Depth still answers. debug.SetMaxStack pins the budget so a
// regression to recursion fails fast instead of relying on the default
// 1 GB limit.
func TestDepthIterativeOnChain(t *testing.T) {
	const chain = 300_000
	tr := &Tree{inDim: 1, outDim: 1}
	// Node i is internal with left = leaf, right = next internal; the last
	// node is a leaf. Total 2*chain+1 nodes, depth chain+1.
	for i := 0; i < chain; i++ {
		leaf := int32(2*i + 1)
		next := int32(2*i + 2)
		tr.nodes = append(tr.nodes,
			node{feature: 0, threshold: float64(i), left: leaf, right: next},
			node{feature: -1, value: []float64{float64(i)}})
	}
	tr.nodes = append(tr.nodes, node{feature: -1, value: []float64{-1}})

	old := debug.SetMaxStack(8 << 20)
	defer debug.SetMaxStack(old)
	if d := tr.Depth(); d != chain+1 {
		t.Fatalf("Depth = %d, want %d", d, chain+1)
	}
}
