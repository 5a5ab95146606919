package mlearn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// plainForest grows one plain CART tree — every row once, no bootstrap,
// every feature tried — with the production grower and concatenation, and
// returns it as a one-tree forest, so the grower's stopping and split
// rules can be read off Dump.
func plainForest(X, Y [][]float64, cfg TreeConfig) *Forest {
	xm, ym := MatrixFrom(X), MatrixFrom(Y)
	n := xm.Rows
	g := getGrower(xm, ym, n, cfg, nil)
	for i := 0; i < n; i++ {
		g.setSample(i, i)
	}
	for f, ord := range ColumnOrders(xm, nil) {
		copy(g.ford[f], ord)
	}
	g.grow(0, n, 1)
	tree := g.t
	putGrower(g)
	return &Forest{flat: concat([]*flat{tree}), inDim: xm.Cols, outDim: ym.Cols}
}

// dumpedDepth is the depth of the dumped tree (a root-only tree has depth
// 1), walked with an explicit stack.
func dumpedDepth(td TreeDump) int {
	type frame struct{ node, depth int }
	stack := []frame{{0, 1}}
	max := 0
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := td.Nodes[fr.node]
		if n.Feature < 0 {
			max = int(math.Max(float64(max), float64(fr.depth)))
			continue
		}
		stack = append(stack, frame{int(n.Left), fr.depth + 1}, frame{int(n.Right), fr.depth + 1})
	}
	return max
}

func TestTreeFitsSimpleStep(t *testing.T) {
	// y = [0,0] for x<0.5, [1,2] for x>=0.5: one split suffices.
	var X, Y [][]float64
	for i := 0; i < 20; i++ {
		x := float64(i) / 20
		X = append(X, []float64{x})
		if x < 0.5 {
			Y = append(Y, []float64{0, 0})
		} else {
			Y = append(Y, []float64{1, 2})
		}
	}
	f := plainForest(X, Y, TreeConfig{})
	for i := range X {
		p := predict(t, f, X[i])
		if p[0] != Y[i][0] || p[1] != Y[i][1] {
			t.Fatalf("x=%v: predict %v, want %v", X[i], p, Y[i])
		}
	}
	td := f.Dump().Trees[0]
	if d := dumpedDepth(td); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	if n := len(td.Nodes); n != 3 {
		t.Errorf("nodes = %d, want 3", n)
	}
}

func TestTreeInterpolatesSmoothFunction(t *testing.T) {
	// y = x1^2 + x2 on a grid; unseen midpoints must be close.
	var X, Y [][]float64
	for i := 0; i <= 20; i++ {
		for j := 0; j <= 20; j++ {
			x1, x2 := float64(i)/20, float64(j)/20
			X = append(X, []float64{x1, x2})
			Y = append(Y, []float64{x1*x1 + x2})
		}
	}
	f := plainForest(X, Y, TreeConfig{MinLeaf: 1})
	for _, probe := range [][]float64{{0.52, 0.18}, {0.11, 0.93}, {0.77, 0.44}} {
		want := probe[0]*probe[0] + probe[1]
		got := predict(t, f, probe)[0]
		if math.Abs(got-want) > 0.1 {
			t.Errorf("f(%v) = %v, want ~%v", probe, got, want)
		}
	}
}

func TestTreeRespectsMinLeafAndDepth(t *testing.T) {
	var X, Y [][]float64
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		Y = append(Y, []float64{rng.Float64()})
	}
	shallow := plainForest(X, Y, TreeConfig{MaxDepth: 3}).Dump().Trees[0]
	if d := dumpedDepth(shallow); d > 3 {
		t.Errorf("depth = %d exceeds MaxDepth 3", d)
	}
	// With MinLeaf 25 over 100 noisy samples the tree stays small.
	big := plainForest(X, Y, TreeConfig{MinLeaf: 25}).Dump().Trees[0]
	if n := len(big.Nodes); n > 9 {
		t.Errorf("nodes = %d, too many for MinLeaf 25", n)
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	Y := [][]float64{{7}, {7}, {7}, {7}}
	f := plainForest(X, Y, TreeConfig{})
	if n := len(f.Dump().Trees[0].Nodes); n != 1 {
		t.Errorf("constant target grew %d nodes", n)
	}
	if p := predict(t, f, []float64{99}); p[0] != 7 {
		t.Errorf("predict = %v", p)
	}
}

func TestTreeConstantFeature(t *testing.T) {
	// A constant feature cannot be split on; the other feature can.
	X := [][]float64{{5, 0}, {5, 1}, {5, 2}, {5, 3}}
	Y := [][]float64{{0}, {0}, {1}, {1}}
	f := plainForest(X, Y, TreeConfig{})
	if root := f.Dump().Trees[0].Nodes[0]; root.Feature != 1 {
		t.Errorf("root splits on feature %d, want 1", root.Feature)
	}
	if p := predict(t, f, []float64{5, 0.2}); p[0] != 0 {
		t.Errorf("predict low = %v", p)
	}
	if p := predict(t, f, []float64{5, 2.9}); p[0] != 1 {
		t.Errorf("predict high = %v", p)
	}
}

func TestTreePredictionIsTrainingMeanProperty(t *testing.T) {
	// Property: for any data, the root-only tree (MaxDepth 1) predicts the
	// mean of Y.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		X := make([][]float64, len(raw))
		Y := make([][]float64, len(raw))
		var mean float64
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				return true // mean would overflow; not a tree property
			}
			X[i] = []float64{float64(i)}
			Y[i] = []float64{v}
			mean += v
		}
		mean /= float64(len(raw))
		got := predict(t, plainForest(X, Y, TreeConfig{MaxDepth: 1}), []float64{0})[0]
		return math.Abs(got-mean) < 1e-9*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForestRegression(t *testing.T) {
	// Noisy quadratic; forest should beat a constant predictor easily.
	rng := xrand.New(9)
	var X, Y [][]float64
	for i := 0; i < 300; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		X = append(X, []float64{x1, x2})
		Y = append(Y, []float64{x1*x1 + 0.5*x2 + 0.02*rng.NormFloat64()})
	}
	f := trainRows(t, X, Y, ForestConfig{Trees: 50, Seed: 1})
	if f.NumTrees() != 50 || f.InDim() != 2 || f.OutDim() != 1 {
		t.Fatalf("forest shape: trees=%d in=%d out=%d", f.NumTrees(), f.InDim(), f.OutDim())
	}
	var sse, sseMean float64
	var mean float64
	for _, y := range Y {
		mean += y[0]
	}
	mean /= float64(len(Y))
	for i := range X {
		p := predict(t, f, X[i])[0]
		sse += (p - Y[i][0]) * (p - Y[i][0])
		sseMean += (mean - Y[i][0]) * (mean - Y[i][0])
	}
	if sse > 0.1*sseMean {
		t.Errorf("forest SSE %v not much better than constant %v", sse, sseMean)
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	Y := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	a := trainRows(t, X, Y, ForestConfig{Trees: 10, Seed: 42})
	b := trainRows(t, X, Y, ForestConfig{Trees: 10, Seed: 42})
	c := trainRows(t, X, Y, ForestConfig{Trees: 10, Seed: 43})
	probe := []float64{3.5}
	if predict(t, a, probe)[0] != predict(t, b, probe)[0] {
		t.Error("same seed, different predictions")
	}
	if predict(t, a, probe)[0] == predict(t, c, probe)[0] {
		t.Error("different seeds, identical predictions (suspicious)")
	}
}

func TestForestMultiOutput(t *testing.T) {
	// Outputs are independent functions; both must be learned.
	rng := xrand.New(5)
	var X, Y [][]float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		Y = append(Y, []float64{x, 1 - x})
	}
	f := trainRows(t, X, Y, ForestConfig{Trees: 30, Seed: 2})
	p := predict(t, f, []float64{0.3})
	if math.Abs(p[0]-0.3) > 0.05 || math.Abs(p[1]-0.7) > 0.05 {
		t.Errorf("multi-output prediction %v, want ~[0.3 0.7]", p)
	}
}

func TestForestErrors(t *testing.T) {
	cfg := ForestConfig{}
	if _, err := TrainForestMatrix(Matrix{}, Matrix{}, nil, cfg); err == nil {
		t.Error("empty set accepted")
	}
	one := Matrix{Data: []float64{1}, Rows: 1, Cols: 1}
	two := Matrix{Data: []float64{1, 2}, Rows: 2, Cols: 1}
	if _, err := TrainForestMatrix(one, two, nil, cfg); err == nil {
		t.Error("mismatched set accepted")
	}
	if _, err := TrainForestMatrix(Matrix{Data: []float64{1}, Rows: 2, Cols: 1}, two, nil, cfg); err == nil {
		t.Error("short backing accepted")
	}
	if _, err := TrainForestMatrix(two, two, []int{0, 2}, cfg); err == nil {
		t.Error("out-of-range training row accepted")
	}
	if _, err := TrainForestMatrixOrd(two, two, nil, [][]int{{0}}, cfg); err == nil {
		t.Error("short presort accepted")
	}
}
