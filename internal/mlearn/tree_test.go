package mlearn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// plainForest grows one plain CART tree — every row once, no bootstrap,
// every feature tried — with the production grower and concatenation, and
// returns it as a one-tree forest, so the grower's stopping and split
// rules can be read off Dump.
func plainForest(X, Y [][]float64) *Forest {
	xm, ym := matrixFrom(X), matrixFrom(Y)
	n := xm.Rows
	g := getGrower(xm, ym, n, xm.Cols, nil)
	for i := 0; i < n; i++ {
		g.setSample(i, i)
	}
	for f, ord := range ColumnOrders(xm, nil) {
		copy(g.ford[f], ord)
	}
	g.grow(0, n)
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
	f := plainForest(X, Y)
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
	f := plainForest(X, Y)
	for _, probe := range [][]float64{{0.52, 0.18}, {0.11, 0.93}, {0.77, 0.44}} {
		want := probe[0]*probe[0] + probe[1]
		got := predict(t, f, probe)[0]
		if math.Abs(got-want) > 0.1 {
			t.Errorf("f(%v) = %v, want ~%v", probe, got, want)
		}
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	Y := [][]float64{{7}, {7}, {7}, {7}}
	f := plainForest(X, Y)
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
	f := plainForest(X, Y)
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

func TestTreeConstantFeaturePredictsMeanProperty(t *testing.T) {
	// Property: over one constant feature no split exists, so the tree is
	// a single leaf predicting the mean of Y. Inputs are bounded draws: a
	// constant in [-1e3, 1e3) and 0-49 outputs in [-1e6, 1e6). An empty
	// set has no tree; the count below keeps that guard from passing the
	// property vacuously.
	const cases = 100
	reached := 0
	prop := func(c float64, ys []float64) bool {
		if len(ys) == 0 {
			return true
		}
		reached++
		X := make([][]float64, len(ys))
		Y := make([][]float64, len(ys))
		var mean float64
		for i, y := range ys {
			X[i], Y[i] = []float64{c}, []float64{y}
			mean += y
		}
		mean /= float64(len(ys))
		f := plainForest(X, Y)
		if n := len(f.Dump().Trees[0].Nodes); n != 1 {
			t.Logf("%d outputs over x = %v grew %d nodes", len(ys), c, n)
			return false
		}
		got := predict(t, f, []float64{c})[0]
		return math.Abs(got-mean) <= 1e-9*math.Max(1, math.Abs(mean))
	}
	cfg := &quick.Config{
		MaxCount: cases,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			ys := make([]float64, r.Intn(50))
			for i := range ys {
				ys[i] = r.Float64()*2e6 - 1e6
			}
			args[0] = reflect.ValueOf(r.Float64()*2e3 - 1e3)
			args[1] = reflect.ValueOf(ys)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d cases reached the assertion", reached, cases)
	if reached < cases*9/10 {
		t.Fatalf("only %d of %d cases reached the assertion", reached, cases)
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
	if _, err := TrainForest(Matrix{}, Matrix{}, nil, nil, cfg); err == nil {
		t.Error("empty set accepted")
	}
	one := Matrix{Data: []float64{1}, Rows: 1, Cols: 1}
	two := Matrix{Data: []float64{1, 2}, Rows: 2, Cols: 1}
	ord := [][]int{{0, 1}}
	if _, err := TrainForest(one, two, nil, ord, cfg); err == nil {
		t.Error("mismatched set accepted")
	}
	if _, err := TrainForest(Matrix{Data: []float64{1}, Rows: 2, Cols: 1}, two, nil, ord, cfg); err == nil {
		t.Error("short backing accepted")
	}
	if _, err := TrainForest(two, two, []int{0, 2}, ord, cfg); err == nil {
		t.Error("out-of-range training row accepted")
	}
	if _, err := TrainForest(two, two, nil, nil, cfg); err == nil {
		t.Error("missing presort accepted")
	}
	if _, err := TrainForest(two, two, nil, [][]int{{0}}, cfg); err == nil {
		t.Error("short presort accepted")
	}
}
