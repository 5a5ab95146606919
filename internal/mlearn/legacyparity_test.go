package mlearn

// This file freezes the pre-flat-matrix training implementation — the
// row-pointer [][]float64 grower, its pointer trees, their Dump and their
// tree walk, exactly as they shipped — as the one test oracle for Forest.
// Its Dump bytes guard training and serialization (the production forest
// must grow and write byte-identical models), and its walk guards
// PredictInto, PredictRowsInto and the step table (predict_test.go), so
// any drift in growth, concatenation, serialization, traversal or
// accumulation fails loudly instead of silently reshuffling models.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/xparallel"
	"repro/internal/xrand"
)

// legacyNode is one frozen tree node; leaves have feature == -1.
type legacyNode struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     []float64 // leaf prediction (mean of samples)
}

// legacyTree is the frozen pointer tree: a node slice with the root at 0.
type legacyTree struct {
	nodes  []legacyNode
	inDim  int
	outDim int
}

// legacyForest is the frozen forest of pointer trees.
type legacyForest struct {
	trees  []*legacyTree
	inDim  int
	outDim int
}

// leaf returns the leaf value reached by x.
func (t *legacyTree) leaf(x []float64) []float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// predictPointer is the frozen pointer-chasing walk: every tree's leaf
// vector summed in tree order, then divided by the tree count.
func (f *legacyForest) predictPointer(x []float64) []float64 {
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

// dump is the frozen Forest.Dump over pointer trees.
func (f *legacyForest) dump() *ForestDump {
	d := &ForestDump{InDim: f.inDim, OutDim: f.outDim}
	for _, t := range f.trees {
		td := TreeDump{InDim: t.inDim, OutDim: t.outDim}
		for _, n := range t.nodes {
			td.Nodes = append(td.Nodes, NodeDump{
				Feature: n.feature, Threshold: n.threshold,
				Left: n.left, Right: n.right, Value: n.value,
			})
		}
		d.Trees = append(d.Trees, td)
	}
	return d
}

// legacyValidateSet is the frozen row-pointer training-set check.
func legacyValidateSet(X, Y [][]float64) error {
	if len(X) == 0 || len(X) != len(Y) {
		return fmt.Errorf("mlearn: bad training set: %d inputs, %d outputs", len(X), len(Y))
	}
	inDim, outDim := len(X[0]), len(Y[0])
	for i := range X {
		if len(X[i]) != inDim {
			return fmt.Errorf("mlearn: row %d has %d features, want %d", i, len(X[i]), inDim)
		}
		if len(Y[i]) != outDim {
			return fmt.Errorf("mlearn: row %d has %d outputs, want %d", i, len(Y[i]), outDim)
		}
	}
	return nil
}

// legacyTreeConfig is the frozen tree configuration the legacy grower
// reads. The production grower has no knobs: legacyTrainForest leaves
// every field at its zero value but the defaulted feature subset.
type legacyTreeConfig struct {
	MaxDepth      int
	MinLeaf       int
	FeatureSubset int
}

func (c legacyTreeConfig) minLeaf() int {
	if c.MinLeaf <= 0 {
		return 1
	}
	return c.MinLeaf
}

// legacyTrainForest is the frozen row-pointer TrainForest.
func legacyTrainForest(X, Y [][]float64, cfg ForestConfig) (*legacyForest, error) {
	if err := legacyValidateSet(X, Y); err != nil {
		return nil, err
	}
	inDim := len(X[0])
	var treeCfg legacyTreeConfig
	if treeCfg.FeatureSubset <= 0 {
		treeCfg.FeatureSubset = inDim / 3
		if treeCfg.FeatureSubset < 1 {
			treeCfg.FeatureSubset = 1
		}
	}
	f := &legacyForest{inDim: inDim, outDim: len(Y[0])}
	root := xrand.Mix(cfg.Seed, 0xF07E57)
	n := len(X)
	baseOrd := make([][]int, inDim)
	pairs := make([]sortPair, n)
	for fi := 0; fi < inDim; fi++ {
		for i := range pairs {
			pairs[i] = sortPair{v: X[i][fi], i: int32(i)}
		}
		sortPairs(pairs)
		baseOrd[fi] = make([]int, n)
		for k, p := range pairs {
			baseOrd[fi][k] = int(p.i)
		}
	}
	trees, err := xparallel.MapErr(context.Background(), cfg.trees(), func(i int) (*legacyTree, error) {
		rng := xrand.New(xrand.Mix(root, uint64(i)))
		bx := make([][]float64, n)
		by := make([][]float64, n)
		ks := make([]int, n)
		for j := 0; j < n; j++ {
			k := rng.Intn(n)
			ks[j] = k
			bx[j], by[j] = X[k], Y[k]
		}
		return legacyBuildTreeBootstrap(bx, by, ks, baseOrd, treeCfg, rng)
	})
	if err != nil {
		return nil, err
	}
	f.trees = trees
	return f, nil
}

func legacyBuildTreeBootstrap(bX, bY [][]float64, ks []int, baseOrd [][]int, cfg legacyTreeConfig, rng *xrand.SplitMix64) (*legacyTree, error) {
	g, err := legacyNewGrower(bX, bY, cfg, rng)
	if err != nil {
		return nil, err
	}
	n := len(ks)
	nBase := len(bX)
	starts := make([]int32, nBase+1)
	for _, k := range ks {
		starts[k+1]++
	}
	for i := 0; i < nBase; i++ {
		starts[i+1] += starts[i]
	}
	pos := make([]int32, n)
	cursor := make([]int32, nBase)
	for j, k := range ks {
		pos[starts[k]+cursor[k]] = int32(j)
		cursor[k]++
	}
	for f := range g.ford {
		ord := g.ford[f]
		w := 0
		for _, k := range baseOrd[f] {
			for _, p := range pos[starts[k]:starts[k+1]] {
				ord[w] = int(p)
				w++
			}
		}
	}
	g.grow(0, n, 1)
	return g.t, nil
}

func legacyNewGrower(X, Y [][]float64, cfg legacyTreeConfig, rng *xrand.SplitMix64) (*legacyGrower, error) {
	if err := legacyValidateSet(X, Y); err != nil {
		return nil, err
	}
	t := &legacyTree{inDim: len(X[0]), outDim: len(Y[0])}
	n := len(X)
	g := &legacyGrower{
		X: X, Y: Y, cfg: cfg, rng: rng, t: t,
		idx:      make([]int, n),
		scratch:  make([]int, n),
		side:     make([]bool, n),
		features: make([]int, t.inDim),
		vals:     make([]float64, n),
		sum:      make([]float64, t.outDim),
		sumsq:    make([]float64, t.outDim),
		total:    make([]float64, t.outDim),
		totalSq:  make([]float64, t.outDim),
	}
	t.nodes = make([]legacyNode, 0, 2*n-1)
	g.arena = make([]float64, n*t.outDim)
	g.sorter.order = make([]int, n)
	for i := range g.idx {
		g.idx[i] = i
	}
	g.ford = make([][]int, t.inDim)
	backing := make([]int, n*t.inDim)
	for f := 0; f < t.inDim; f++ {
		g.ford[f] = backing[f*n : (f+1)*n]
	}
	return g, nil
}

type legacyGrower struct {
	X, Y [][]float64
	cfg  legacyTreeConfig
	rng  *xrand.SplitMix64
	t    *legacyTree

	idx      []int
	scratch  []int
	side     []bool
	features []int
	ford     [][]int
	vals     []float64
	arena    []float64
	sorter   argsort
	sum      []float64
	sumsq    []float64
	total    []float64
	totalSq  []float64
}

func (g *legacyGrower) newVec() []float64 {
	d := g.t.outDim
	v := g.arena[:d:d]
	g.arena = g.arena[d:]
	return v
}

func (g *legacyGrower) grow(lo, hi, depth int) int32 {
	t := g.t
	idx := g.idx[lo:hi]
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, legacyNode{feature: -1})

	if len(idx) < 2*g.cfg.minLeaf() || (g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) || legacyPure(g.Y, idx) {
		return g.leaf(self, idx)
	}

	feat, thr, ok := g.bestSplit(lo, hi)
	if !ok {
		return g.leaf(self, idx)
	}
	nl, nr := 0, 0
	for _, i := range idx {
		if g.X[i][feat] <= thr {
			g.side[i] = true
			idx[nl] = i
			nl++
		} else {
			g.side[i] = false
			g.scratch[nr] = i
			nr++
		}
	}
	copy(idx[nl:], g.scratch[:nr])
	if nl < g.cfg.minLeaf() || nr < g.cfg.minLeaf() {
		return g.leaf(self, idx)
	}
	for f := range g.ford {
		partitionBySide(g.side, g.ford[f][lo:hi], g.scratch)
	}
	l := g.grow(lo, lo+nl, depth+1)
	r := g.grow(lo+nl, hi, depth+1)
	t.nodes[self].feature = feat
	t.nodes[self].threshold = thr
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

func (g *legacyGrower) leaf(self int32, idx []int) int32 {
	m := g.newVec()
	for _, i := range idx {
		yi := g.Y[i]
		for d := range m {
			m[d] += yi[d]
		}
	}
	for d := range m {
		m[d] /= float64(len(idx))
	}
	g.t.nodes[self].value = m
	return self
}

func (g *legacyGrower) bestSplit(lo, hi int) (int, float64, bool) {
	t := g.t
	features := g.features[:t.inDim]
	for i := range features {
		features[i] = i
	}
	if g.cfg.FeatureSubset > 0 && g.cfg.FeatureSubset < t.inDim {
		if g.rng == nil {
			g.rng = xrand.New(0)
		}
		g.rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.cfg.FeatureSubset]
	}

	n := hi - lo
	X, Y := g.X, g.Y
	idx := g.idx[lo:hi]
	vals := g.vals[:n]
	sum, sumsq := g.sum, g.sumsq
	minLeaf := g.cfg.minLeaf()
	bestGain := math.Inf(-1)
	bestFeat, bestThr := -1, 0.0

	total, totalSq := g.total, g.totalSq
	for d := range total {
		total[d], totalSq[d] = 0, 0
	}
	for _, i := range idx {
		yi := Y[i]
		for d := range total {
			v := yi[d]
			total[d] += v
			totalSq[d] += v * v
		}
	}

	for _, f := range features {
		order := g.ford[f][lo:hi]
		for k, i := range order {
			vals[k] = X[i][f]
		}
		if vals[0] == vals[n-1] {
			continue
		}
		ties := false
		for k := 1; k < n; k++ {
			if vals[k] == vals[k-1] && !legacySameRow(Y, order[k-1], order[k]) {
				ties = true
				break
			}
		}
		if ties {
			sOrder := g.sorter.order[:n]
			copy(sOrder, idx)
			for k, i := range sOrder {
				vals[k] = X[i][f]
			}
			g.sorter.order, g.sorter.vals = sOrder, vals
			sort.Sort(&g.sorter)
			order = sOrder
		}
		for d := range sum {
			sum[d], sumsq[d] = 0, 0
		}
		for k := 0; k < n-1; k++ {
			yi := Y[order[k]]
			for d := range sum {
				v := yi[d]
				sum[d] += v
				sumsq[d] += v * v
			}
			if k+1 < minLeaf || n-k-1 < minLeaf {
				continue
			}
			if vals[k] == vals[k+1] {
				continue
			}
			nl, nr := float64(k+1), float64(n-k-1)
			var childSSE float64
			for d := range sum {
				rs := total[d] - sum[d]
				rq := totalSq[d] - sumsq[d]
				childSSE += (sumsq[d] - sum[d]*sum[d]/nl) + (rq - rs*rs/nr)
			}
			if gain := -childSSE; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (vals[k] + vals[k+1]) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

func legacySameRow(Y [][]float64, a, b int) bool {
	ya, yb := Y[a], Y[b]
	if len(ya) == 0 {
		return true
	}
	if &ya[0] == &yb[0] {
		return true
	}
	for d := range ya {
		if ya[d] != yb[d] {
			return false
		}
	}
	return true
}

func legacyPure(Y [][]float64, idx []int) bool {
	first := Y[idx[0]]
	for _, i := range idx[1:] {
		for d := range first {
			if Y[i][d] != first[d] {
				return false
			}
		}
	}
	return true
}

// --- Property tests ---

// randomSet builds a random training set with deliberate value ties (both
// quantized features and duplicated output rows) so the tie-fallback path
// of the presort induction is exercised.
func randomSet(rng *xrand.SplitMix64, n, inDim, outDim int) ([][]float64, [][]float64) {
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, inDim)
		for f := range X[i] {
			// Quantize to force tied feature values across distinct rows.
			X[i][f] = math.Floor(rng.Float64()*8) / 4
		}
		Y[i] = make([]float64, outDim)
		for d := range Y[i] {
			Y[i][d] = 0.5 + 1.5*rng.Float64()
		}
		if i > 0 && rng.Intn(4) == 0 {
			copy(Y[i], Y[i-1]) // equal outputs on distinct rows
		}
	}
	return X, Y
}

// dumpBytes is the JSON of a forest dump: f.Dump() for a Forest, the
// frozen dump for the oracle.
func dumpBytes(t *testing.T, d *ForestDump) []byte {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trainMatrix is TrainForest over the selected rows with their presort.
func trainMatrix(X, Y Matrix, rows []int, cfg ForestConfig) (*Forest, error) {
	return TrainForest(X, Y, rows, ColumnOrders(X, rows), cfg)
}

// matrixFrom copies a row-pointer matrix into flat storage. All rows must
// share len(rows[0]); short rows copy partially and long rows truncate.
func matrixFrom(rows [][]float64) Matrix {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// trainRows fits a forest on row-pointer data through the flat entry point.
func trainRows(t *testing.T, X, Y [][]float64, cfg ForestConfig) *Forest {
	t.Helper()
	f, err := trainMatrix(matrixFrom(X), matrixFrom(Y), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlatTrainingMatchesLegacy grows forests through the production
// flat-matrix path and the frozen row-pointer reference across a spread of
// shapes and configurations, requiring byte-identical serialized models.
func TestFlatTrainingMatchesLegacy(t *testing.T) {
	rng := xrand.New(7)
	cases := []struct {
		n, inDim, outDim int
		cfg              ForestConfig
	}{
		{8, 1, 3, ForestConfig{Trees: 9, Seed: 1}},
		{40, 1, 13, ForestConfig{Trees: 15, Seed: 2}},
		{25, 4, 7, ForestConfig{Trees: 11, Seed: 3}},
		{30, 9, 5, ForestConfig{Trees: 8, Seed: 4}}, // three features per split
	}
	for ci, tc := range cases {
		X, Y := randomSet(rng, tc.n, tc.inDim, tc.outDim)
		want, err := legacyTrainForest(X, Y, tc.cfg)
		if err != nil {
			t.Fatalf("case %d: legacy: %v", ci, err)
		}
		got := trainRows(t, X, Y, tc.cfg)
		if !bytes.Equal(dumpBytes(t, got.Dump()), dumpBytes(t, want.dump())) {
			t.Fatalf("case %d: flat-matrix forest differs from legacy row-pointer forest", ci)
		}
	}
}

// TestFlatSubsetTrainingMatchesLegacy pins the row-indirection path the
// cross-validation grid uses: training on (X, Y, rows) straight off the
// full flat matrices must equal the legacy path over materialized fold
// copies.
func TestFlatSubsetTrainingMatchesLegacy(t *testing.T) {
	rng := xrand.New(11)
	X, Y := randomSet(rng, 60, 3, 9)
	xm, ym := matrixFrom(X), matrixFrom(Y)
	for trial := 0; trial < 8; trial++ {
		var rows []int
		for i := range X {
			if rng.Intn(3) != 0 {
				rows = append(rows, i)
			}
		}
		if len(rows) < 4 {
			continue
		}
		sub := func(M [][]float64) [][]float64 {
			out := make([][]float64, 0, len(rows))
			for _, r := range rows {
				// Copy rows: the legacy fold path materialized fresh rows,
				// so aliasing semantics match the historical designMatrix.
				out = append(out, append([]float64(nil), M[r]...))
			}
			return out
		}
		cfg := ForestConfig{Trees: 7, Seed: uint64(trial) + 21}
		want, err := legacyTrainForest(sub(X), sub(Y), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trainMatrix(xm, ym, rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dumpBytes(t, got.Dump()), dumpBytes(t, want.dump())) {
			t.Fatalf("trial %d: subset flat training differs from legacy fold materialization", trial)
		}
	}
}

// TestPooledTrainingDeterministic retrains the same configuration with the
// training pools warm (including a Recycle in between) and requires
// byte-identical forests: pooled scratch must never leak state into a
// model.
func TestPooledTrainingDeterministic(t *testing.T) {
	rng := xrand.New(31)
	X, Y := randomSet(rng, 45, 2, 8)
	xm, ym := matrixFrom(X), matrixFrom(Y)
	cfg := ForestConfig{Trees: 13, Seed: 77}
	first, err := trainMatrix(xm, ym, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := dumpBytes(t, first.Dump())
	oracle, err := legacyTrainForest(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, dumpBytes(t, oracle.dump())) {
		t.Fatal("cold-pool forest differs from the legacy forest")
	}
	// Recycle a throwaway forest to stir the pools with used buffers.
	scrap, err := trainMatrix(xm, ym, nil, ForestConfig{Trees: 13, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, xm.Rows*ym.Cols)
	if err := scrap.PredictRowsInto(dst, xm, nil); err != nil {
		t.Fatal(err)
	}
	scrap.Recycle()
	for trial := 0; trial < 3; trial++ {
		again, err := trainMatrix(xm, ym, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dumpBytes(t, again.Dump()), want) {
			t.Fatalf("trial %d: warm-pool retraining changed the forest", trial)
		}
		again.Recycle()
	}
}
