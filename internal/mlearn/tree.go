// Package mlearn implements the machine-learning building blocks the paper
// uses, from scratch on the standard library: multi-output CART regression
// trees, a multi-output Random Forest regressor (§5's model), k-means
// clustering with silhouette-based selection of k (the workload-category
// analysis of §5), Sequential Forward Selection (the HPE feature-selection
// baseline), and leave-one-group-out cross-validation with the accuracy
// metrics reported in §6.
package mlearn

import (
	"math"
	"sort"
	"sync"

	"repro/internal/xrand"
)

// growBootstrapTree grows one bootstrap tree over the selected rows of the
// flat matrices (rows nil = every row): rng draws n base positions with
// replacement, and every feature's presorted order is derived in O(n) from
// baseOrd — the base set's per-feature sorted position orders — instead of
// re-sorting per tree: the bootstrap positions of each base position are
// emitted, ascending, while walking the base order. Relative to a per-tree
// sort this arranges equal-valued samples differently, which is harmless:
// tied samples sharing a base row are bit-for-bit interchangeable in every
// prefix sum, and genuinely tied distinct rows take bestSplit's fallback
// sort either way. The tree comes back in pooled scratch (treePool), with
// tree-local node ids; TrainForest concatenates it into the forest. Each
// split draws its m candidate features from rng.
func growBootstrapTree(X, Y Matrix, rows []int, n int, baseOrd [][]int, m int, rng *xrand.SplitMix64) *flat {
	g := getGrower(X, Y, n, m, rng)
	ks := g.ks[:n]
	for j := 0; j < n; j++ {
		k := rng.Intn(n)
		ks[j] = k
		g.setSample(j, rowAt(rows, k))
	}
	// Bucket the bootstrap positions by base position (positions stay
	// ascending because j ascends). starts and cursor come from the pool,
	// so they are cleared explicitly before counting.
	starts := g.starts[:n+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, k := range ks {
		starts[k+1]++
	}
	for i := 0; i < n; i++ {
		starts[i+1] += starts[i]
	}
	cursor := g.cursor[:n]
	for i := range cursor {
		cursor[i] = 0
	}
	pos := g.pos[:n]
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
	g.grow(0, n)
	t := g.t
	putGrower(g)
	return t
}

// grower holds the scratch state for one tree induction over flat strided
// matrices. Samples are positions 0..n-1; xoff/yoff map each position to
// its row's offset in the x/y backing, so bootstrap duplicates and
// row-subset training (cross-validation folds) share the caller's matrices
// instead of materializing per-tree row copies. All buffers live in a sync.Pool and
// are reused across trees and forests: the sample indices are partitioned
// in place (children are subslices of the parent's idx and ford segments),
// and the split search reuses the value and prefix-sum buffers, so growing
// a node allocates nothing: it appends to the pooled tree scratch t.
//
// Induction is presort-based (classic presort CART): every feature's
// sample order is derived once per tree from the forest's presort, then
// maintained through each node's partition by a stable split of the order
// segments. bestSplit therefore costs O(features·n) per node instead of
// the O(features·n log n) a per-node re-sort would.
type grower struct {
	x    []float64 // flat feature storage, row-major
	xc   int       // feature stride (input dimensionality)
	y    []float64 // flat output storage, row-major
	yc   int       // output stride (output dimensionality)
	xoff []int     // sample position -> offset of its feature row in x
	yoff []int     // sample position -> offset of its output row in y
	m    int       // candidate features per split; m < xc draws them from rng
	rng  *xrand.SplitMix64
	t    *flat // the tree being grown: tree-local ids, leaves in node order

	idx      []int     // sample positions, partitioned in place during growth
	scratch  []int     // spill buffer for the right half of a partition
	side     []bool    // per-sample split side of the current node (true = left)
	features []int     // candidate feature ids (reshuffled per split)
	ford     [][]int   // per-feature presorted sample orders, partitioned in lockstep with idx
	fordBack []int     // contiguous backing for ford
	vals     []float64 // reused buffer for the node's sorted feature values
	sorter   argsort   // order+vals buffers for the tie fallback sort
	sum      []float64
	sumsq    []float64
	total    []float64
	totalSq  []float64

	// Bootstrap scratch (growBootstrapTree).
	ks     []int
	starts []int32
	pos    []int32
	cursor []int32
}

var growerPool = sync.Pool{New: func() any { return new(grower) }}

// sized returns b resliced to length n, or a fresh slice when b's backing
// is too small. Pooled scratch is sized through it.
func sized[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// getGrower checks a grower out of the pool, sized for n samples of the
// given matrices. Every buffer a tree reads is either fully rewritten
// before use or explicitly cleared here, so pooled garbage can never leak
// into induction (determinism depends on it).
func getGrower(X, Y Matrix, n, m int, rng *xrand.SplitMix64) *grower {
	g := growerPool.Get().(*grower)
	inDim, outDim := X.Cols, Y.Cols
	g.x, g.xc, g.y, g.yc = X.Data, X.Cols, Y.Data, Y.Cols
	g.m, g.rng = m, rng

	// The tree's scratch: a binary tree over n samples with >= 1 sample per
	// leaf has at most 2n-1 nodes and n leaves, so reserving that much
	// removes every per-node allocation.
	g.t = treePool.Get().(*flat)
	g.t.reserve(2*n-1, n*outDim)

	g.xoff = sized(g.xoff, n)
	g.yoff = sized(g.yoff, n)
	g.idx = sized(g.idx, n)
	for i := range g.idx {
		g.idx[i] = i
	}
	g.scratch = sized(g.scratch, n)
	g.side = sized(g.side, n)
	g.features = sized(g.features, inDim)
	g.fordBack = sized(g.fordBack, n*inDim)
	g.ford = sized(g.ford, inDim)
	for f := 0; f < inDim; f++ {
		g.ford[f] = g.fordBack[f*n : (f+1)*n]
	}
	g.vals = sized(g.vals, n)
	g.sorter.order = sized(g.sorter.order, n)
	g.sum = sized(g.sum, outDim)
	g.sumsq = sized(g.sumsq, outDim)
	g.total = sized(g.total, outDim)
	g.totalSq = sized(g.totalSq, outDim)
	g.ks = sized(g.ks, n)
	g.starts = sized(g.starts, n+1)
	g.pos = sized(g.pos, n)
	g.cursor = sized(g.cursor, n)
	return g
}

// putGrower returns a grower to the pool, dropping references to the
// caller's matrices and the grown tree (the caller owns it) but keeping
// every scratch buffer.
func putGrower(g *grower) {
	g.x, g.y = nil, nil
	g.t, g.rng = nil, nil
	growerPool.Put(g)
}

// xAt reads sample i's feature f through the precomputed row offset.
func (g *grower) xAt(i, f int) float64 { return g.x[g.xoff[i]+f] }

// yRow returns sample i's output row (a view; never mutated).
func (g *grower) yRow(i int) []float64 {
	o := g.yoff[i]
	return g.y[o : o+g.yc]
}

// setSample points sample position i at storage row r.
func (g *grower) setSample(i, r int) {
	g.xoff[i] = r * g.xc
	g.yoff[i] = r * g.yc
}

// argsort sorts an index slice by parallel float values, implementing
// sort.Interface on a reused struct. It backs the tie fallback in
// bestSplit: when a feature's values are not all distinct within a node,
// the maintained presorted order is replaced by the same per-node unstable
// sort the original induction used, so the floating-point accumulation
// sequence over tie groups — and therefore the grown tree — stays
// bit-identical to the pre-presort implementation.
type argsort struct {
	order []int
	vals  []float64
}

func (a *argsort) Len() int           { return len(a.order) }
func (a *argsort) Less(i, j int) bool { return a.vals[i] < a.vals[j] }
func (a *argsort) Swap(i, j int) {
	a.order[i], a.order[j] = a.order[j], a.order[i]
	a.vals[i], a.vals[j] = a.vals[j], a.vals[i]
}

// grow recursively builds the subtree over the sample segment [lo, hi) of
// g.idx (and of every g.ford order) and returns its node index. A node
// becomes a leaf below two samples, when pure, or when no split exists.
func (g *grower) grow(lo, hi int) int32 {
	t := g.t
	idx := g.idx[lo:hi]
	self := t.addNode()

	// A single sample is a leaf of its own row. Any other node makes one
	// pass over its samples for its output sums, which the split search
	// and a leaf's mean both read, and which tells whether it is pure.
	if len(idx) == 1 {
		m := g.leafVec(self)
		o := g.yoff[idx[0]]
		for d, v := range g.y[o : o+g.yc] {
			m[d] = 0 + v // the bits of summing from zero, then dividing by one
		}
		return self
	}
	if g.sums(idx) {
		return g.leaf(self, len(idx))
	}

	feat, thr, ok := g.bestSplit(lo, hi)
	if !ok {
		return g.leaf(self, len(idx))
	}
	// Partition the sample indices, recording each sample's side so the
	// per-feature order partitions below do one boolean lookup instead of
	// re-evaluating the float predicate.
	nl, nr := 0, 0
	for _, i := range idx {
		if g.xAt(i, feat) <= thr {
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
	// A threshold is the midpoint of two adjacent distinct values, and
	// rounding can land it on the upper one: when that is the largest
	// value every sample falls on one side, and the node stays a leaf.
	if nl == 0 || nr == 0 {
		return g.leaf(self, len(idx))
	}
	// Maintain every feature's presorted order through the partition: a
	// stable split by the same predicate keeps each child segment sorted.
	// The split feature's own order is exempt: it is sorted by value and
	// the threshold lies strictly between its nl-th and nl+1-th distinct
	// values, so the stable partition would reproduce the segment as-is.
	for f := range g.ford {
		if f == feat {
			continue
		}
		partitionBySide(g.side, g.ford[f][lo:hi], g.scratch)
	}
	l := g.grow(lo, lo+nl)
	r := g.grow(lo+nl, hi)
	t.feat[self] = int32(feat)
	t.thr[self] = thr
	t.left[self] = l
	t.right[self] = r
	return self
}

// leaf makes node self a leaf over its n samples: its vector is their
// mean, total/n from the node's sums (g.total is still the node's own: a
// node becomes a leaf before any later node is added).
func (g *grower) leaf(self int32, n int) int32 {
	m := g.leafVec(self)
	for d, s := range g.total[:g.yc] {
		m[d] = s / float64(n)
	}
	return self
}

// leafVec appends a vector to the tree's packed leaf vectors, points leaf
// self at it and returns it for the caller to fill. Leaves are made in
// node order, so their vectors are packed in node order.
func (g *grower) leafVec(self int32) []float64 {
	t := g.t
	off := len(t.leaves)
	t.leaves = t.leaves[:off+g.yc]
	t.left[self] = int32(off)
	return t.leaves[off:]
}

// sums makes one pass over the node's samples in idx order: g.total and
// g.totalSq become the sums of their output rows and of the rows' squares,
// accumulated from zero, and the result reports whether every row equals
// the first (a pure node).
func (g *grower) sums(idx []int) bool {
	yc, y, yoff := g.yc, g.y, g.yoff
	total, totalSq := g.total[:yc], g.totalSq[:yc]
	clear(total)
	clear(totalSq)
	o := yoff[idx[0]]
	first := y[o : o+yc]
	pure := true
	k := 0
	// Compare rows with the first only until one differs.
	for ; k < len(idx) && pure; k++ {
		o := yoff[idx[k]]
		for d, v := range y[o : o+yc] {
			total[d] += v
			totalSq[d] += v * v
			if v != first[d] {
				pure = false
			}
		}
	}
	for _, i := range idx[k:] {
		o := yoff[i]
		for d, v := range y[o : o+yc] {
			total[d] += v
			totalSq[d] += v * v
		}
	}
	return pure
}

// partitionBySide stably splits seg in place by the recorded split sides:
// left-side samples compact into the front (reads stay ahead of writes),
// right-side samples spill to scratch and are copied back behind them.
func partitionBySide(side []bool, seg, scratch []int) {
	nl, nr := 0, 0
	for _, i := range seg {
		if side[i] {
			seg[nl] = i
			nl++
		} else {
			scratch[nr] = i
			nr++
		}
	}
	copy(seg[nl:], scratch[:nr])
}

// bestSplit scans candidate features for the split minimizing the total
// squared error of the two children, using prefix sums over the maintained
// presorted orders — no sorting happens here. It reads the node's output
// sums from g.total and g.totalSq (grow's sums pass).
func (g *grower) bestSplit(lo, hi int) (int, float64, bool) {
	features := g.features[:g.xc]
	for i := range features {
		features[i] = i
	}
	if g.m < g.xc {
		g.rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.m]
	}

	n := hi - lo
	idx := g.idx[lo:hi]
	vals := g.vals[:n]
	x, xoff, y, yoff, yc := g.x, g.xoff, g.y, g.yoff, g.yc
	sum, sumsq := g.sum[:yc], g.sumsq[:yc]
	total, totalSq := g.total[:yc], g.totalSq[:yc]
	bestGain := math.Inf(-1)
	bestFeat, bestThr := -1, 0.0

	// Gain compares children only (the parent SSE is constant), so the scan
	// just minimizes child SSE.
	for _, f := range features {
		// One pass fills the node's sorted values and detects harmful ties.
		// The presorted order is usable directly when every tie group is
		// harmless: equal feature values admit many valid sort orders, and
		// the floating-point prefix sums differ between them unless the
		// tied samples also share identical output rows. Bootstrap
		// duplicates — by far the dominant source of ties — map to the same
		// storage row, so almost all groups pass the cheap row-offset
		// check (and once a harmful tie is found the check short-circuits).
		// A genuine tie (distinct outputs on one feature value) re-sorts
		// from the node's partition order with the same unstable sort the
		// original induction used, keeping the grown tree bit-identical to
		// the pre-presort implementation.
		order := g.ford[f][lo:hi]
		ties := false
		vals[0] = x[xoff[order[0]]+f]
		for k := 1; k < n; k++ {
			v := x[xoff[order[k]]+f]
			vals[k] = v
			if v == vals[k-1] && !ties && !g.sameRow(order[k-1], order[k]) {
				ties = true
			}
		}
		if vals[0] == vals[n-1] {
			continue // constant feature
		}
		if ties {
			sOrder := g.sorter.order[:n]
			copy(sOrder, idx)
			for k, i := range sOrder {
				vals[k] = x[xoff[i]+f]
			}
			g.sorter.order, g.sorter.vals = sOrder, vals
			sort.Sort(&g.sorter)
			order = sOrder
		}
		clear(sum)
		clear(sumsq)
		// Each step adds sample k to the left prefix; where a split may
		// fall (between distinct values) the same pass over its row also
		// sums the two children's squared errors.
		for k := 0; k < n-1; k++ {
			o := yoff[order[k]]
			row := y[o : o+yc]
			if vals[k] == vals[k+1] {
				for d, v := range row {
					sum[d] += v
					sumsq[d] += v * v
				}
				continue // cannot split between equal values
			}
			nl, nr := float64(k+1), float64(n-k-1)
			var childSSE float64
			for d, v := range row {
				s := sum[d] + v
				q := sumsq[d] + v*v
				sum[d], sumsq[d] = s, q
				rs := total[d] - s
				rq := totalSq[d] - q
				childSSE += (q - s*s/nl) + (rq - rs*rs/nr)
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

// sameRow reports whether samples a and b carry interchangeable outputs: a
// shared storage row (bootstrap duplicates, caught by the offset compare)
// or element-wise equal values. Tied feature values over such rows
// accumulate to identical prefix sums in any order.
func (g *grower) sameRow(a, b int) bool {
	if g.yoff[a] == g.yoff[b] {
		return true
	}
	ya, yb := g.yRow(a), g.yRow(b)
	for d := range ya {
		if ya[d] != yb[d] {
			return false
		}
	}
	return true
}
