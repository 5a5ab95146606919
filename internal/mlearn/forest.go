package mlearn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/xparallel"
	"repro/internal/xrand"
)

// Sentinel errors for the inference APIs. Serving paths branch on these
// with errors.Is instead of recovering panics (the internal/nperr
// convention; core wraps them with context).
var (
	// ErrEmptyForest marks prediction attempted on a forest with no trees
	// (a zero-value or recycled Forest).
	ErrEmptyForest = errors.New("mlearn: empty forest")

	// ErrDimMismatch marks an input or output buffer whose length does not
	// match the forest's dimensionality.
	ErrDimMismatch = errors.New("mlearn: dimension mismatch")
)

// ForestConfig controls random forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// Seed makes training deterministic.
	Seed uint64
}

func (c ForestConfig) trees() int {
	if c.Trees <= 0 {
		return 100
	}
	return c.Trees
}

// Forest is a multi-output Random Forest regressor: bagged CART trees with
// per-split feature subsampling, predictions averaged across trees. This is
// the model of the paper's §5 ("we use a multi-output Random Forest
// regressor ... known for its ability to learn non-linear functions with
// very little or no tuning").
//
// A forest has one form, its flat arrays: training concatenates the grown
// trees into them, LoadForest builds them, Dump writes from them and every
// prediction walks them. A trained or loaded forest is immutable and safe
// for concurrent use.
type Forest struct {
	*flat  // nil for the zero Forest and once recycled
	inDim  int
	outDim int

	// stepT is the lazily built interval table of a single-feature forest
	// (see steptable.go); stepOnce guards its one-time construction.
	stepT    atomic.Pointer[stepTable]
	stepOnce sync.Once
}

// flat holds trees as parallel arrays indexed by node id. A forest's trees
// are concatenated in tree order: tree i's nodes start at roots[i] (its
// root first, every child after its parent) and child ids are global. Leaf
// vectors are packed back to back in node order, and a leaf reuses its
// left field as its vector's offset in leaves. The grower fills the same
// layout for one tree, with tree-local ids and no roots.
type flat struct {
	roots  []int32 // per-tree root node id
	feat   []int32 // split feature; -1 marks a leaf
	thr    []float64
	left   []int32 // left child; for a leaf, offset of its vector in leaves
	right  []int32 // right child; 0 for a leaf
	leaves []float64
}

// treePool recycles the grower's per-tree scratch; forestPool recycles the
// arrays of forests handed back by Recycle.
var (
	treePool   = sync.Pool{New: func() any { return new(flat) }}
	forestPool = sync.Pool{New: func() any { return new(flat) }}
)

// reserve empties s for a tree of at most nodes nodes and leaves leaf
// floats, keeping its backing where that is large enough.
func (s *flat) reserve(nodes, leaves int) {
	s.feat = sized(s.feat, nodes)[:0]
	s.thr = sized(s.thr, nodes)[:0]
	s.left = sized(s.left, nodes)[:0]
	s.right = sized(s.right, nodes)[:0]
	s.leaves = sized(s.leaves, leaves)[:0]
}

// addNode appends a leaf-marked node without a vector and returns its id.
func (s *flat) addNode() int32 {
	s.feat = append(s.feat, -1)
	s.thr = append(s.thr, 0)
	s.left = append(s.left, 0)
	s.right = append(s.right, 0)
	return int32(len(s.feat) - 1)
}

// kept is sized for the arrays a forest keeps: a pooled backing more than
// twice n is let go, so a forest that serves for the life of the process
// never holds a larger forest's capacity.
func kept[T any](b []T, n int) []T {
	if cap(b) > 2*n {
		return make([]T, n)
	}
	return sized(b, n)
}

// concat joins grown trees into one forest's arrays in tree order: each
// tree's node ids shift by its root's id and its leaf offsets by the leaf
// floats of the trees before it. The arrays come from forestPool.
func concat(trees []*flat) *flat {
	nodes, leaves := 0, 0
	for _, t := range trees {
		nodes += len(t.feat)
		leaves += len(t.leaves)
	}
	c := forestPool.Get().(*flat)
	c.roots = kept(c.roots, len(trees))
	c.feat = kept(c.feat, nodes)
	c.thr = kept(c.thr, nodes)
	c.left = kept(c.left, nodes)
	c.right = kept(c.right, nodes)
	c.leaves = kept(c.leaves, leaves)
	base, lbase := int32(0), int32(0)
	for ti, t := range trees {
		c.roots[ti] = base
		copy(c.feat[base:], t.feat)
		copy(c.thr[base:], t.thr)
		for i, fx := range t.feat {
			g := base + int32(i)
			if fx < 0 {
				c.left[g], c.right[g] = lbase+t.left[i], 0
			} else {
				c.left[g], c.right[g] = base+t.left[i], base+t.right[i]
			}
		}
		copy(c.leaves[lbase:], t.leaves)
		base += int32(len(t.feat))
		lbase += int32(len(t.leaves))
	}
	return c
}

// TrainForest fits a forest on the selected rows (nil = every row) of the
// flat matrices X and Y. ord is the presort of those rows: ord[f] lists
// the positions 0..len(rows)-1 ordered ascending by feature f's value,
// ties by position — what ColumnOrders(X, rows) produces, or SubsetOrders
// derives in O(n) from one whole-matrix argsort, so cross-validation
// sorts each candidate once for all its folds. Every bootstrap tree
// derives its own sample orders from it (see growBootstrapTree).
//
// The trees take the regression defaults, with no tuning knob (§5): fully
// grown, each split drawn from max(1, d/3) random features. Trees are
// grown concurrently on the shared worker pool; every tree derives an
// independent random stream from the root seed and its own index, so the
// ensemble is bit-identical at any worker count (including the serial
// pool). X, Y and ord are only read during the call and may be pooled or
// mutated afterwards: the forest copies what it keeps.
func TrainForest(X, Y Matrix, rows []int, ord [][]int, cfg ForestConfig) (*Forest, error) {
	if !X.ok() || !Y.ok() || X.Rows != Y.Rows {
		return nil, fmt.Errorf("mlearn: bad training set: %d inputs, %d outputs", X.Rows, Y.Rows)
	}
	n := X.Rows
	if rows != nil {
		n = len(rows)
		for _, r := range rows {
			if r < 0 || r >= X.Rows {
				return nil, fmt.Errorf("mlearn: training row %d out of range (%d rows)", r, X.Rows)
			}
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("mlearn: bad training set: 0 inputs, 0 outputs")
	}
	inDim := X.Cols
	if len(ord) != inDim {
		return nil, fmt.Errorf("mlearn: presort covers %d features, want %d", len(ord), inDim)
	}
	for fi := range ord {
		if len(ord[fi]) != n {
			return nil, fmt.Errorf("mlearn: presort order %d has %d entries, want %d", fi, len(ord[fi]), n)
		}
	}
	m := max(1, inDim/3)
	root := xrand.Mix(cfg.Seed, 0xF07E57)
	trees := xparallel.Map(cfg.trees(), func(i int) *flat {
		rng := xrand.New(xrand.Mix(root, uint64(i)))
		return growBootstrapTree(X, Y, rows, n, ord, m, rng)
	})
	f := &Forest{flat: concat(trees), inDim: inDim, outDim: Y.Cols}
	for _, t := range trees {
		treePool.Put(t)
	}
	return f, nil
}

// empty reports whether the forest has no trees to predict with.
func (f *Forest) empty() bool { return f == nil || f.flat == nil || len(f.roots) == 0 }

// PredictInto writes the forest's averaged output vector for input x into
// dst (len OutDim), returning ErrEmptyForest / ErrDimMismatch instead of
// panicking. A single-feature forest answers from its interval table
// (built by the first call, or by Warm); any other walks every tree. The
// call allocates nothing after that one-time build.
//
//numalint:noalloc
func (f *Forest) PredictInto(dst, x []float64) error {
	if err := f.check(dst, x); err != nil {
		return err
	}
	n := float64(len(f.roots))
	if f.inDim == 1 {
		if st := f.step(); st.sums != nil {
			row := st.row(x[0], f.outDim)
			for d := range dst {
				dst[d] = row[d] / n
			}
			return nil
		}
	}
	clear(dst)
	f.accumulate(dst, x)
	for d := range dst {
		dst[d] /= n
	}
	return nil
}

// check validates one prediction's buffers against the forest.
func (f *Forest) check(dst, x []float64) error {
	if f.empty() {
		return ErrEmptyForest
	}
	if len(x) != f.inDim {
		return fmt.Errorf("input has %d features, forest expects %d: %w", len(x), f.inDim, ErrDimMismatch)
	}
	if len(dst) != f.outDim {
		return fmt.Errorf("output buffer has %d entries, forest produces %d: %w", len(dst), f.outDim, ErrDimMismatch)
	}
	return nil
}

// accumulate adds every tree's leaf vector for x into dst, one tree at a
// time in tree order. Callers have validated dimensions.
func (f *Forest) accumulate(dst, x []float64) {
	feat, thr, left, right, leaves := f.feat, f.thr, f.left, f.right, f.leaves
	for _, i := range f.roots {
		for fx := feat[i]; fx >= 0; fx = feat[i] {
			if x[fx] <= thr[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
		leaf := leaves[left[i] : int(left[i])+len(dst)]
		for d := range dst {
			dst[d] += leaf[d]
		}
	}
}

// PredictRowsInto fills dst (flat, row-major, len nrows*OutDim) with the
// predictions for the selected rows (nil = every row) of the flat input
// matrix. Traversal is tree-outer/row-inner: each tree's nodes stay hot in
// cache while every row walks it, the fast order for scoring whole
// datasets. Sums still run tree by tree in tree order, so row r is
// bit-identical to PredictInto on row rowAt(sel, r); the call performs no
// allocations.
func (f *Forest) PredictRowsInto(dst []float64, xs Matrix, sel []int) error {
	if f.empty() {
		return ErrEmptyForest
	}
	if xs.Cols != f.inDim {
		return fmt.Errorf("input rows have %d features, forest expects %d: %w", xs.Cols, f.inDim, ErrDimMismatch)
	}
	n := xs.Rows
	if sel != nil {
		n = len(sel)
		for _, r := range sel {
			if r < 0 || r >= xs.Rows {
				return fmt.Errorf("selected row %d out of range (%d rows): %w", r, xs.Rows, ErrDimMismatch)
			}
		}
	}
	if len(dst) != n*f.outDim {
		return fmt.Errorf("output buffer has %d entries, want %d: %w", len(dst), n*f.outDim, ErrDimMismatch)
	}
	clear(dst)
	feat, thr, left, right, leaves, od := f.feat, f.thr, f.left, f.right, f.leaves, f.outDim
	for _, root := range f.roots {
		for r := 0; r < n; r++ {
			x := xs.Row(rowAt(sel, r))
			i := root
			for fx := feat[i]; fx >= 0; fx = feat[i] {
				if x[fx] <= thr[i] {
					i = left[i]
				} else {
					i = right[i]
				}
			}
			leaf := leaves[left[i] : int(left[i])+od]
			out := dst[r*od : (r+1)*od]
			for d := range out {
				out[d] += leaf[d]
			}
		}
	}
	nt := float64(len(f.roots))
	for i := range dst {
		dst[i] /= nt
	}
	return nil
}

// Recycle hands the forest's arrays to the training pool and empties the
// forest. Callers own the contract: the forest must never be used again,
// and nothing may retain views into it. The cross-validation grid calls
// this after scoring each ephemeral selection forest, so its forests reuse
// each other's node storage instead of allocating it. Serving and
// serialized forests are simply never recycled.
func (f *Forest) Recycle() {
	if f.flat != nil {
		forestPool.Put(f.flat)
		f.flat = nil
	}
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int {
	if f.empty() {
		return 0
	}
	return len(f.roots)
}

// InDim returns the expected input dimensionality.
func (f *Forest) InDim() int { return f.inDim }

// OutDim returns the output dimensionality.
func (f *Forest) OutDim() int { return f.outDim }
