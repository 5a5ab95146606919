package mlearn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/xparallel"
	"repro/internal/xrand"
)

// ForestConfig controls random forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// Tree configures the individual trees. If Tree.FeatureSubset is 0 a
	// regression default of max(1, d/3) is applied.
	Tree TreeConfig
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
type Forest struct {
	trees  []*Tree
	inDim  int
	outDim int
	// compiled is the flat SoA inference representation, built lazily on
	// first use (Compiled): the model-selection grid trains thousands of
	// ephemeral forests that are scored once by the pointer walk and never
	// pay compilation, while serving forests compile exactly once. The
	// pointer trees above remain the construction- and serialization-time
	// form.
	compiled    atomic.Pointer[CompiledForest]
	compileOnce sync.Once
}

// forestScratch is the pooled per-forest presort state: the (value, index)
// sort buffer and the base set's per-feature sorted orders every bootstrap
// tree derives its own orders from.
type forestScratch struct {
	pairs   []sortPair
	ordBack []int
	ord     [][]int
}

var forestScratchPool = sync.Pool{New: func() any { return new(forestScratch) }}

func getForestScratch(n, inDim int) *forestScratch {
	fs := forestScratchPool.Get().(*forestScratch)
	if cap(fs.pairs) < n {
		fs.pairs = make([]sortPair, n)
	} else {
		fs.pairs = fs.pairs[:n]
	}
	fs.ordBack = intsCap(fs.ordBack, n*inDim)
	if cap(fs.ord) < inDim {
		fs.ord = make([][]int, inDim)
	}
	fs.ord = fs.ord[:inDim]
	for f := 0; f < inDim; f++ {
		fs.ord[f] = fs.ordBack[f*n : (f+1)*n]
	}
	return fs
}

// TrainForest fits a forest on row-pointer (X, Y). It is the
// compatibility wrapper over TrainForestMatrix: the rows are flattened
// into strided matrices once, and the grown ensemble is bit-identical to
// the historical row-pointer training at any worker count.
func TrainForest(X, Y [][]float64, cfg ForestConfig) (*Forest, error) {
	if err := validateSet(X, Y); err != nil {
		return nil, err
	}
	return TrainForestMatrix(MatrixFrom(X), MatrixFrom(Y), nil, cfg)
}

// TrainForestMatrix fits a forest on the selected rows (nil = every row)
// of the flat matrices X and Y — the training data plane's native entry
// point. Cross-validation trains every fold directly on the shared design
// matrices by passing the fold's row indices; nothing is copied. Trees are
// grown concurrently on the shared worker pool; every tree derives an
// independent random stream from the root seed and its own index, so the
// ensemble is bit-identical at any worker count (including the serial
// pool). X and Y are only read during the call and may be pooled or
// mutated afterwards: trees copy what they keep.
func TrainForestMatrix(X, Y Matrix, rows []int, cfg ForestConfig) (*Forest, error) {
	return TrainForestMatrixOrd(X, Y, rows, nil, cfg)
}

// TrainForestMatrixOrd is TrainForestMatrix with caller-supplied presorted
// base orders: baseOrd[f] must list the positions 0..len(rows)-1 of the
// selected rows ordered ascending by feature f's value, ties by position —
// what ColumnOrders(X, rows) produces, or SubsetOrders derives in O(n)
// from one whole-matrix argsort. Cross-validation trains k folds of the
// same candidate matrix; sharing the argsort across them removes the
// dominant per-forest sort. A nil baseOrd computes the presort internally.
func TrainForestMatrixOrd(X, Y Matrix, rows []int, baseOrd [][]int, cfg ForestConfig) (*Forest, error) {
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
	treeCfg := cfg.Tree
	if treeCfg.FeatureSubset <= 0 {
		treeCfg.FeatureSubset = inDim / 3
		if treeCfg.FeatureSubset < 1 {
			treeCfg.FeatureSubset = 1
		}
	}
	f := &Forest{inDim: inDim, outDim: Y.Cols}
	root := xrand.Mix(cfg.Seed, 0xF07E57)
	// Presort the base set once per forest (unless the caller shares one):
	// every bootstrap tree derives its per-feature sample orders from
	// these in O(n) instead of sorting its own sample (see
	// growBootstrapTree). Orders are over base positions (indices into
	// rows), ties by position, fully deterministic.
	var fs *forestScratch
	if baseOrd == nil {
		fs = getForestScratch(n, inDim)
		for fi := 0; fi < inDim; fi++ {
			pairs := fs.pairs
			for i := range pairs {
				pairs[i] = sortPair{v: X.At(rowAt(rows, i), fi), i: int32(i)}
			}
			sortPairs(pairs)
			ord := fs.ord[fi]
			for k, p := range pairs {
				ord[k] = int(p.i)
			}
		}
		baseOrd = fs.ord
	} else {
		if len(baseOrd) != inDim {
			return nil, fmt.Errorf("mlearn: presort covers %d features, want %d", len(baseOrd), inDim)
		}
		for fi := range baseOrd {
			if len(baseOrd[fi]) != n {
				return nil, fmt.Errorf("mlearn: presort order %d has %d entries, want %d", fi, len(baseOrd[fi]), n)
			}
		}
	}
	f.trees = xparallel.Map(cfg.trees(), 0, func(i int) *Tree {
		rng := xrand.New(xrand.Mix(root, uint64(i)))
		return growBootstrapTree(X, Y, rows, n, baseOrd, treeCfg, rng)
	})
	if fs != nil {
		forestScratchPool.Put(fs)
	}
	return f, nil
}

// Compiled returns the forest's flat inference representation, building it
// on first use (never nil for a non-empty trained or loaded forest). Safe
// for concurrent callers.
func (f *Forest) Compiled() *CompiledForest {
	if f == nil || len(f.trees) == 0 {
		return nil
	}
	if c := f.compiled.Load(); c != nil {
		return c
	}
	f.compileOnce.Do(func() {
		f.compiled.Store(compile(f.trees, f.inDim, f.outDim))
	})
	return f.compiled.Load()
}

// Predict averages the trees' output vectors for input x. An empty forest
// (the zero value) yields the zero vector instead of dividing by zero; a
// dimension mismatch panics — use PredictInto for a typed error.
func (f *Forest) Predict(x []float64) []float64 {
	out := make([]float64, f.outDim)
	if len(f.trees) == 0 {
		return out
	}
	if err := f.PredictInto(out, x); err != nil {
		panic(err)
	}
	return out
}

// PredictInto is the allocation-free Predict: it writes the averaged
// output vector for x into dst (len OutDim) via the compiled flat
// representation, returning ErrEmptyForest / ErrDimMismatch instead of
// panicking. The result is bit-identical to Predict.
func (f *Forest) PredictInto(dst, x []float64) error {
	c := f.Compiled()
	if c == nil {
		return ErrEmptyForest
	}
	return c.PredictInto(dst, x)
}

// PredictRowsInto scores the selected rows (nil = every row) of the flat
// input matrix into dst (row-major, len nrows*OutDim) without allocating.
// An already-compiled forest serves the batch through the SoA walk; an
// uncompiled forest is scored by an equivalent pointer walk instead of
// paying compilation — the right trade for ephemeral cross-validation
// forests that are trained once and scored once. Results are bit-identical
// either way (same traversal, accumulation and division sequence).
func (f *Forest) PredictRowsInto(dst []float64, xs Matrix, sel []int) error {
	if f == nil || len(f.trees) == 0 {
		return ErrEmptyForest
	}
	if c := f.compiled.Load(); c != nil {
		return c.PredictRowsInto(dst, xs, sel)
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
	for i := range dst {
		dst[i] = 0
	}
	for _, t := range f.trees {
		for r := 0; r < n; r++ {
			v := t.leaf(xs.Row(rowAt(sel, r)))
			out := dst[r*f.outDim : (r+1)*f.outDim]
			for d := range out {
				out[d] += v[d]
			}
		}
	}
	nt := float64(len(f.trees))
	for i := range dst {
		dst[i] /= nt
	}
	return nil
}

// Recycle returns the forest's pooled per-tree storage (node slices and
// leaf-mean arenas) to the training pools and empties the forest. Callers
// own the contract: the forest must never be used again, and nothing may
// retain views into its trees. The cross-validation grid calls this after
// scoring each ephemeral selection forest, turning the grid's dominant
// allocation source into pool reuse. Serving and serialized forests are
// simply never recycled.
func (f *Forest) Recycle() {
	for _, t := range f.trees {
		if t.store == nil {
			continue
		}
		t.store.nodes = t.nodes[:0]
		treeStorePool.Put(t.store)
		t.store = nil
		t.nodes = nil
	}
	f.trees = nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// InDim returns the expected input dimensionality.
func (f *Forest) InDim() int { return f.inDim }

// OutDim returns the output dimensionality.
func (f *Forest) OutDim() int { return f.outDim }
