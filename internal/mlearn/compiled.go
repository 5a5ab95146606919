package mlearn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Sentinel errors for the inference APIs. Serving paths branch on these
// with errors.Is instead of recovering panics (the internal/nperr
// convention; core wraps them with context).
var (
	// ErrEmptyForest marks prediction attempted on a forest with no trees
	// (a zero-value Forest or nil CompiledForest).
	ErrEmptyForest = errors.New("mlearn: empty forest")

	// ErrDimMismatch marks an input or output buffer whose length does not
	// match the forest's dimensionality.
	ErrDimMismatch = errors.New("mlearn: dimension mismatch")
)

// CompiledForest is the inference-time representation of a Forest: every
// tree flattened into contiguous struct-of-arrays storage so traversal
// touches dense cache lines instead of pointer-chasing per-tree node
// slices and per-leaf value allocations.
//
// All trees are concatenated into four parallel arrays (split feature,
// threshold, left child, right child) indexed by a global node id; roots
// holds each tree's root id. Leaf vectors are packed back to back into a
// single block, and a leaf node reuses its left field as the offset of its
// vector in that block. The representation is immutable after compilation
// and safe for concurrent use.
//
// Predictions are bit-identical to the pointer walk over the source trees:
// traversal order, accumulation order and the final division are the same
// floating-point operations in the same sequence.
type CompiledForest struct {
	inDim  int
	outDim int
	roots  []int32 // per-tree root node id
	feat   []int32 // split feature; -1 marks a leaf
	thr    []float64
	left   []int32 // left child; for leaves, offset into leaves
	right  []int32
	leaves []float64 // all leaf vectors, packed

	// stepT is the lazily-built interval table for single-feature forests
	// (see steptable.go); stepOnce guards its one-time construction.
	stepT    atomic.Pointer[stepTable]
	stepOnce sync.Once
}

// compile flattens the forest's pointer trees into SoA storage.
func compile(trees []*Tree, inDim, outDim int) *CompiledForest {
	total := 0
	nleaves := 0
	for _, t := range trees {
		total += len(t.nodes)
		for i := range t.nodes {
			if t.nodes[i].feature < 0 {
				nleaves++
			}
		}
	}
	c := &CompiledForest{
		inDim: inDim, outDim: outDim,
		roots:  make([]int32, len(trees)),
		feat:   make([]int32, total),
		thr:    make([]float64, total),
		left:   make([]int32, total),
		right:  make([]int32, total),
		leaves: make([]float64, 0, nleaves*outDim),
	}
	base := int32(0)
	for ti, t := range trees {
		c.roots[ti] = base // the grower always stores the root at index 0
		for ni := range t.nodes {
			nd := &t.nodes[ni]
			g := base + int32(ni)
			if nd.feature < 0 {
				c.feat[g] = -1
				c.left[g] = int32(len(c.leaves))
				c.leaves = append(c.leaves, nd.value...)
				continue
			}
			c.feat[g] = int32(nd.feature)
			c.thr[g] = nd.threshold
			c.left[g] = base + nd.left
			c.right[g] = base + nd.right
		}
		base += int32(len(t.nodes))
	}
	return c
}

// NumTrees returns the ensemble size.
func (c *CompiledForest) NumTrees() int { return len(c.roots) }

// InDim returns the expected input dimensionality.
func (c *CompiledForest) InDim() int { return c.inDim }

// OutDim returns the output dimensionality.
func (c *CompiledForest) OutDim() int { return c.outDim }

// NumNodes returns the total node count across all trees.
func (c *CompiledForest) NumNodes() int { return len(c.feat) }

func (c *CompiledForest) check(dst, x []float64) error {
	if c == nil || len(c.roots) == 0 {
		return ErrEmptyForest
	}
	if len(x) != c.inDim {
		return fmt.Errorf("input has %d features, forest expects %d: %w", len(x), c.inDim, ErrDimMismatch)
	}
	if len(dst) != c.outDim {
		return fmt.Errorf("output buffer has %d entries, forest produces %d: %w", len(dst), c.outDim, ErrDimMismatch)
	}
	return nil
}

// PredictInto writes the forest's averaged output vector for input x into
// dst (len dst must be OutDim). It performs no allocations after the
// (lazy, one-time) interval-table build for single-feature forests.
//
//numalint:noalloc
func (c *CompiledForest) PredictInto(dst, x []float64) error {
	if err := c.check(dst, x); err != nil {
		return err
	}
	n := float64(len(c.roots))
	if c.inDim == 1 {
		if st := c.step(); st.sums != nil {
			row := st.row(x[0], c.outDim)
			for d := range dst {
				dst[d] = row[d] / n
			}
			return nil
		}
	}
	for d := range dst {
		dst[d] = 0
	}
	c.accumulate(dst, x)
	for d := range dst {
		dst[d] /= n
	}
	return nil
}

// accumulate adds every tree's leaf vector for x into dst, one tree at a
// time in tree order — the pointer walk's accumulation order, so sums are
// bit-identical to it. Callers have validated dimensions.
func (c *CompiledForest) accumulate(dst, x []float64) {
	feat, thr, left, right := c.feat, c.thr, c.left, c.right
	for _, i := range c.roots {
		for f := feat[i]; f >= 0; f = feat[i] {
			if x[f] <= thr[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
		leaf := c.leaves[left[i] : int(left[i])+len(dst)]
		for d := range dst {
			dst[d] += leaf[d]
		}
	}
}

// PredictRowsInto fills dst (flat, row-major, len nrows*OutDim) with the
// predictions for the selected rows (nil = every row) of the flat input
// matrix. Traversal is tree-outer/row-inner: each tree's nodes stay hot in
// cache while every row walks it, the fast order for scoring whole
// datasets. Result r is bit-identical to PredictInto on row rowAt(sel, r),
// and the call performs no allocations.
func (c *CompiledForest) PredictRowsInto(dst []float64, xs Matrix, sel []int) error {
	if c == nil || len(c.roots) == 0 {
		return ErrEmptyForest
	}
	if xs.Cols != c.inDim {
		return fmt.Errorf("input rows have %d features, forest expects %d: %w", xs.Cols, c.inDim, ErrDimMismatch)
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
	if len(dst) != n*c.outDim {
		return fmt.Errorf("output buffer has %d entries, want %d: %w", len(dst), n*c.outDim, ErrDimMismatch)
	}
	nt := float64(len(c.roots))
	// An already-built interval table beats even the tree-outer walk; batch
	// scoring never triggers the build itself (training-time batches are
	// too small to amortize it).
	if c.inDim == 1 {
		if st := c.stepT.Load(); st != nil && st.sums != nil {
			for r := 0; r < n; r++ {
				row := st.row(xs.At(rowAt(sel, r), 0), c.outDim)
				out := dst[r*c.outDim : (r+1)*c.outDim]
				for d := range out {
					out[d] = row[d] / nt
				}
			}
			return nil
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	feat, thr, left, right := c.feat, c.thr, c.left, c.right
	for _, root := range c.roots {
		for r := 0; r < n; r++ {
			x := xs.Row(rowAt(sel, r))
			i := root
			f := feat[i]
			for f >= 0 {
				if x[f] <= thr[i] {
					i = left[i]
				} else {
					i = right[i]
				}
				f = feat[i]
			}
			leaf := c.leaves[left[i] : int(left[i])+c.outDim]
			out := dst[r*c.outDim : (r+1)*c.outDim]
			for d := range out {
				out[d] += leaf[d]
			}
		}
	}
	for i := range dst {
		dst[i] /= nt
	}
	return nil
}
