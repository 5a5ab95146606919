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

	// gridT is the lazily-built multi-feature interval grid for 2..4-feature
	// forests (see gridtable.go); gridOnce guards its construction.
	gridT    atomic.Pointer[gridTable]
	gridOnce sync.Once
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
	} else if c.inDim <= maxGridDims {
		if g := c.grid(); g.sums != nil {
			row := g.row(x, c.outDim)
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

// leafChunk is the number of trees traversed before their leaf vectors are
// folded into the output. The offsets buffer lives on the stack, keeping
// PredictInto allocation-free.
const leafChunk = 64

// accumulate adds every tree's leaf vector for x into dst. Callers have
// validated dimensions.
//
// The walk is organized for instruction-level parallelism while preserving
// the exact floating-point order of a one-tree-at-a-time walk:
//
//   - Trees are traversed four at a time. A single traversal is a chain of
//     dependent loads (each child index depends on the previous node), so
//     interleaving four independent chains overlaps their load latencies.
//   - Traversal only records each tree's leaf offset; after every chunk the
//     leaf vectors are folded into dst dimension-outer, so each output
//     entry accumulates in a register instead of a store/reload chain
//     (dst and leaves are both []float64, so the compiler must otherwise
//     assume they alias). Within a dimension the leaves are still added
//     strictly in tree order — the same operation sequence as the pointer
//     walk, hence bit-identical results.
func (c *CompiledForest) accumulate(dst, x []float64) {
	feat, thr, left, right := c.feat, c.thr, c.left, c.right
	roots := c.roots
	leaves := c.leaves
	var offs [leafChunk]int32
	for t0 := 0; t0 < len(roots); t0 += leafChunk {
		nt := min(leafChunk, len(roots)-t0)
		chunk := roots[t0 : t0+nt]
		t := 0
		if c.inDim == 1 {
			// Single-feature forests (the paper's preferred perf-ratio
			// model) compare every node against the same value; hoisting it
			// removes one dependent load per hop.
			xv := x[0]
			for ; t+8 <= nt; t += 8 {
				i0, i1, i2, i3 := chunk[t], chunk[t+1], chunk[t+2], chunk[t+3]
				i4, i5, i6, i7 := chunk[t+4], chunk[t+5], chunk[t+6], chunk[t+7]
				for {
					done := true
					if feat[i0] >= 0 {
						if xv <= thr[i0] {
							i0 = left[i0]
						} else {
							i0 = right[i0]
						}
						done = false
					}
					if feat[i1] >= 0 {
						if xv <= thr[i1] {
							i1 = left[i1]
						} else {
							i1 = right[i1]
						}
						done = false
					}
					if feat[i2] >= 0 {
						if xv <= thr[i2] {
							i2 = left[i2]
						} else {
							i2 = right[i2]
						}
						done = false
					}
					if feat[i3] >= 0 {
						if xv <= thr[i3] {
							i3 = left[i3]
						} else {
							i3 = right[i3]
						}
						done = false
					}
					if feat[i4] >= 0 {
						if xv <= thr[i4] {
							i4 = left[i4]
						} else {
							i4 = right[i4]
						}
						done = false
					}
					if feat[i5] >= 0 {
						if xv <= thr[i5] {
							i5 = left[i5]
						} else {
							i5 = right[i5]
						}
						done = false
					}
					if feat[i6] >= 0 {
						if xv <= thr[i6] {
							i6 = left[i6]
						} else {
							i6 = right[i6]
						}
						done = false
					}
					if feat[i7] >= 0 {
						if xv <= thr[i7] {
							i7 = left[i7]
						} else {
							i7 = right[i7]
						}
						done = false
					}
					if done {
						break
					}
				}
				offs[t], offs[t+1], offs[t+2], offs[t+3] = left[i0], left[i1], left[i2], left[i3]
				offs[t+4], offs[t+5], offs[t+6], offs[t+7] = left[i4], left[i5], left[i6], left[i7]
			}
		} else {
			for ; t+4 <= nt; t += 4 {
				i0, i1, i2, i3 := chunk[t], chunk[t+1], chunk[t+2], chunk[t+3]
				for {
					done := true
					if f := feat[i0]; f >= 0 {
						if x[f] <= thr[i0] {
							i0 = left[i0]
						} else {
							i0 = right[i0]
						}
						done = false
					}
					if f := feat[i1]; f >= 0 {
						if x[f] <= thr[i1] {
							i1 = left[i1]
						} else {
							i1 = right[i1]
						}
						done = false
					}
					if f := feat[i2]; f >= 0 {
						if x[f] <= thr[i2] {
							i2 = left[i2]
						} else {
							i2 = right[i2]
						}
						done = false
					}
					if f := feat[i3]; f >= 0 {
						if x[f] <= thr[i3] {
							i3 = left[i3]
						} else {
							i3 = right[i3]
						}
						done = false
					}
					if done {
						break
					}
				}
				offs[t], offs[t+1], offs[t+2], offs[t+3] = left[i0], left[i1], left[i2], left[i3]
			}
		}
		for ; t < nt; t++ {
			i := chunk[t]
			for feat[i] >= 0 {
				if x[feat[i]] <= thr[i] {
					i = left[i]
				} else {
					i = right[i]
				}
			}
			offs[t] = left[i]
		}
		// Fold the chunk's leaves into dst, dimension-outer.
		for d := range dst {
			s := dst[d]
			for _, off := range offs[:nt] {
				s += leaves[int(off)+d]
			}
			dst[d] = s
		}
	}
}

// Predict returns the forest's averaged output vector for input x. An
// empty forest yields the zero vector; a dimension mismatch panics (use
// PredictInto for a typed error).
func (c *CompiledForest) Predict(x []float64) []float64 {
	out := make([]float64, c.outDim)
	if c == nil || len(c.roots) == 0 {
		return out
	}
	if err := c.PredictInto(out, x); err != nil {
		panic(err)
	}
	return out
}

// PredictBatch fills dst[r] with the prediction for xs[r]. Traversal is
// tree-outer/row-inner: each tree's nodes stay hot in cache while every
// row walks it, which is the fast order for scoring whole datasets. Each
// dst[r] must have length OutDim; results are bit-identical to calling
// PredictInto per row.
func (c *CompiledForest) PredictBatch(dst [][]float64, xs [][]float64) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("batch has %d outputs for %d inputs: %w", len(dst), len(xs), ErrDimMismatch)
	}
	for r := range xs {
		if err := c.check(dst[r], xs[r]); err != nil {
			return err
		}
		for d := range dst[r] {
			dst[r][d] = 0
		}
	}
	// An already-built interval table beats even the tree-outer walk; batch
	// scoring never triggers the build itself (training-time batches are
	// too small to amortize it).
	if c.inDim == 1 {
		if st := c.stepT.Load(); st != nil && st.sums != nil {
			n := float64(len(c.roots))
			for r, x := range xs {
				row := st.row(x[0], c.outDim)
				out := dst[r]
				for d := range out {
					out[d] = row[d] / n
				}
			}
			return nil
		}
	} else if g := c.gridT.Load(); g != nil && g.sums != nil {
		n := float64(len(c.roots))
		for r, x := range xs {
			row := g.row(x, c.outDim)
			out := dst[r]
			for d := range out {
				out[d] = row[d] / n
			}
		}
		return nil
	}
	feat, thr, left, right := c.feat, c.thr, c.left, c.right
	for _, root := range c.roots {
		for r, x := range xs {
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
			out := dst[r]
			for d := range out {
				out[d] += leaf[d]
			}
		}
	}
	n := float64(len(c.roots))
	for r := range dst {
		for d := range dst[r] {
			dst[r][d] /= n
		}
	}
	return nil
}

// PredictRowsInto fills dst (flat, row-major, len nrows*OutDim) with the
// predictions for the selected rows (nil = every row) of the flat input
// matrix. Traversal is tree-outer/row-inner exactly like PredictBatch —
// result r is bit-identical to PredictInto on row rowAt(sel, r) — and the
// call performs no allocations, closing the batch-scoring loop for callers
// that pool their buffers.
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
	} else if g := c.gridT.Load(); g != nil && g.sums != nil {
		for r := 0; r < n; r++ {
			row := g.row(xs.Row(rowAt(sel, r)), c.outDim)
			out := dst[r*c.outDim : (r+1)*c.outDim]
			for d := range out {
				out[d] = row[d] / nt
			}
		}
		return nil
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

// PredictRows scores every input row in one batch, returning freshly
// allocated output vectors backed by a single contiguous block.
func (c *CompiledForest) PredictRows(xs [][]float64) ([][]float64, error) {
	if c == nil || len(c.roots) == 0 {
		return nil, ErrEmptyForest
	}
	backing := make([]float64, len(xs)*c.outDim)
	dst := make([][]float64, len(xs))
	for r := range dst {
		dst[r] = backing[r*c.outDim : (r+1)*c.outDim]
	}
	if err := c.PredictBatch(dst, xs); err != nil {
		return nil, err
	}
	return dst, nil
}
