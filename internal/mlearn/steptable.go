package mlearn

import (
	"math"
	"sort"
)

// stepTableCap bounds the interval table's size (in float64s, 8 MiB): a
// forest whose table would exceed it keeps walking its trees.
const stepTableCap = 1 << 20

// stepTable is the lookup table of a single-feature forest. Every split
// in such a forest compares the same input entry against a threshold, so
// the whole ensemble is a step function of that entry: the distinct
// thresholds partition the real line into intervals on which the
// (undivided) sum of leaf vectors is constant. Prediction reduces to one
// binary search plus a row copy.
//
// sums[i*outDim : (i+1)*outDim] is the accumulated leaf sum for interval
// i, where interval i covers (bounds[i-1], bounds[i]] (interval len(bounds)
// is the open tail). Each row is produced by the regular accumulate walk
// at a representative input, so every entry carries the exact
// floating-point value the tree-by-tree accumulation yields — table
// lookups stay bit-identical to the tree walk.
//
// A zero-value stepTable (nil sums) means "disabled": the forest is too
// large for the cap, or not single-feature.
type stepTable struct {
	bounds []float64
	sums   []float64
}

// buildStep builds the interval table for a single-feature forest.
func (f *Forest) buildStep() *stepTable {
	if f.inDim != 1 || f.empty() {
		return &stepTable{}
	}
	var bounds []float64
	for i, fx := range f.feat {
		if fx >= 0 {
			bounds = append(bounds, f.thr[i])
		}
	}
	sort.Float64s(bounds)
	bounds = dedupeSorted(bounds)
	if (len(bounds)+1)*f.outDim > stepTableCap {
		return &stepTable{}
	}
	sums := make([]float64, (len(bounds)+1)*f.outDim)
	var x [1]float64
	for i := 0; i <= len(bounds); i++ {
		if i < len(bounds) {
			// bounds[i] itself lies in interval i (intervals are
			// upper-inclusive, matching the x <= threshold split rule).
			x[0] = bounds[i]
		} else {
			x[0] = math.Inf(1)
		}
		f.accumulate(sums[i*f.outDim:(i+1)*f.outDim], x[:])
	}
	return &stepTable{bounds: bounds, sums: sums}
}

func dedupeSorted(v []float64) []float64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// row returns the accumulated leaf-sum row for input value x. The search
// finds the first bound >= x, so x == bound selects the interval below it
// (the left branch of the corresponding split), and NaN — for which every
// comparison is false — falls through to the rightmost interval, exactly
// like the tree walk.
func (st *stepTable) row(x float64, outDim int) []float64 {
	i := sort.SearchFloat64s(st.bounds, x)
	return st.sums[i*outDim : (i+1)*outDim]
}

// step returns the forest's interval table, building it on first use. The
// table costs one accumulate walk per interval, which only pays off for
// forests that serve many single-input predictions (the admission path), so
// it is built by the first PredictInto or by Warm; batch scoring never
// reads it.
func (f *Forest) step() *stepTable {
	if st := f.stepT.Load(); st != nil {
		return st
	}
	f.stepOnce.Do(func() { f.stepT.Store(f.buildStep()) })
	return f.stepT.Load()
}

// Warm builds what PredictInto reads — the interval table of a
// single-feature forest — so that a forest registered for serving does not
// pay the build inside its first admission. Safe for concurrent callers and
// on a nil receiver.
func (f *Forest) Warm() {
	if f != nil && f.inDim == 1 {
		f.step()
	}
}
